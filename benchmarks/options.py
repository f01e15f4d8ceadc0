"""List the defaulted parameters under ``src/repro`` that no call passes.

Usage (from the repository root)::

    python3 benchmarks/options.py [--tree DIR] [--all]

Reads the checkout at ``--tree`` (default: this one) and writes nothing.
Every function and method under ``src/repro`` is collected with the
parameters that have a default; functions nested in functions are not (a
closure's defaults bind its enclosing scope), nor are dataclass fields (a
record field's default is its initial state).  Every call under ``src``,
``benchmarks``, ``examples`` and ``tests`` is matched to them by the name
it calls: ``f(...)`` and ``obj.f(...)`` match every function or method
named ``f``, and ``C(...)`` the ``__init__`` of every class named ``C``, or
of its nearest base class that has one, followed by name.  A call passes
a parameter by keyword, by position, through ``*args`` (every positional
parameter from the star's position on) or through ``**kwargs`` (every
parameter).  Aliases are not followed: a function stored in a table and
called through it passes nothing.

Each defaulted parameter no call passes is printed as
``module:qualname(param=default)``, in source order.  Those in
:data:`ALLOWLIST` are left out unless ``--all`` is given, which prints
each with its reason.  A scan takes about 2 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The directories whose calls count.
CALLER_DIRS = ("src", "benchmarks", "examples", "tests")

_PUBLIC = "public API input"
_REFERENCE = "reference code tests compare against"
_ERRORS = ("every error in gpu/errors.py takes message= (its constructor's "
           "shape)")
_LOOPS = ("passed through bw_grid.LOOPS, an alias the scan cannot follow")
_PARAMETRIZED = ("passed by the parametrized `loop` of "
                 "tests/test_bench_omb.py, an alias the scan cannot follow")

#: ``module:qualname(param)`` that stay although no call passes them, each
#: with its reason.
ALLOWLIST = {
    "repro.ucx.endpoint:Endpoint.get(tag)": f"{_PUBLIC}: a GET is tagged like a PUT",
    "repro.gpu.runtime:GPURuntime.d2h_copy_async(tag)":
        f"{_PUBLIC}: the CUDA-style copies are tagged like peer_copy_async",
    "repro.gpu.runtime:GPURuntime.h2d_copy_async(tag)":
        f"{_PUBLIC}: the CUDA-style copies are tagged like peer_copy_async",
    "repro.mpi.comm:RankView.sendrecv(nbytes)":
        f"{_PUBLIC}: a size-only exchange, as send and isend take",
    "repro.mpi.collectives.reduce_scatter:reduce_scatter_ring(op)":
        f"{_PUBLIC}: the reduction operator, as allreduce takes",
    "repro.gpu.errors:TransferShed.__init__(message)": _ERRORS,
    "repro.gpu.errors:TransferCancelled.__init__(message)": _ERRORS,
    "repro.core.numerical:solve_exact_fractions(initial)": _REFERENCE,
    "repro.core.numerical:solve_exact_fractions(tol)": _REFERENCE,
    "repro.core.theorem:is_equal_time_optimal(tol)": _REFERENCE,
    "repro.core.theorem:exchange_argument_step(step_fraction)": _REFERENCE,
    "repro.bench.omb:osu_bibw(window)": _LOOPS,
    "repro.bench.omb:osu_bibw(warmup)": _LOOPS,
    "repro.bench.omb:osu_bibw(src)": _PARAMETRIZED,
    "repro.bench.omb:osu_bibw(dst)": _PARAMETRIZED,
}


@dataclass
class Function:
    """One function or method with at least one defaulted parameter."""

    where: str  # module:qualname
    names: set[str]  # the names a call reaches it by
    positional: list[str]  # what positional arguments bind, in order
    defaults: dict[str, str]  # defaulted parameter -> its default's source
    passed: set[str] = field(default_factory=set)


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _function(fn, where: str, *, method: bool) -> Function:
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaults = {
        p: ast.unparse(d)
        for p, d in zip(positional[len(positional) - len(a.defaults):], a.defaults)
    }
    defaults.update(
        (p.arg, ast.unparse(d))
        for p, d in zip(a.kwonlyargs, a.kw_defaults)
        if d is not None
    )
    static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]  # self or cls
    return Function(where, {fn.name}, positional, defaults)


def definitions(src: Path) -> list[Function]:
    """Every function and method under ``src`` with a defaulted parameter,
    each reachable by its name and, for an ``__init__``, by its class's
    and by those of subclasses that inherit it."""
    found: list[Function] = []
    inits: dict[str, Function] = {}  # class name -> its own __init__
    bases: dict[str, list[str]] = {}  # class name -> its base classes' names

    def walk(node, module: str, prefix: str) -> None:
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _function(child, f"{module}:{prefix}{child.name}",
                               method=isinstance(node, ast.ClassDef))
                if child.name == "__init__" and isinstance(node, ast.ClassDef):
                    fn.names = {node.name}
                    inits[node.name] = fn
                found.append(fn)
            elif isinstance(child, ast.ClassDef):
                bases[child.name] = [n for n in map(_name, child.bases) if n]
                walk(child, module, f"{prefix}{child.name}.")

    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text()), module, "")

    for cls in bases:
        if cls in inits:
            continue
        todo, seen = list(bases[cls]), set()
        while todo:
            base = todo.pop(0)
            if base in seen:
                continue
            seen.add(base)
            if base in inits:
                inits[base].names.add(cls)
                break
            todo.extend(bases.get(base, ()))
    return [fn for fn in found if fn.defaults]


def mark_calls(root: Path, functions: list[Function]) -> None:
    """Mark on ``functions`` every parameter a call under ``root`` passes."""
    by_name: dict[str, list[Function]] = {}
    for fn in functions:
        for name in fn.names:
            by_name.setdefault(name, []).append(fn)
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                for fn in by_name.get(_name(node.func), ()):
                    for i, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            fn.passed.update(fn.positional[i:])
                            break
                        if i < len(fn.positional):
                            fn.passed.add(fn.positional[i])
                    for kw in node.keywords:
                        fn.passed.update(fn.defaults if kw.arg is None else (kw.arg,))


def unpassed(root: Path) -> list[tuple[str, str]]:
    """``(module:qualname(param), default)`` of every defaulted parameter
    under ``root/src/repro`` that no call passes, in source order."""
    functions = definitions(root / "src" / "repro")
    mark_calls(root, functions)
    return [
        (f"{fn.where}({p})", default)
        for fn in functions
        for p, default in fn.defaults.items()
        if p not in fn.passed
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="checkout to scan (default: this one)")
    p.add_argument("--all", action="store_true",
                   help="also print the allowlisted parameters, with reasons")
    args = p.parse_args(argv)
    root = args.tree.resolve()
    if not (root / "src" / "repro").is_dir():
        print(f"error: program sources not found under {root / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    found = unpassed(root)
    kept = sum(key in ALLOWLIST for key, _ in found)
    print(f"# {len(found)} defaulted parameters no call passes, "
          f"{kept} of them allowlisted")
    for key, default in found:
        reason = ALLOWLIST.get(key)
        if reason is None or args.all:
            print(f"{key[:-1]}={default})" + (f"  # {reason}" if reason else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
