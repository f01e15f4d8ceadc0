"""List near-duplicate function bodies under ``src/repro``.

Usage (from the repository root)::

    python3 benchmarks/clones.py [--tree DIR]

Reads the checkout at ``--tree`` (default: this one) and writes nothing.
Every function and method under ``src/repro`` (nested ones included) that
spans at least 8 source lines is reduced to its body, docstring dropped,
as ``ast.unparse`` prints it, so formatting and comments do not count.
Two bodies are compared when the shorter is at least 0.6 of the longer and
``difflib.SequenceMatcher(autojunk=False).quick_ratio()`` reaches 0.8; a
pair is printed when ``ratio()`` reaches 0.75, as::

    ratio module:qualname(lines) ~ module:qualname(lines)

highest ratio first.  A full scan takes about 15 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_LINES = 8
MIN_LENGTH_RATIO = 0.6
MIN_QUICK_RATIO = 0.8
MIN_RATIO = 0.75


def bodies(src: Path) -> list[tuple[str, int, str]]:
    """``(module:qualname, lines, body text)`` of every function and method
    under ``src`` spanning at least ``MIN_LINES`` lines."""
    out = []

    def walk(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                lines = child.end_lineno - child.lineno + 1
                body = child.body
                if ast.get_docstring(child, clean=False) is not None:
                    body = body[1:]
                if lines >= MIN_LINES and body:
                    text = ast.unparse(ast.Module(body=body, type_ignores=[]))
                    out.append((f"{module}:{name}", lines, text))
                walk(child, module, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text()), module, "")
    return out


def clones(funcs) -> list[tuple[float, str, str]]:
    """``(ratio, a, b)`` of every pair above the thresholds, best first."""
    found = []
    matcher = difflib.SequenceMatcher(None, autojunk=False)
    for j, (name_b, lines_b, text_b) in enumerate(funcs):
        matcher.set_seq2(text_b)  # the matcher caches its second sequence
        for name_a, lines_a, text_a in funcs[:j]:
            short, long_ = sorted((len(text_a), len(text_b)))
            if short < MIN_LENGTH_RATIO * long_:
                continue
            matcher.set_seq1(text_a)
            if matcher.quick_ratio() < MIN_QUICK_RATIO:
                continue
            ratio = matcher.ratio()
            if ratio >= MIN_RATIO:
                found.append((
                    ratio, f"{name_a}({lines_a})", f"{name_b}({lines_b})"
                ))
    found.sort(key=lambda f: (-f[0], f[1], f[2]))
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="checkout to scan (default: this one)")
    args = p.parse_args(argv)
    src = args.tree.resolve() / "src" / "repro"
    if not src.is_dir():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    funcs = bodies(src)
    found = clones(funcs)
    print(f"# {len(found)} pairs among {len(funcs)} functions and methods "
          f"of at least {MIN_LINES} lines")
    for ratio, a, b in found:
        print(f"{ratio:.2f} {a} ~ {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
