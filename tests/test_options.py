"""Every defaulted parameter under ``src/repro`` is one some call passes.

A default that no caller overrides is a configuration nothing runs: its
validation, docstring and the branches only another value reaches are
code with no user.  ``benchmarks/options.py`` lists such parameters; the
ones that stay (public API inputs, reference code, parameters reached
through aliases the scan cannot follow) are in its ``ALLOWLIST`` with a
reason each.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _options():
    """``benchmarks/options.py``, imported by path (it is a script)."""
    name = "benchmarks_options"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "benchmarks" / "options.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_no_unpassed_parameter_outside_the_allowlist():
    options = _options()
    found = [key for key, _default in options.unpassed(ROOT)]
    assert [key for key in found if key not in options.ALLOWLIST] == []
    # an entry a call now passes, or whose parameter is gone, is stale
    assert sorted(set(options.ALLOWLIST) - set(found)) == []


def test_scan_matching_rules(tmp_path):
    """Keyword, position, ``*args``, ``**kwargs``, methods and inherited
    constructors each count as passing; nothing else does."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "m.py").write_text(
        "def f(a, b=1, *, c=2): pass\n"
        "def g(a=1, b=2): pass\n"
        "def h(x=0, *, y=0): pass\n"
        "def unused(z=0): pass\n"
        "class Base:\n"
        "    def __init__(self, p=0, q=0): pass\n"
        "class Child(Base): pass\n"
        "class K:\n"
        "    def m(self, s=0, t=1): pass\n"
        "    @staticmethod\n"
        "    def st(u=0): pass\n"
        "def outer(v=0):\n"
        "    def inner(w=v): pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text(
        "f(0, 5)\n"
        "f(0, c=3)\n"
        "g(**kw)\n"
        "h(*xs)\n"
        "Child(q=1)\n"
        "obj.m(1)\n"
        "K.st(2)\n"
        "outer(v=1)\n"
        "d.get(1, 2)\n"
    )
    found = [key for key, _default in _options().unpassed(tmp_path)]
    assert found == [
        "repro.m:h(y)",
        "repro.m:unused(z)",
        "repro.m:Base.__init__(p)",
        "repro.m:K.m(t)",
    ]
