"""The package's import footprint: numpy is its only third-party import.

Every CLI run, benchmark worker and test process pays for what importing
the package pulls in, so a new heavy dependency should be a decision, not
an accident.  ``scipy`` stays a dependency for ``core/numerical.py``, which
only the ablation benchmark and the tests import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter.  Modules present before the imports (the
# interpreter's own start-up, site hooks) are not the package's doing.
_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.ucx.context, repro.mpi, repro.bench.runner, repro.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in added
    if not name.startswith("_")  # e.g. multiprocessing's __mp_main__
    and name not in sys.stdlib_module_names
)))
"""


def test_only_numpy_is_imported():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert set(json.loads(out)) - {"repro"} == {"numpy"}
