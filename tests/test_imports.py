"""The package needs numpy only, and importing the CLI pulls in nothing else.

scipy, hypothesis and pytest-benchmark may be installed next to the
package; a stray import of one of them (or of pytest) would make the
package depend on it and add its import time to every CLI start.  The
import runs in a fresh interpreter, so modules the test run has already
loaded do not mask it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORBIDDEN = ("scipy", "hypothesis", "pytest_benchmark", "pytest")


def test_cli_import_loads_no_test_or_optional_dependency():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = "import json, sys, charvar.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout)
    assert "charvar.cli" in loaded
    roots = {name.split(".")[0] for name in loaded}
    assert not roots.intersection(FORBIDDEN), sorted(roots.intersection(FORBIDDEN))
