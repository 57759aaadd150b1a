"""The package ships only what the `mutreach` commands reach."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mutreach

PACKAGE_DIR = Path(mutreach.__file__).resolve().parent

PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("mutreach."))
import mutreach
bare = loaded()
import mutreach.cli
print(json.dumps([bare, loaded()]))
"""


def test_import_loads_no_submodule_and_the_cli_reaches_every_module():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    bare, after_cli = json.loads(out)
    assert bare == []
    shipped = sorted(f"mutreach.{p.stem}" for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
    assert after_cli == shipped
