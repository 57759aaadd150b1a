"""Every layer the benchmark traces names a function the program still has.

A traced run reports the metrics of a layer whose function is gone as
null, so a rename or a move in `src/` silently empties a per-layer
metric.  The probe runs in its own process because `fresh_import`
replaces every loaded `mutreach` module.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = """
import json
from perfbench.layers import LAYERS
from perfbench.run import fresh_import
from perfbench.tracer import _resolve_owner

fresh_import()
missing = []
for layer in LAYERS:
    owner, leaf = _resolve_owner(layer)
    if owner is None or not callable(getattr(owner, leaf, None)):
        missing.append(layer.name)
print(json.dumps([len(LAYERS), missing]))
"""


def test_every_traced_layer_resolves_after_a_fresh_import():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout
    count, missing = json.loads(out)
    assert count > 0
    assert missing == []
