"""The run path loads neither scipy nor ``numpy.random``: the CLI and one
small campaign of each kind run in a fresh interpreter, which must end with
no ``scipy`` or ``numpy.random`` module loaded (scenes and faults draw from
``odfault._rng``). A lazy import would move the import cost from start-up
into the run. Nor does importing the CLI load anything beyond the standard
library, numpy and the package itself, so start-up cannot quietly gain a
dependency."""

from __future__ import annotations

import json
import subprocess
import sys

_SCRIPT = """
import sys
from odfault import cli

out, orig, corr = sys.argv[1:4]
for argv in (["transient", "--seed", "1", "--n-injections", "3", "--out", out + "/t"],
             ["permanent", "--seed", "1", "--n-injections", "2", "--n-frames", "20",
              "--emit-masks", "1", "--out", out + "/p"],
             ["ingest", "--seed", "1", "--orig", orig, "--corr", corr, "--out", out + "/i"]):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "random"]))
"""


def _record(image_id, boxes):
    return json.dumps({
        "image_id": image_id, "width": 64, "height": 64,
        "detections": [{"bbox": box, "category": 0, "confidence": 0.9} for box in boxes],
        "ground_truth": [{"bbox": [2.0, 2.0, 20.0, 20.0], "category": 0},
                         {"bbox": [30.0, 30.0, 50.0, 50.0], "category": 0}],
        "flags": {"nan": False, "inf": False},
    })


def test_campaigns_run_without_importing_scipy_or_numpy_random(tmp_path):
    orig, corr = tmp_path / "orig.ndjson", tmp_path / "corr.ndjson"
    orig.write_text(_record("a", [[2.0, 2.0, 20.0, 20.0], [30.0, 30.0, 50.0, 50.0]]) + "\n")
    # two detections compete for one ground truth, so the solver runs too
    corr.write_text(_record("a", [[2.0, 2.0, 20.0, 20.0], [3.0, 3.0, 20.0, 20.0],
                                  [1.0, 1.0, 19.0, 19.0]]) + "\n")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "out"), str(orig), str(corr)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_cli_import_loads_only_the_standard_library_and_numpy():
    script = """
import sys
before = set(sys.modules)
import odfault.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "odfault"}))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
