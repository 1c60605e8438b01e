"""Byte-identity of every file the campaign runners write.

Small fixed-seed runs of each runner must reproduce the sha256 digests in
``golden_outputs.json`` file by file. A change meant to alter outputs
re-records them with ``PYTHONPATH=src python tests/test_golden_outputs.py``
and says so; any other digest change is a regression. On x86-64 the same
digests must also come out of a child interpreter whose numpy runs with
every SIMD feature beyond its baseline disabled.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import odfault
from odfault.campaign import (
    CampaignConfig,
    ingest_and_score,
    run_permanent,
    run_transient,
    simulate_pr,
)
from odfault.geometry import Box, Detection
from odfault.records import DetectionRecord, write_records

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_outputs.json")


def _storm_records(tmp_dir: pathlib.Path, seed: int = 3, n_images: int = 100):
    """A seeded ndjson pair: three corrupted images carry a detection storm,
    ten gain or lose one to three boxes, the rest are unchanged."""
    rng = random.Random(seed)

    def box(lo, hi):
        w, h = rng.uniform(lo, hi), rng.uniform(lo, hi)
        x, y = rng.uniform(0.0, 64.0 - w), rng.uniform(0.0, 64.0 - h)
        return Box(round(x, 2), round(y, 2), round(x + w, 2), round(y + h, 2))

    picked = rng.sample(range(n_images), 13)
    storms, changed = set(picked[:3]), set(picked[3:])
    origs, corrs = [], []
    for i in range(n_images):
        gts = [Detection(box(10.0, 16.0), rng.randrange(3), 1.0) for _ in range(rng.randint(2, 4))]
        dets = [Detection(Box(g.box.x1 + 0.5, g.box.y1, g.box.x2, g.box.y2 - 0.5), g.category,
                          round(rng.uniform(0.6, 1.0), 4)) for g in gts]
        corr = list(dets)
        if i in storms:
            corr += [Detection(box(3.0, 20.0), rng.randrange(3), round(rng.uniform(0.5, 1.0), 4))
                     for _ in range(rng.randint(50, 100))]
        elif i in changed:
            k = rng.randint(1, 3)
            if rng.random() < 0.5:
                corr += [Detection(box(6.0, 20.0), rng.randrange(3),
                                   round(rng.uniform(0.5, 1.0), 4)) for _ in range(k)]
            else:
                corr = corr[k:]
        origs.append(DetectionRecord(f"img{i:03d}", 64, 64, tuple(dets), tuple(gts)))
        corrs.append(DetectionRecord(f"img{i:03d}", 64, 64, tuple(corr), tuple(gts),
                                     nan_flag=i == 7))
    orig_path, corr_path = tmp_dir / "orig.ndjson", tmp_dir / "corr.ndjson"
    write_records(origs, orig_path)
    write_records(corrs, corr_path)
    return orig_path, corr_path


def _transient(doc):
    return lambda out, tmp: run_transient(CampaignConfig.from_json(doc), out)


def _permanent(doc):
    return lambda out, tmp: run_permanent(CampaignConfig.from_json(doc), out)


def _ingest(out, tmp):
    cfg = CampaignConfig.from_json({"mode": "ingest", "seed": 1})
    ingest_and_score(*_storm_records(tmp), cfg, out)


RUNS = {
    "transient_neuron": _transient(
        {"mode": "transient", "seed": 2, "n_injections": 200, "bit_policy": "exponent_only",
         "scene": {"pool": 20}}),
    "transient_weight_fixed_scene": _transient(
        {"mode": "transient", "seed": 9, "n_injections": 60, "target": "weight",
         "scene": {"fixed": True}}),
    # one injection chunk; one injection persists and writes its masks
    "permanent_masks": _permanent(
        {"mode": "permanent", "seed": 20, "n_injections": 33, "emit_masks": 2,
         "sequence": {"n_frames": 20}}),
    # weight faults resume from every frame; one persists and writes 20 masks
    "permanent_weight_masks": _permanent(
        {"mode": "permanent", "seed": 3, "n_injections": 30, "target": "weight",
         "emit_masks": 2, "sequence": {"n_frames": 20}}),
    "ingest_storm": _ingest,
    "simulate_pr": lambda out, tmp: simulate_pr(seed=7, out_dir=out),
}


def _digests(name, tmp_dir: pathlib.Path) -> dict[str, str]:
    out = tmp_dir / "out"
    RUNS[name](out, tmp_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def _all_digests() -> dict[str, dict[str, str]]:
    recorded = {}
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as scratch:
            recorded[name] = _digests(name, pathlib.Path(scratch))
    return recorded


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_recorded_digests(tmp_path, name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digests(name, tmp_path) == golden[name]


def _simd_beyond_baseline() -> list[str]:
    """The SIMD features beyond numpy's baseline that numpy found on this CPU."""
    if int(np.__version__.split(".")[0]) >= 2:
        from numpy._core import _multiarray_umath as umath
    else:
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


_DIGESTS_STDOUT = """
import json
import test_golden_outputs as golden
print(json.dumps({"simd": golden._simd_beyond_baseline(), "digests": golden._all_digests()}))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 CPU features")
def test_outputs_do_not_follow_numpy_cpu_dispatch():
    # numpy picks a SIMD kernel per CPU for each ufunc; a float32 reduction or
    # transcendental that follows it would make the bytes depend on the host
    features = _simd_beyond_baseline()
    if not features:
        pytest.skip("numpy found no SIMD feature beyond its baseline here")
    paths = [pathlib.Path(odfault.__file__).parents[1], pathlib.Path(__file__).parent]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONPATH=os.pathsep.join(filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _DIGESTS_STDOUT], env=env, capture_output=True,
                           text=True, check=True)
    result = json.loads(child.stdout)
    assert result["simd"] == []
    assert result["digests"] == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    recorded = _all_digests()
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, recorded.values()))} digests in {GOLDEN_PATH}", file=sys.stderr)
