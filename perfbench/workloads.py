"""Benchmark workloads: campaign configurations and the storm ingest inputs.

Each workload runs one ``odfault`` subcommand with ``workers=1``. Its
inputs come from an input seed drawn from ``INPUT_SEEDS``; the reference
outputs in ``reference.json`` were recorded for exactly these seeds, so a
benchmark ``--seed n`` selects ``INPUT_SEEDS[workload][n % 10]``.
"""

from __future__ import annotations

import json
import os
import random

from odfault.geometry import Box, Detection, clip
from odfault.records import DetectionRecord, write_records

TRANSIENT_CONFIG = {
    "n_injections": 1000,
    "target": "weight",
    "bit_policy": "all_32",
    "scene": {"pool": 200},
    "workers": 1,
}

PERMANENT_CONFIG = {
    "n_injections": 10,
    "target": "neuron",
    "sequence": {"n_frames": 60},
    "emit_masks": 1,
    "workers": 1,
}

INGEST_IMAGES = 2000
STORM_SHARE = 0.03
CHANGED_SHARE = 0.10
STORM_SIZES = (200, 400)

# Permanent seeds are the first ten whose 10 injections include a
# persistent false positive, so the tracker's confirm path, the FP-blob
# rebuild and the PGM writer run in every permanent run.
INPUT_SEEDS = {
    "transient-weight": list(range(10)),
    "permanent-neuron": [0, 20, 23, 29, 39, 41, 42, 67, 69, 77],
    "ingest-storm": list(range(10)),
}

WORKLOADS = tuple(INPUT_SEEDS)


def input_seed(workload: str, seed: int) -> int:
    seeds = INPUT_SEEDS[workload]
    return seeds[seed % len(seeds)]


def prepare(workload: str, seed: int, work_dir: str) -> tuple[list[str], dict]:
    """Write the workload's inputs under ``work_dir``.

    Returns the CLI arguments without ``--out`` and facts about the inputs.
    """
    os.makedirs(work_dir, exist_ok=True)
    if workload == "ingest-storm":
        orig = os.path.join(work_dir, "orig.ndjson")
        corr = os.path.join(work_dir, "corr.ndjson")
        facts = write_storm_inputs(seed, orig, corr)
        return ["ingest", "--orig", orig, "--corr", corr, "--seed", str(seed)], facts
    command = "transient" if workload == "transient-weight" else "permanent"
    config = TRANSIENT_CONFIG if command == "transient" else PERMANENT_CONFIG
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, sort_keys=True)
    return [command, "--config", path, "--seed", str(seed)], {}


def _box(rng, lo, hi):
    w = rng.uniform(lo, hi)
    h = rng.uniform(lo, hi)
    x = rng.uniform(0.0, 64.0 - w)
    y = rng.uniform(0.0, 64.0 - h)
    return Box(round(x, 2), round(y, 2), round(x + w, 2), round(y + h, 2))


def _jitter(rng, box):
    d = [round(rng.uniform(-1.0, 1.0), 2) for _ in range(4)]
    return clip(Box(box.x1 + d[0], box.y1 + d[1], box.x2 + d[2], box.y2 + d[3]), 64, 64)


def write_storm_inputs(seed: int, orig_path: str, corr_path: str,
                       n_images: int = INGEST_IMAGES) -> dict:
    """A seeded ndjson pair for ``odfault ingest``.

    Exactly ``STORM_SHARE`` of the corrupted images carry a detection storm
    and ``CHANGED_SHARE`` gain or lose one to three boxes; the rest are
    unchanged. Storm sizes are evenly spread over ``STORM_SIZES`` so that
    every seed ingests the same number of storm boxes.
    """
    rng = random.Random(seed)
    n_storm = round(STORM_SHARE * n_images)
    n_changed = round(CHANGED_SHARE * n_images)
    picked = rng.sample(range(n_images), n_storm + n_changed)
    lo, hi = STORM_SIZES
    sizes = [lo + (hi - lo) * k // max(1, n_storm - 1) for k in range(n_storm)]
    rng.shuffle(sizes)
    storm_size = dict(zip(picked[:n_storm], sizes))
    changed = set(picked[n_storm:])

    origs, corrs = [], []
    for i in range(n_images):
        gts = [Detection(_box(rng, 10.0, 16.0), rng.randrange(3), 1.0)
               for _ in range(rng.randint(2, 4))]
        dets = [Detection(_jitter(rng, g.box), g.category, round(rng.uniform(0.6, 1.0), 4))
                for g in gts]
        if rng.random() < 0.1:
            dets.append(Detection(_box(rng, 6.0, 16.0), rng.randrange(3),
                                  round(rng.uniform(0.5, 0.8), 4)))
        corr = list(dets)
        if i in storm_size:
            corr += [Detection(_box(rng, 3.0, 20.0), rng.randrange(3),
                               round(rng.uniform(0.5, 1.0), 4))
                     for _ in range(storm_size[i])]
        elif i in changed:
            k = rng.randint(1, 3)
            if rng.random() < 0.5:
                corr += [Detection(_box(rng, 6.0, 20.0), rng.randrange(3),
                                   round(rng.uniform(0.5, 1.0), 4)) for _ in range(k)]
            else:
                corr = corr[k:]
        image_id = f"img{i:05d}"
        origs.append(DetectionRecord(image_id, 64, 64, tuple(dets), tuple(gts)))
        corrs.append(DetectionRecord(image_id, 64, 64, tuple(corr), tuple(gts)))
    write_records(origs, orig_path)
    write_records(corrs, corr_path)
    return {
        "n_images": n_images,
        "storm_share": n_storm / n_images,
        "changed_share": n_changed / n_images,
        "storm_boxes_min": min(sizes) if sizes else 0,
        "storm_boxes_max": max(sizes) if sizes else 0,
        "storm_boxes_total": sum(sizes),
    }
