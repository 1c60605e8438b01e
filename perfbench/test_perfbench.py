"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_storm_inputs_are_deterministic_per_seed(tmp_path):
    paths = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        orig, corr = tmp_path / f"{name}.orig", tmp_path / f"{name}.corr"
        facts = workloads.write_storm_inputs(seed, str(orig), str(corr), n_images=200)
        paths[name] = (_read(orig), _read(corr))
        assert facts["storm_share"] == 0.03 and facts["changed_share"] == 0.10
        assert facts["storm_boxes_total"] == 6 * 300
    assert paths["a"] == paths["b"]
    assert paths["a"][0] != paths["c"][0] and paths["a"][1] != paths["c"][1]
    storms = sum(1 for line in paths["a"][1].splitlines()
                 if len(json.loads(line)["detections"]) >= 200)
    assert storms == 6


def _outputs(tmp_path, argv, traced):
    work = tmp_path / ("traced" if traced else "plain")
    work.mkdir()
    out = str(work / "out")
    spans_path = str(work / "spans.json") if traced else None
    result = run.campaign(argv, out, str(work), timeout=300, spans_path=spans_path)
    assert result["exit_code"] == 0
    names = sorted(os.listdir(out))
    recorded = json.loads(_read(spans_path)) if traced else None
    return {n: _read(os.path.join(out, n)) for n in names}, recorded


def _assert_wrapping_is_transparent(tmp_path, argv, layers):
    plain, _ = _outputs(tmp_path, argv, traced=False)
    traced, recorded = _outputs(tmp_path, argv, traced=True)
    assert plain and traced == plain
    assert layers <= {span[0] for span in recorded}


def test_wrapping_leaves_transient_outputs_unchanged(tmp_path):
    _assert_wrapping_is_transparent(
        tmp_path,
        ["transient", "--seed", "3", "--n-injections", "40", "--target", "weight"],
        {"campaign.run", "detector.infer", "bits.sample_fault", "matching.assign",
         "metrics.severity", "ap.average_precision", "ap.mean_average_precision"})


def test_wrapping_leaves_permanent_outputs_unchanged(tmp_path):
    # seed 20 reaches a persistent false positive at injection 2
    _assert_wrapping_is_transparent(
        tmp_path,
        ["permanent", "--seed", "20", "--n-injections", "3", "--n-frames", "60",
         "--emit-masks", "1"],
        {"campaign.run", "detector.infer", "geometry.rasterize", "persistence.track",
         "persistence.occupancy_series", "persistence.sdc_at_severity", "campaign.write_pgm"})


def test_wrapping_leaves_ingest_outputs_unchanged(tmp_path):
    orig, corr = str(tmp_path / "orig.ndjson"), str(tmp_path / "corr.ndjson")
    workloads.write_storm_inputs(2, orig, corr, n_images=100)
    _assert_wrapping_is_transparent(
        tmp_path,
        ["ingest", "--orig", orig, "--corr", corr, "--seed", "2"],
        {"campaign.run", "records.read_records", "matching.assign", "metrics.severity"})


def test_reference_comparison_counts_changed_rows(tmp_path):
    argv = ["transient", "--seed", "3", "--n-injections", "20"]
    out = str(tmp_path / "out")
    assert run.campaign(argv, out, str(tmp_path), timeout=300)["exit_code"] == 0
    ref = reference.digest(out)
    assert reference.compare(ref, reference.digest(out)) == (0, [])
    path = os.path.join(out, "injections.csv")
    lines = _read(path).splitlines(keepends=True)
    lines[5] = lines[5].replace(b"benign", b"sdc")
    with open(path, "wb") as handle:
        handle.writelines(lines)
    assert reference.compare(ref, reference.digest(out)) == (1, ["injections.csv"])
