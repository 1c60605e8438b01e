"""Campaign runners: reports, determinism, ingestion, CLI surface."""

from __future__ import annotations

import csv
import json
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from enum import IntEnum
from functools import reduce
from operator import itemgetter

import numpy as np
import pytest

from odfault import campaign, cli
from odfault.ap import ApResult, PrCurve
from odfault.bits import FaultDescriptor, FaultMode, FaultTarget
from odfault.campaign import (
    _CONFIG_FIELDS,
    CSV_COLUMNS,
    MAX_SCENE_SIDE,
    MAX_WORKERS,
    CampaignConfig,
    ConfigError,
    _permanent_chunks,
    ingest_and_score,
    run_permanent,
    run_transient,
    simulate_pr,
    write_pgm,
)
from odfault.detector import (
    SceneSpec,
    generate_scene,
    generate_sequence,
    infer,
    reference_model,
    shape_catalog,
)
from odfault.geometry import Box, Detection
from odfault.matching import CategoryPolicy, MatchOutcome
from odfault.metrics import ImageEval, SdcReport
from odfault.persistence import TrackerConfig, track
from odfault.records import DataError, DetectionRecord, record_from_trace, write_records

TRANSIENT_BASE = {"mode": "transient", "seed": 9, "n_injections": 30, "scene": {"pool": 10}}
PERMANENT_BASE = {"mode": "permanent", "seed": 5, "n_injections": 5,
                  "sequence": {"n_frames": 20}}


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_severity_levels_normalised_at_load():
    cfg = CampaignConfig.from_json(dict(PERMANENT_BASE, severity_levels=[0.1, 0, 0.1, 0.05]))
    assert cfg.severity_levels == (0.0, 0.05, 0.1)
    assert all(type(level) is float for level in cfg.severity_levels)
    for bad in ([], [-0.1], ["x"], [float("nan")]):
        with pytest.raises(ConfigError):
            CampaignConfig.from_json(dict(PERMANENT_BASE, severity_levels=bad))
    # built in Python, past from_json's type checks; "0.1" and True are not coerced
    for bad in ((10**400,), ("a",), (None,), ("0.1", True), (0.1, True)):
        with pytest.raises(ConfigError, match="severity_levels"):
            CampaignConfig(seed=1, severity_levels=bad)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.0),
    ("seed", True),
    ("n_injections", 2.5),
    ("n_injections", True),
    ("workers", "2"),
    ("emit_masks", 1.0),
    ("scene_pool", None),
    ("n_frames", np.float64(60)),
    ("iou_threshold", "0.5"),
    ("iou_threshold", True),
    ("iou_threshold", None),
])
def test_config_built_in_python_rejects_wrong_types(name, value):
    # from_json never builds these; a config built in Python must not load
    # them and fail later
    with pytest.raises(ConfigError, match=name):
        CampaignConfig(**{"mode": "permanent", "seed": 1, name: value})


def test_config_built_in_python_accepts_numpy_numbers():
    cfg = CampaignConfig(mode="permanent", seed=np.int64(1), n_injections=np.int64(3),
                         n_frames=np.int64(20), iou_threshold=np.float32(0.5),
                         severity_levels=(np.float64(0.05), np.int64(0)))
    assert cfg.n_injections == 3 and cfg.severity_levels == (0.0, 0.05)


def _wrong_kinds(default):
    """Values of the wrong JSON kind for a field whose valid value is ``default``."""
    if isinstance(default, bool):
        return ["false", 1, None, [True]]
    if isinstance(default, int):
        return [True, 2.0, np.float64(2), "2", None, [2]]
    if isinstance(default, float):
        return [True, "0.5", None, [0.5]]
    if isinstance(default, str):
        return [1, None, [default]]
    # an array: a scalar, a string, None, and entries of the wrong kind
    if not default:  # category_policy.clusters, an array of integer arrays
        return [5, "15", None, (1, 2), ((1, 2.5),), (frozenset({True}),)]
    entry = [2.5] if isinstance(default[0], int) else ["0.5"]
    return [5, "15", None, (True,), (*default[:1], *entry)]


_DEFAULT_CONFIG = CampaignConfig(mode="permanent", seed=1)


@pytest.mark.parametrize("name, value", [
    (name, value) for _, _, name, _ in _CONFIG_FIELDS
    for value in _wrong_kinds(reduce(getattr, name.split("."), _DEFAULT_CONFIG))
])
def test_config_built_in_python_rejects_wrong_kinds_in_every_field(name, value):
    owner, _, attr = name.rpartition(".")
    if owner:
        # set past the nested dataclass's own checks, some of which reject
        # these values first with errors of their own
        nested = replace(getattr(_DEFAULT_CONFIG, owner))
        object.__setattr__(nested, attr, value)
        kwargs = {owner: nested}
    else:
        kwargs = {attr: value}
    with pytest.raises(ConfigError, match=re.escape(name)):
        CampaignConfig(**{"mode": "permanent", "seed": 1, **kwargs})


@pytest.mark.parametrize("kwargs, name", [
    ({"fixed_scene": "false"}, "fixed_scene"),
    ({"tracker": TrackerConfig(coasting="no")}, "tracker.coasting"),
    ({"category_policy": CategoryPolicy("clusters", ({1, 2},))}, "category_policy.clusters"),
    ({"scene_spec": None}, "scene_spec.width"),
    ({"tracker": (10, 15, 50, True)}, "tracker.m"),
])
def test_config_built_in_python_checks_nested_and_bool_fields(kwargs, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        CampaignConfig(seed=1, n_injections=6, **kwargs)


@pytest.mark.parametrize("build, kwargs, name", [
    (TrackerConfig, {"m": None}, "TrackerConfig.m"),
    (TrackerConfig, {"m": 2.5}, "TrackerConfig.m"),
    (TrackerConfig, {"n": True}, "TrackerConfig.n"),
    (TrackerConfig, {"vicinity_px": "5"}, "TrackerConfig.vicinity_px"),
    (SceneSpec, {"width": 48.0}, "SceneSpec.width"),
    (SceneSpec, {"height": np.float64(40)}, "SceneSpec.height"),
    (SceneSpec, {"object_count": 5}, "SceneSpec.object_count"),
    (SceneSpec, {"object_count": (1, 2, 3)}, "SceneSpec.object_count"),
    (SceneSpec, {"size_range": [10, 16.0]}, "SceneSpec.size_range"),
    (SceneSpec, {"size_range": (False, 16)}, "SceneSpec.size_range"),
    # a pair has an order, and an int subclass is not a JSON int
    (SceneSpec, {"object_count": frozenset({1, 3})}, "SceneSpec.object_count"),
    (TrackerConfig, {"m": IntEnum("Level", {"TWO": 2}).TWO}, "TrackerConfig.m"),
])
def test_nested_configs_name_the_field_of_a_wrong_kind(build, kwargs, name):
    # checked before any comparison, which would fail with a bare TypeError
    with pytest.raises(TypeError, match=re.escape(name)):
        build(**kwargs)


def test_nested_configs_accept_numpy_integers_and_arrays():
    assert TrackerConfig(m=np.int64(3), n=np.uint8(5), vicinity_px=np.int16(0)).n == 5
    assert SceneSpec(width=np.int32(48), object_count=np.array([1, 3]), size_range=[9, 14]).width == 48


def _numpy_configs():
    """Configs built in Python from numpy numbers, tuples and frozensets."""
    return {
        "top-level": CampaignConfig(
            seed=np.int64(1), n_injections=np.uint16(6), workers=np.int8(2),
            iou_threshold=np.float32(0.1), scene_pool=np.int32(3), fixed_scene=True,
            severity_levels=(np.float64(0.05), np.int64(0))),
        "nested": CampaignConfig(
            mode="permanent", seed=1, n_injections=np.int64(2), n_frames=np.int64(20),
            emit_masks=np.int64(1),
            scene_spec=SceneSpec(width=np.int64(48), height=np.int16(40),
                                 object_count=(np.int64(1), 3), size_range=[9, np.int64(14)]),
            tracker=TrackerConfig(m=np.int64(3), n=np.int64(5), vicinity_px=np.int64(20))),
        "clusters": CampaignConfig(
            mode="ingest", seed=2, severity_levels=np.array([0.25, 0.0], dtype=np.float32),
            category_policy=CategoryPolicy.from_clusters([[np.int64(3), 1], (np.int32(2),)])),
    }


@pytest.mark.parametrize("key", ["top-level", "nested", "clusters"])
def test_config_built_in_python_echo_reloads_to_an_equal_config(key):
    cfg = _numpy_configs()[key]
    echo = json.loads(json.dumps(cfg.echo()))
    assert CampaignConfig.from_json(echo) == replace(cfg, workers=1)
    assert echo == CampaignConfig.from_json(echo).echo()


def test_numpy_valued_permanent_config_writes_the_plain_config_report(tmp_path):
    cfg = _numpy_configs()["nested"]
    plain = CampaignConfig.from_json(cfg.echo())
    run_permanent(cfg, tmp_path / "numpy")
    run_permanent(plain, tmp_path / "plain")
    for name in ("report.json", "injections.csv", "occupancy_series.csv"):
        assert _read_bytes(tmp_path / "numpy" / name) == _read_bytes(tmp_path / "plain" / name)


def test_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({"mode": "transient"})  # no seed
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({"mode": "transient", "seed": 1, "n_injections": 0})
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({"mode": "bogus", "seed": 1})
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({"mode": "transient", "seed": 1, "target": "bias"})
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({"mode": "permanent", "seed": 1,
                                  "sequence": {"n_frames": 10}})  # shorter than tracker n


def test_config_rejects_the_pr_experiment_mode():
    # simulate-pr takes its own flags; no campaign config describes it
    with pytest.raises(ConfigError, match="unknown mode"):
        CampaignConfig.from_json({"mode": "simulate_pr", "seed": 1})


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"scene": None},
    {"sequence": None},
    {"category_policy": None},
    {"tracker": "x"},
])
def test_config_rejects_non_object_sections(doc):
    with pytest.raises(ConfigError, match="JSON object"):
        CampaignConfig.from_json(doc, seed=1)


@pytest.mark.parametrize("doc", [
    {"scene": {"pool": 0}},
    {"iou_threshold": "nan"},
    {"iou_threshold": 7},
    {"iou_threshold": 0},
    {"scene": {"fixed": "false"}},
    {"tracker": {"fp_coasting": "no"}},
    {"n_injections": 2.9},
    {"scene": {"width": 64.7}},
    {"seed": 1.5},
    {"workers": "2"},
    {"iou_threshold": True},
    {"severity_levels": "15"},
    {"emit_masks": -3},
    {"workers": MAX_WORKERS + 1},
    {"workers": 100000},
    {"seed": -1},
    {"scene": {"width": 0, "object_count": [0, 0]}},
    {"scene": {"width": -5}},
    {"iou_threshold": 10**400},
    {"severity_levels": [0.05, 10**400]},
    {"scene": {"object_count": [0, 10**20]}},
    {"scene": {"size_range": [8, 10**20]}},
    {"scene": {"object_count": [0, MAX_SCENE_SIDE ** 2 + 1]}},
    {"scene": {"size_range": [8, MAX_SCENE_SIDE + 1]}},
])
def test_config_rejects_out_of_range_values(doc):
    with pytest.raises(ConfigError):
        CampaignConfig.from_json({"seed": 1, **doc})


def test_override_does_not_hide_a_bad_document_value():
    with pytest.raises(ConfigError, match="'seed'"):
        CampaignConfig.from_json({"seed": True}, seed=1)
    with pytest.raises(ConfigError, match="'n_frames'"):
        CampaignConfig.from_json({"seed": 1, "sequence": {"n_frames": "60"}}, n_frames=20)
    assert CampaignConfig.from_json({"seed": 3}, seed=1).seed == 1


def test_scene_side_is_bounded_at_load():
    side = {"seed": 1, "scene": {"width": MAX_SCENE_SIDE, "height": MAX_SCENE_SIDE,
                                 "size_range": [8, MAX_SCENE_SIDE],
                                 "object_count": [0, MAX_SCENE_SIDE ** 2]}}
    assert CampaignConfig.from_json(side).scene_spec.width == MAX_SCENE_SIDE
    for scene in ({"width": 100000, "height": 100000}, {"width": MAX_SCENE_SIDE + 1},
                  {"height": MAX_SCENE_SIDE + 1}, {"size_range": [8, MAX_SCENE_SIDE + 1]},
                  {"object_count": [0, MAX_SCENE_SIDE ** 2 + 1]}):
        with pytest.raises(ConfigError, match="at most"):
            CampaignConfig.from_json({"seed": 1, "scene": scene})


@pytest.mark.parametrize("side, most", [(64, 37449), (1024, 146)])
def test_permanent_sequence_is_bounded_at_load(side, most):
    # a permanent work item of one injection holds 7 bool masks a pixel of
    # each frame (campaign._injections_per_chunk)
    doc = {"mode": "permanent", "seed": 1, "scene": {"width": side, "height": side}}
    assert CampaignConfig.from_json(doc, n_frames=most).n_frames == most
    with pytest.raises(ConfigError, match=f"n_frames must be at most {most} "):
        CampaignConfig.from_json(doc, n_frames=most + 1)
    # a transient or ingest campaign holds no sequence
    assert CampaignConfig.from_json(dict(doc, mode="transient"), n_frames=most + 1).n_frames == most + 1


def test_cli_permanent_refuses_a_long_sequence_before_its_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(campaign, "generate_sequence", lambda *args, **kwargs: pytest.fail(
        "a million 64x64 frames take 28 GB of masks"))
    out = tmp_path / "perm"
    assert cli.main(["permanent", "--seed", "1", "--n-injections", "1", "--n-frames", "1000000",
                     "--out", str(out)]) == 2
    assert "config error: n_frames must be at most" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, n_frames, most", [
    ("transient", 60, 1_048_576),  # 1 KiB an injection
    ("permanent", 60, 135_300),  # 4 KiB + 64 B a frame an injection
    ("permanent", 20, 199_728),
])
def test_campaign_size_is_bounded_at_load(mode, n_frames, most):
    # every injection's result is held until the report: 1 GiB of them at most
    doc = {"mode": mode, "seed": 1, "sequence": {"n_frames": n_frames}}
    assert CampaignConfig.from_json(doc, n_injections=most).n_injections == most
    with pytest.raises(ConfigError, match=f"n_injections must lie in 1..{most} "):
        CampaignConfig.from_json(doc, n_injections=most + 1)
    # an ingest campaign holds no injections
    assert CampaignConfig.from_json(dict(doc, mode="ingest"),
                                    n_injections=most + 1).n_injections == most + 1


@pytest.mark.parametrize("mode", ["transient", "permanent"])
def test_cli_refuses_a_huge_campaign_before_its_output(tmp_path, capsys, monkeypatch, mode):
    # fail before any work: an unbounded permanent campaign lists its chunks
    # ahead of its first frame, and a trillion injections' results do not fit
    monkeypatch.setattr(campaign, "_make_out_dir", lambda out_dir: pytest.fail(
        "a trillion injections got past the config"))
    out = tmp_path / mode
    assert cli.main([mode, "--seed", "1", "--n-injections", "1000000000000",
                     "--out", str(out)]) == 2
    assert "config error: n_injections must lie in 1.." in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("runner, doc", [
    (run_transient, {"mode": "transient", "scene": {"width": 20, "height": 20}}),
    (run_permanent, {"mode": "permanent", "scene": {"height": 12}}),
    (run_permanent, {"mode": "permanent", "scene": {"width": 16}}),
])
def test_unpackable_scene_is_config_error(tmp_path, runner, doc, workers):
    cfg = CampaignConfig.from_json(dict(doc, seed=1, n_injections=2, workers=workers))
    spec = cfg.scene_spec
    with pytest.raises(ConfigError, match="SceneSpec" if runner is run_transient
                       else f"a sequence of {spec.width}x{spec.height} frames"):
        runner(cfg, tmp_path)


@pytest.mark.parametrize("command, scene, message", [
    ("transient", {"width": 1, "height": 1, "object_count": [1, 1]},
     "cannot generate scenes for SceneSpec(width=1, height=1, object_count=(1, 1), "
     "size_range=(10, 16)): could not place (1, 1) objects of size (10, 16)"),
    # a sequence draws its own lanes: object_count and size_range do not apply
    ("permanent", {"width": 1, "height": 1, "object_count": [0, 0]},
     "cannot generate a sequence of 1x1 frames: sequence generation placed no objects"),
])
def test_cli_unpackable_scene_names_what_was_asked(tmp_path, capsys, monkeypatch, command,
                                                    scene, message):
    monkeypatch.setattr(campaign, "infer", lambda *args, **kwargs: pytest.fail(
        "the generator failed, so nothing is inferred"))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scene": scene}))
    assert cli.main([command, "--config", str(config), "--seed", "0", "--n-injections", "3",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


def _leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def test_config_echo_reproduces_campaign():
    cfg = CampaignConfig.from_json({
        "mode": "permanent", "seed": 7, "n_injections": 9, "target": "weight",
        "bit_policy": "exponent_only", "workers": 3, "iou_threshold": 0.35,
        "scene": {"width": 80, "height": 72, "object_count": [1, 3], "size_range": [9, 14],
                  "pool": 17, "fixed": True},
        "sequence": {"n_frames": 40},
        "tracker": {"m": 3, "n": 5, "vicinity_px": 20, "fp_coasting": False},
        "severity_levels": [0.2, 0.01],
        "category_policy": {"mode": "clusters", "clusters": [[3, 1], [2]]},
        "emit_masks": 4,
    })
    default = dict(_leaves(CampaignConfig(seed=0).echo()))
    assert all(default[key] != value for key, value in _leaves(cfg.echo()))
    assert cfg.workers != CampaignConfig(seed=0).workers
    assert CampaignConfig.from_json(cfg.echo()) == replace(cfg, workers=1)
    assert CampaignConfig.from_json(json.loads(json.dumps(cfg.echo()))) == replace(cfg, workers=1)


def test_transient_report_shape(tmp_path):
    cfg = CampaignConfig.from_json(TRANSIENT_BASE)
    report = run_transient(cfg, tmp_path)
    rates = report["rates"]
    assert rates["sdc"] + rates["due"] + rates["benign"] == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "injections.csv").exists()
    assert (tmp_path / "bit_averages.csv").exists()
    with open(tmp_path / "injections.csv") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + cfg.n_injections
    verdicts = {row[7] for row in rows[1:]}
    assert verdicts <= {"sdc", "due", "benign"}
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["rates"] == rates


def test_transient_determinism_across_runs_and_workers(tmp_path):
    out1, out2, out8 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_transient(CampaignConfig.from_json(TRANSIENT_BASE), out1)
    run_transient(CampaignConfig.from_json(TRANSIENT_BASE), out2)
    run_transient(CampaignConfig.from_json(dict(TRANSIENT_BASE, workers=2)), out8)
    for name in ("injections.csv", "bit_averages.csv", "report.json"):
        assert _read_bytes(out1 / name) == _read_bytes(out2 / name)
        assert _read_bytes(out1 / name) == _read_bytes(out8 / name)


def test_transient_mantissa_only_is_quiet(tmp_path):
    cfg = CampaignConfig.from_json(dict(TRANSIENT_BASE, bit_policy="mantissa_only",
                                        n_injections=120))
    report = run_transient(cfg, tmp_path)
    assert report["rates"]["sdc"] < 0.01
    assert report["rates"]["due"] == 0.0


def test_permanent_report_shape(tmp_path):
    cfg = CampaignConfig.from_json(PERMANENT_BASE)
    report = run_permanent(cfg, tmp_path)
    levels = [float(k) for k in report["fp_rates_at_level"]]
    assert levels == sorted(levels)
    for key, raw in report["fp_rates_at_level"].items():
        assert report["fp_rates_at_level_rescaled"][key] == raw * 0.25
    for key, raw in report["fn_rates_at_level"].items():
        assert report["fn_rates_at_level_rescaled"][key] == raw * 0.25
    with open(tmp_path / "injections.csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + cfg.n_injections
    assert (tmp_path / "occupancy_series.csv").exists()
    # every sampled bit is an exponent bit (stuck-at-1 acceleration)
    bit_column = rows[0].index("bit")
    assert all(23 <= int(row[bit_column]) <= 30 for row in rows[1:])


def test_permanent_severity_maps_antitone(tmp_path):
    cfg = CampaignConfig.from_json(dict(PERMANENT_BASE, n_injections=8))
    run_permanent(cfg, tmp_path)
    with open(tmp_path / "injections.csv") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    fp_cols = [i for i, name in enumerate(header) if name.startswith("fp_sdc_at_")]
    fn_cols = [i for i, name in enumerate(header) if name.startswith("fn_sdc_at_")]
    for row in rows[1:]:
        fp_flags = [int(row[i]) for i in fp_cols]
        fn_flags = [int(row[i]) for i in fn_cols]
        assert fp_flags == sorted(fp_flags, reverse=True)
        assert fn_flags == sorted(fn_flags, reverse=True)


def test_permanent_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_permanent(CampaignConfig.from_json(PERMANENT_BASE), out1)
    run_permanent(CampaignConfig.from_json(dict(PERMANENT_BASE, workers=2)), out2)
    for name in ("injections.csv", "occupancy_series.csv", "report.json"):
        assert _read_bytes(out1 / name) == _read_bytes(out2 / name)


def _campaign_files(out_dir):
    names = ("injections.csv", "bit_averages.csv", "report.json", "occupancy_series.csv")
    files = {p.name: _read_bytes(p) for p in sorted(out_dir.iterdir())
             if p.name in names or p.suffix == ".pgm"}
    assert "report.json" in files
    return files


@pytest.mark.parametrize("runner, cfg", [
    (run_transient, dict(TRANSIENT_BASE, n_injections=13, scene={"fixed": True})),
    (run_transient, dict(TRANSIENT_BASE, n_injections=23, target="weight")),
    (run_permanent, {"mode": "permanent", "seed": 20, "n_injections": 5, "emit_masks": 2,
                     "sequence": {"n_frames": 60}}),
    (run_permanent, {"mode": "permanent", "seed": 20, "n_injections": 33, "emit_masks": 2,
                     "sequence": {"n_frames": 20}}),
])
def test_outputs_identical_at_one_and_two_workers(tmp_path, runner, cfg):
    # transient work is split by scene, permanent work by injection chunk;
    # neither split may show in the outputs
    runner(CampaignConfig.from_json(cfg), tmp_path / "w1")
    runner(CampaignConfig.from_json(dict(cfg, workers=2)), tmp_path / "w2")
    one = _campaign_files(tmp_path / "w1")
    assert one == _campaign_files(tmp_path / "w2")
    if runner is run_permanent:
        assert any(name.endswith(".pgm") for name in one)  # seed 20 persists


def test_permanent_campaign_plays_its_sequence_once_at_one_worker(tmp_path, monkeypatch):
    # one chunk: the sequence is generated once and each frame's golden pass
    # runs once
    cfg = CampaignConfig(mode="permanent", seed=20, n_injections=40, n_frames=20)
    calls = Counter()
    monkeypatch.setattr(campaign, "infer", lambda model, scene, fault=None, golden=None: (
        calls.update(["faulty" if fault else "golden"]) or infer(model, scene, fault, golden)))
    monkeypatch.setattr(campaign, "generate_sequence", lambda *args, **kwargs: (
        calls.update(["sequence"]) or generate_sequence(*args, **kwargs)))
    run_permanent(cfg, tmp_path)
    assert (calls["golden"], calls["sequence"]) == (20, 1)


def test_permanent_outputs_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # a work item is a function of (config, model, item) and results are
    # reduced in injection order, so chunks of 3 write what one chunk writes,
    # PGMs of the first emit_masks persisting injections included
    cfg = CampaignConfig.from_json({"mode": "permanent", "seed": 20, "n_injections": 33,
                                    "emit_masks": 2, "sequence": {"n_frames": 20}})
    run_permanent(cfg, tmp_path / "one")
    monkeypatch.setattr(campaign, "_ITEM_MASK_BYTES", (5 + 2 * 3) * 20 * 64 * 64)
    assert [len(chunk) for chunk in _permanent_chunks(cfg)] == [3] * 11
    run_permanent(cfg, tmp_path / "threes")
    files = _campaign_files(tmp_path / "one")
    assert any(name.endswith(".pgm") for name in files)  # seed 20 persists
    assert _campaign_files(tmp_path / "threes") == files


def test_permanent_reuse_of_repeated_receptive_fields_changes_no_byte(tmp_path, monkeypatch):
    cfg = CampaignConfig.from_json({"mode": "permanent", "seed": 20, "n_injections": 5,
                                    "emit_masks": 2, "sequence": {"n_frames": 60}})
    calls = []
    monkeypatch.setattr(campaign, "infer", lambda *args, **kwargs: calls.append(1) or infer(*args, **kwargs))
    run_permanent(cfg, tmp_path / "reused")
    reused_calls = len(calls)
    monkeypatch.setattr(campaign, "receptive_field", lambda *args: None)
    run_permanent(cfg, tmp_path / "every")
    files = _campaign_files(tmp_path / "every")
    assert any(name.endswith(".pgm") for name in files)  # seed 20 persists
    assert _campaign_files(tmp_path / "reused") == files
    assert len(calls) - reused_calls == 60 * 6  # every pass ran
    assert reused_calls < 60 * 6


def test_permanent_memory_grows_only_with_changed_frames(tmp_path, monkeypatch):
    # 9 of seed 20's 10 injections never change a frame. Their FP and FN
    # blobs are one shared read-only mask, so an added frame costs its
    # golden raster and the changed injection's blobs, not 20 fresh masks
    # (about 113 KB per frame when every blob was its own array).
    blobs = []
    monkeypatch.setattr(campaign, "track", lambda masks, cfg: blobs.append(
        (sum(not mask.flags.writeable for mask in masks), len(masks))) or track(masks, cfg))

    def peak(n_frames):
        cfg = CampaignConfig(mode="permanent", seed=20, n_injections=10, n_frames=n_frames)
        blobs.clear()
        tracemalloc.start()
        try:
            run_permanent(cfg, tmp_path / str(n_frames))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(15)  # lazy imports and first-use caches, outside the measured runs
    short = peak(60)
    assert [sum(column) for column in zip(*blobs)] == [1080, 1200]
    assert (peak(150) - short) / 90 < 32 * 1024


def test_permanent_frames_are_made_as_they_are_played(tmp_path, monkeypatch):
    # the t-th golden pass runs when t frames have been made, and after the
    # previous frame and its golden trace were freed: no frame is made
    # ahead of the one being played, and none is held after it
    made, seen, previous = [], [], []

    def sequence(*args, **kwargs):
        return (made.append(weakref.ref(frame)) or frame
                for frame in generate_sequence(*args, **kwargs))

    def golden_pass(model, scene):
        seen.append((len(made), any(ref() is not None for ref in [*made[:-1], *previous])))
        previous[:] = [weakref.ref(trace := infer(model, scene))]
        return trace

    monkeypatch.setattr(campaign, "generate_sequence", sequence)
    monkeypatch.setattr(campaign, "infer", lambda model, scene, fault=None, golden=None: (
        infer(model, scene, fault, golden) if fault else golden_pass(model, scene)))
    run_permanent(CampaignConfig(mode="permanent", seed=20, n_injections=3, n_frames=60), tmp_path)
    assert seen == [(t, False) for t in range(1, 61)]


def test_permanent_memory_rule_holds_when_every_frame_changes(tmp_path, monkeypatch):
    # a stuck-at-1 on the exponent MSB of a zero scoring weight puts a near
    # image-sized ghost on every frame. Three such injections, all keeping
    # their FP tracker masks, are the rule's worst case for a chunk of 3.
    ghost = FaultDescriptor(FaultTarget.WEIGHT, 4, (2, 4, 1, 1), 30, FaultMode.STUCK_AT_1)
    monkeypatch.setattr(campaign, "sample_fault", lambda *args, **kwargs: ghost)
    shared = []
    monkeypatch.setattr(campaign, "track", lambda masks, cfg: shared.append(
        sum(not mask.flags.writeable for mask in masks)) or track(masks, cfg))

    def peak(n_frames):
        cfg = CampaignConfig(mode="permanent", seed=0, n_injections=3, emit_masks=3,
                             n_frames=n_frames)
        tracemalloc.start()
        try:
            run_permanent(cfg, tmp_path / str(n_frames))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(15)  # lazy imports and first-use caches, outside the measured runs
    short = peak(20)
    shared.clear()
    growth = (peak(60) - short) / 40
    assert shared == [0] * 6  # every frame changed: no blob is the shared empty mask
    assert len(list((tmp_path / "60").glob("*.pgm"))) == 3 * 60
    assert growth <= (campaign._ITEM_MASKS + 3 * campaign._INJECTION_MASKS) * 64 * 64


def _record_per_class():
    box = Box(1.0, 2.0, 20.0, 30.0)
    det = Detection(box, 2, 0.75)
    fault = FaultDescriptor(FaultTarget.WEIGHT, 3, (1, 0, 2, 2), 30, FaultMode.TRANSIENT_FLIP)
    report = SdcReport("sdc", 1, 0.5, 0.9, 0.8, 532.0, 400.0, 12.5, 3.0)
    return [
        box, det, fault, report,
        DetectionRecord("a", 64, 48, (det,), (Detection(box, 2),), nan_flag=True),
        ImageEval("a", (1, 0, 0), (1, 1, 0), inf_flag=True),
        MatchOutcome(1, 1, 0, ((0, 0, 1.0),)),
        PrCurve(((1.0, 1.0), (1.0, 0.5)), 2),
        ApResult({2: 1.0}, 1.0),
        campaign._Scored(7, 7, fault, 0, report, [det], [det], [], {"background": 1}),
    ]


@pytest.mark.parametrize("record", _record_per_class(), ids=lambda r: type(r).__name__)
def test_per_detection_records_are_slotted(record):
    # a record made per detection, image or injection holds no __dict__: a
    # Detection with its Box takes 120 bytes so, 200 with a __dict__ each
    # (its floats not counted)
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert replace(record) == record


@pytest.mark.parametrize("side, workers, sizes", [
    (64, 1, [100]),
    (64, 4, [25, 25, 25, 25]),
    (1024, 1, [6] * 16 + [4]),  # (5 + 2 x 6) x 60 x 1 MB of masks
    (1024, 64, [2] * 50),
])
def test_permanent_chunks_are_sized_by_mask_memory(side, workers, sizes):
    cfg = CampaignConfig(mode="permanent", seed=0, n_injections=100, workers=workers,
                         scene_spec=SceneSpec(width=side, height=side))
    chunks = _permanent_chunks(cfg)
    assert [len(chunk) for chunk in chunks] == sizes
    assert [i for chunk in chunks for i in chunk] == list(range(100))


def test_permanent_accepts_integer_severity_level_from_cli(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"severity_levels": [0.05, 0], "sequence": {"n_frames": 20},
                                    "n_injections": 2}))
    out = tmp_path / "out"
    result = _run_cli(["permanent", "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "report.json").read_text())
    assert list(report["fp_rates_at_level"]) == ["0.0", "0.05"]

    cfg_path.write_text(json.dumps({"severity_levels": []}))
    result = _run_cli(["permanent", "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    assert result.returncode == 2
    assert "config error" in result.stderr


@pytest.mark.parametrize("size", [48, 96])
def test_transient_neuron_campaign_on_non_default_scene_size(tmp_path, size):
    cfg = CampaignConfig.from_json(dict(TRANSIENT_BASE, n_injections=60,
                                        scene={"pool": 4, "width": size, "height": size}))
    run_transient(cfg, tmp_path)
    with open(tmp_path / "injections.csv") as handle:
        rows = list(csv.DictReader(handle))
    coords = [tuple(int(c) for c in row["coords"].split(";")) for row in rows]
    assert max(max(c[1], c[2]) for c in coords) >= min(size, 64) - 8
    assert all(c[1] < size and c[2] < size for c in coords)
    if size > 64:
        assert any(c[1] >= 64 or c[2] >= 64 for c in coords)


def _make_record_files(tmp_path, mutate=None):
    model = reference_model()
    records = []
    for seed in range(6):
        scene = generate_scene(SceneSpec(), seed=seed)
        records.append(record_from_trace(f"img{seed}", scene, infer(model, scene)))
    orig_path = tmp_path / "orig.ndjson"
    corr_path = tmp_path / "corr.ndjson"
    write_records(records, orig_path)
    corr = mutate(records) if mutate else records
    write_records(corr, corr_path)
    return orig_path, corr_path


def _ingest_cfg():
    return CampaignConfig.from_json({"mode": "ingest", "seed": 1})


def test_ingest_identical_files_scores_zero(tmp_path):
    orig_path, corr_path = _make_record_files(tmp_path)
    report = ingest_and_score(orig_path, corr_path, _ingest_cfg(), tmp_path / "out")
    assert report["rates"]["sdc"] == 0.0
    assert report["rates"]["due"] == 0.0
    assert report["ap"]["delta"]["ap50"] == 0.0


def test_ingest_inf_flag_makes_due(tmp_path):
    def mutate(records):
        out = list(records)
        out[0] = DetectionRecord(
            image_id=out[0].image_id, width=out[0].width, height=out[0].height,
            detections=out[0].detections, ground_truth=out[0].ground_truth,
            nan_flag=False, inf_flag=True)
        return out

    orig_path, corr_path = _make_record_files(tmp_path, mutate)
    report = ingest_and_score(orig_path, corr_path, _ingest_cfg(), tmp_path / "out")
    assert report["rates"]["due"] == pytest.approx(1 / 6)
    assert report["rates"]["sdc"] == 0.0


def test_ingest_added_fp_is_sdc_with_positive_delta(tmp_path):
    def mutate(records):
        out = list(records)
        first = out[0]
        ghost = Detection(Box(1, 1, 9, 9), 0, 0.99)
        out[0] = DetectionRecord(
            image_id=first.image_id, width=first.width, height=first.height,
            detections=first.detections + (ghost,), ground_truth=first.ground_truth)
        return out

    orig_path, corr_path = _make_record_files(tmp_path, mutate)
    out_dir = tmp_path / "out"
    report = ingest_and_score(orig_path, corr_path, _ingest_cfg(), out_dir)
    assert report["rates"]["sdc"] == pytest.approx(1 / 6)
    with open(out_dir / "images.csv") as handle:
        rows = {row[6]: row for row in list(csv.reader(handle))[1:]}
    assert rows["img0"][7] == "sdc"
    assert int(rows["img0"][8]) > 0


def test_transient_scored_images_keep_the_detection_tuples():
    cfg = CampaignConfig.from_json(dict(TRANSIENT_BASE, bit_policy="mantissa_only"))
    model = reference_model()
    scored = campaign._transient_scene(cfg, model, shape_catalog(model, 64, 64), 0)
    assert all(type(s.gts) is type(s.orig) is type(s.corr) is tuple for s in scored)
    # a fault that leaves the output alone hands back the golden pass's own tuple
    assert any(s.corr is s.orig for s in scored if s.report.verdict == "benign")


def test_ingest_scored_images_keep_the_record_tuples(tmp_path, monkeypatch):
    def mutate(records):
        first = records[0]
        ghost = Detection(Box(1, 1, 9, 9), 0, 0.99)
        return [replace(first, detections=first.detections + (ghost,)), *records[1:]]

    seen = []
    summary = campaign._summary
    monkeypatch.setattr(campaign, "_summary",
                        lambda scored, *args: seen.extend(scored) or summary(scored, *args))
    orig_path, corr_path = _make_record_files(tmp_path, mutate)
    ingest_and_score(orig_path, corr_path, _ingest_cfg(), tmp_path / "out")
    assert all(type(s.gts) is tuple for s in seen)
    by_id = {s.image_id: s for s in seen}
    assert by_id["img0"].corr is not by_id["img0"].orig
    # the line is the same in both files, so both are one record's tuple
    assert by_id["img1"].corr is by_id["img1"].orig


def test_ingest_mismatched_ids_listed(tmp_path):
    orig_path, corr_path = _make_record_files(tmp_path)
    lines = corr_path.read_text().splitlines()
    corr_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError, match="img5"):
        ingest_and_score(orig_path, corr_path, _ingest_cfg(), tmp_path / "out")


@pytest.mark.parametrize("corr_changes, message", [
    ({"width": 65}, "image 'a': dimensions differ between files"),
    ({"ground_truth": ({"bbox": [40, 40, 60, 60], "category": 0},)},
     "image 'a': ground truth differs between files"),
])
def test_cli_ingest_refuses_pairs_that_disagree_on_the_image(tmp_path, capsys, corr_changes,
                                                             message):
    # both files describe one image: its size and its ground truth must agree
    orig = {"image_id": "a", "width": 64, "height": 64,
            "detections": [{"bbox": [2, 2, 20, 20], "category": 0, "confidence": 0.9}],
            "ground_truth": [{"bbox": [2, 2, 20, 20], "category": 0}]}
    paths = []
    for name, record in (("orig", orig), ("corr", {**orig, **corr_changes})):
        paths.append(tmp_path / f"{name}.ndjson")
        paths[-1].write_text(json.dumps(record) + "\n")
    assert cli.main(["ingest", "--orig", str(paths[0]), "--corr", str(paths[1]),
                     "--seed", "1", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_simulate_pr_outputs(tmp_path):
    report = simulate_pr(seed=7, out_dir=tmp_path)
    assert set(report["variants"]) == {"baseline", "low_conf_fp_flood",
                                       "high_conf_fp_few", "tp_loss"}
    base = report["variants"]["baseline"]["ap50"]
    assert abs(report["variants"]["low_conf_fp_flood"]["ap50"] - base) < 0.02
    assert base - report["variants"]["high_conf_fp_few"]["ap50"] > 0.2
    assert report["variants"]["tp_loss"]["ap50"] < base
    assert (tmp_path / "pr_curves.csv").exists()
    assert (tmp_path / "pr_summary.csv").exists()


def test_write_pgm(tmp_path):
    import numpy as np

    mask = np.zeros((4, 6), dtype=bool)
    mask[1, 2] = True
    path = tmp_path / "m.pgm"
    write_pgm(mask, path)
    data = _read_bytes(path)
    assert data.startswith(b"P5\n6 4\n255\n")
    assert data[-24:].count(255) == 1


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "odfault.cli", *args],
        capture_output=True, text=True)


def test_cli_transient_and_exit_codes(tmp_path):
    out = tmp_path / "run"
    result = _run_cli(["transient", "--seed", "3", "--n-injections", "10", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    assert (out / "report.json").exists()

    # missing --seed is an argparse error (exit 2)
    result = _run_cli(["transient", "--out", str(tmp_path / "x")])
    assert result.returncode == 2

    # invalid config value -> exit 2
    result = _run_cli(["transient", "--seed", "1", "--n-injections", "0",
                       "--out", str(tmp_path / "y")])
    assert result.returncode == 2


@pytest.mark.parametrize("command, doc", [
    (["transient"], {"tracker": "x"}),
    (["permanent", "--n-frames", "20"], [1, 2]),
    (["permanent", "--n-frames", "20"], {"sequence": None}),
    (["transient", "--workers", "2"], {"scene": {"width": 20, "height": 20}}),
    (["transient"], {"scene": {"fixed": "false"}}),
    (["permanent"], {"seed": True}),
    (["transient"], {"scene": {"width": 100000, "height": 100000}}),
    # rejected while the config loads, before any worker process starts
    pytest.param(["transient", "--workers", "100000"], {}, id="too-many-workers"),
    pytest.param(["transient"], b'{"seed": 1, "mode": "\xfftransient"}', id="not-utf8"),
    pytest.param(["permanent", "--n-frames", "20"], b"[" * 100000, id="nested-too-deep"),
    # integers beyond float range, in a float field and in a float array
    pytest.param(["transient"], {"iou_threshold": 10**400}, id="float-overflow"),
    pytest.param(["permanent", "--n-frames", "20"], {"severity_levels": [0, 10**400]},
                 id="level-overflow"),
])
def test_cli_malformed_config_exit_code(tmp_path, command, doc):
    """``doc`` is a JSON document, or the raw bytes of the config file."""
    cfg_path = tmp_path / "cfg.json"
    if isinstance(doc, bytes):
        cfg_path.write_bytes(doc)
    else:
        cfg_path.write_text(json.dumps(doc))
    result = _run_cli([*command, "--config", str(cfg_path), "--seed", "1",
                       "--n-injections", "2", "--out", str(tmp_path / "out")])
    assert result.returncode == 2
    assert "config error" in result.stderr and "Traceback" not in result.stderr


def test_cli_ingest_data_error_exit_code(tmp_path):
    orig_path, corr_path = _make_record_files(tmp_path)
    corr_path.write_text("{broken\n")
    result = _run_cli(["ingest", "--orig", str(orig_path), "--corr", str(corr_path),
                       "--seed", "1", "--out", str(tmp_path / "out")])
    assert result.returncode == 3
    assert "data error" in result.stderr


def test_cli_simulate_pr(tmp_path):
    out = tmp_path / "pr"
    result = _run_cli(["simulate-pr", "--seed", "11", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    assert (out / "pr_summary.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--p-tp", "2"],
    ["--fp-rate", "nan"],
    ["--conf-lo", "0.9", "--conf-hi", "0.1"],
    ["--conf-lo", "nan"],
    ["--conf-hi", "inf"],
    ["--objects", "-5"],
    ["--objects", "1000000000000"],  # 7.28 TiB of draws
    ["--seed", "-1"],
])
def test_cli_simulate_pr_rejects_bad_generator_flags(tmp_path, capsys, flags):
    out = tmp_path / "pr"
    assert cli.main(["simulate-pr", "--seed", "11", "--out", str(out), *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_pr_rejects_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    result = _run_cli(["simulate-pr", "--config", str(cfg_path), "--seed", "11",
                       "--out", str(tmp_path / "pr")])
    assert result.returncode == 2
    assert "--config" in result.stderr
    assert not (tmp_path / "pr").exists()


def test_cli_ingest_missing_bbox_exit_code(tmp_path):
    orig_path, corr_path = _make_record_files(tmp_path)
    lines = corr_path.read_text().splitlines()
    record = json.loads(lines[2])
    del record["detections"][0]["bbox"]
    lines[2] = json.dumps(record)
    corr_path.write_text("\n".join(lines) + "\n")
    result = _run_cli(["ingest", "--orig", str(orig_path), "--corr", str(corr_path),
                       "--seed", "1", "--out", str(tmp_path / "out")])
    assert result.returncode == 3
    assert ":3 detection 0" in result.stderr and "'bbox'" in result.stderr


@pytest.mark.parametrize("field, value", [
    ("flags", "x"),
    ("image_id", ["a"]),
    ("flags", {"nan": "yes"}),
    ("width", 64.9),
    ("height", True),
    pytest.param(None, b'{"image_id": "\xffimg2", "width": 64}', id="not-utf8"),
    pytest.param(None, b"[" * 100000, id="nested-too-deep"),
    # an ASCII JSON escape that no output file can encode
    pytest.param("image_id", "\ud800x", id="image_id-lone-surrogate"),
])
def test_cli_ingest_malformed_record_exit_code(tmp_path, field, value):
    """Line 3 of both files gets ``value`` in ``field``, or is the raw bytes
    ``value``, so the image ids still match."""
    orig_path, corr_path = _make_record_files(tmp_path)
    for path in (orig_path, corr_path):
        lines = path.read_bytes().splitlines()
        if field is None:
            lines[2] = value
        else:
            record = json.loads(lines[2])
            record[field] = value
            lines[2] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
    result = _run_cli(["ingest", "--orig", str(orig_path), "--corr", str(corr_path),
                       "--seed", "1", "--out", str(tmp_path / "out")])
    assert result.returncode == 3, result.stderr
    named = f"{orig_path}:3: '{field}'" if field else f"{orig_path}:3: "
    assert named in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [
    ["transient", "--n-injections", "2"],
    ["permanent", "--n-injections", "1", "--n-frames", "20"],
    # record files that do not exist: the output path is checked first
    ["ingest", "--orig", "no-such-orig.ndjson", "--corr", "no-such-corr.ndjson"],
    ["simulate-pr"],
], ids=itemgetter(0))
@pytest.mark.parametrize("below_file", [False, True], ids=["file", "below-file"])
def test_cli_unusable_out_exit_code(tmp_path, capsys, command, below_file):
    """``--out`` naming a file, or a path below one, is a config error."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "out" if below_file else taken
    assert cli.main([*command, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(str(out)) in err


def test_cli_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_injections": 5, "scene": {"pool": 5}}))
    out = tmp_path / "out"
    result = _run_cli(["transient", "--config", str(cfg_path), "--seed", "2",
                       "--n-injections", "8", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["n_injections"] == 8
    assert report["config"]["seed"] == 2


@pytest.mark.parametrize("scene, key", [
    ({"object_count": [0, 10**20]}, "object_count"),
    ({"size_range": [8, 10**20]}, "size_range"),
])
def test_cli_refuses_scene_bounds_before_making_output(tmp_path, capsys, scene, key):
    # past int64, so numpy could not even draw from the range
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": scene}))
    out = tmp_path / "out"
    assert cli.main(["transient", "--seed", "1", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err and not out.exists()


def test_tracker_vicinity_past_int64_matches_one_past_the_scene(tmp_path):
    # any radius of at least the larger scene side spans every axis
    for vicinity in (10**6, 10**20):
        run_permanent(CampaignConfig.from_json(
            {"mode": "permanent", "seed": 20, "n_injections": 3, "emit_masks": 3,
             "tracker": {"vicinity_px": vicinity}}), tmp_path / str(vicinity))
    names = sorted(path.name for path in (tmp_path / str(10**6)).iterdir())
    assert any(name.endswith(".pgm") for name in names)
    assert names == sorted(path.name for path in (tmp_path / str(10**20)).iterdir())
    for name in names:
        if name != "report.json":  # which echoes the vicinity
            assert (_read_bytes(tmp_path / str(10**6) / name)
                    == _read_bytes(tmp_path / str(10**20) / name)), name
