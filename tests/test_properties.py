"""Property tests: the config echo round trip, assignment invariances,
resumed inference against the dense every-tap reference, AP against the
per-threshold greedy reference, mutated record files at the CLI, the
in-house assignment solver, component labeller and tracker dilation
against scipy, and byte-identical outputs at one and two workers."""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ap_reference  # noqa: E402
from dense_reference import dense_infer  # noqa: E402
from odfault import ap, cli  # noqa: E402
from odfault.bits import FaultDescriptor, FaultMode, FaultTarget  # noqa: E402
from odfault.campaign import CampaignConfig, run_permanent, run_transient  # noqa: E402
from odfault.detector import (  # noqa: E402
    SceneSpec, _components, generate_scene, infer, reference_model, shape_catalog)
from odfault.geometry import Box, Detection, iou  # noqa: E402
from odfault.matching import (  # noqa: E402
    CategoryPolicy, _canonicalize_ties, _solve_lsap, assign, build_cost_matrix)
from odfault.persistence import _dilate  # noqa: E402


def _ordered_pair(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(0, hi - lo)).map(
        lambda t: [t[0], t[0] + t[1]])


@st.composite
def _category_policies(draw):
    mode = draw(st.sampled_from(["strict", "clusters", "none"]))
    if mode != "clusters":
        return {"mode": mode}
    labelled = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)),
                             unique_by=lambda t: t[0], max_size=8))
    groups: dict[int, list[int]] = {}
    for label, group in labelled:
        groups.setdefault(group, []).append(label)
    return {"mode": mode, "clusters": list(groups.values())}


@st.composite
def _config_docs(draw):
    m = draw(st.integers(1, 20))
    n = draw(st.integers(m, 30))
    mode = draw(st.sampled_from(["transient", "permanent", "ingest"]))
    return {
        "mode": mode,
        "seed": draw(st.integers(0, 2**63)),
        "n_injections": draw(st.integers(1, 10**6)),
        "target": draw(st.sampled_from(["neuron", "weight"])),
        "bit_policy": draw(st.sampled_from(["all_32", "exponent_only", "mantissa_only"])),
        "workers": draw(st.integers(1, 64)),
        "iou_threshold": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "scene": {
            "width": draw(st.integers(32, 128)),
            "height": draw(st.integers(32, 128)),
            "object_count": draw(_ordered_pair(0, 6)),
            "size_range": draw(_ordered_pair(8, 24)),
            "pool": draw(st.integers(1, 1000)),
            "fixed": draw(st.booleans()),
        },
        "sequence": {"n_frames": draw(st.integers(n, 200))},
        "tracker": {"m": m, "n": n, "vicinity_px": draw(st.integers(0, 200)),
                    "fp_coasting": draw(st.booleans())},
        "severity_levels": draw(st.lists(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6)),
        "category_policy": draw(_category_policies()),
        "emit_masks": draw(st.integers(0, 10)),
    }


@settings(max_examples=200, deadline=None)
@given(_config_docs())
def test_echo_round_trips_every_valid_config(doc):
    cfg = CampaignConfig.from_json(doc)
    echoed = json.loads(json.dumps(cfg.echo()))
    assert CampaignConfig.from_json(echoed) == replace(cfg, workers=1)
    assert CampaignConfig.from_json(echoed).echo() == cfg.echo()


_coord = st.floats(0.0, 40.0, allow_nan=False)
_detections = st.lists(
    st.builds(Detection, st.builds(Box, _coord, _coord, _coord, _coord),
              st.integers(0, 2), st.floats(0.0, 1.0)),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(preds=_detections, gts=_detections, exponent=st.integers(0, 12),
       iou_threshold=st.floats(0.05, 1.0),
       policy=st.sampled_from([CategoryPolicy.strict(), CategoryPolicy.none(),
                               CategoryPolicy.from_clusters([{0, 1}])]))
def test_assign_ignores_confidence_rescaling(preds, gts, exponent, iou_threshold, policy):
    # a power-of-two factor rescales exactly, so the confidence order is kept
    scale = 2.0 ** -exponent
    rescaled = [replace(p, confidence=p.confidence * scale) for p in preds]
    assert assign(rescaled, gts, iou_threshold, policy) == assign(preds, gts, iou_threshold, policy)


@st.composite
def _tie_heavy_matrices(draw):
    """Cost matrices as ``assign`` builds them, wide, tall, 1xN or Nx1, with
    few distinct values so that equal-cost optima abound."""
    long_side = draw(st.integers(1, 8))
    short_side = draw(st.integers(1, long_side))
    rows, cols = draw(st.sampled_from([(short_side, long_side), (long_side, short_side),
                                       (1, long_side), (long_side, 1)]))
    sentinel = float(rows) + 1.0
    cell = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0 - 0.6, 1.0 - 0.7, sentinel]),
                     st.just(sentinel), st.floats(0.0, 0.5))
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_matrices())
def test_assignment_solver_matches_scipy(matrix):
    rows, cols = linear_sum_assignment(matrix)
    expected = _canonicalize_ties(matrix, sorted(zip(rows.tolist(), cols.tolist())))
    assert _canonicalize_ties(matrix, sorted(_solve_lsap(matrix))) == expected


@settings(max_examples=200, deadline=None)
@given(preds=_detections, gts=_detections, iou_threshold=st.floats(0.05, 1.0),
       policy=st.sampled_from([CategoryPolicy.strict(), CategoryPolicy.none()]))
def test_assign_matches_scipy_assignment(preds, gts, iou_threshold, policy):
    # covers the shortcut taken when no row or column has two real costs
    hypothesis.assume(preds and gts)
    matrix = build_cost_matrix(preds, gts, iou_threshold, policy)
    rows, cols = linear_sum_assignment(matrix)
    sentinel = float(len(preds)) + 1.0
    pairs = tuple((r, c, iou(preds[r].box, gts[c].box)) for r, c in _canonicalize_ties(
        matrix, sorted(zip(rows.tolist(), cols.tolist()))) if matrix[r][c] < sentinel)
    assert assign(preds, gts, iou_threshold, policy).pairs == pairs


@st.composite
def _masks(draw):
    """Bool masks of any side up to 70: empty, full, checkerboard, one row,
    one column, or random at a drawn density."""
    height, width = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["empty", "full", "checkerboard", "row", "column", "random"]))
    if kind == "row":
        height = 1
    elif kind == "column":
        width = 1
    if kind == "empty":
        return np.zeros((height, width), dtype=bool)
    if kind == "full":
        return np.ones((height, width), dtype=bool)
    if kind == "checkerboard":
        return np.indices((height, width)).sum(axis=0) % 2 == draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((height, width)) < draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(_masks())
def test_component_labeller_matches_ndimage(mask):
    labels, _ = ndimage.label(mask)
    areas = np.bincount(labels.ravel())
    expected = [(int(areas[k]), rows.start, cols.start, rows.stop, cols.stop)
                for k, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1)]
    assert _components(mask) == expected


@settings(max_examples=300, deadline=None)
@given(mask=_masks(), radius=st.integers(0, 60), sparse=st.booleans())
def test_dilation_matches_maximum_filter(mask, radius, sparse):
    if sparse:  # keep a few set pixels so the window edges show
        mask = mask & (np.indices(mask.shape).sum(axis=0) % 17 == 0)
    expected = ndimage.maximum_filter(mask, size=2 * radius + 1, mode="constant", cval=False)
    dilated = _dilate(mask, radius)
    assert dilated.dtype == bool
    assert np.array_equal(dilated, expected)


@st.composite
def _small_campaigns(draw):
    """A runner and a small transient or permanent config document for it."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, 8))
    doc = {
        "seed": draw(st.integers(0, 2**32)),
        "n_injections": draw(st.integers(1, 6)),
        "target": draw(st.sampled_from(["neuron", "weight"])),
        "scene": {"pool": draw(st.integers(1, 4)), "fixed": draw(st.booleans())},
    }
    if draw(st.booleans()):
        return run_transient, dict(doc, mode="transient", bit_policy=draw(
            st.sampled_from(["all_32", "exponent_only", "mantissa_only"])))
    return run_permanent, dict(
        doc, mode="permanent", emit_masks=draw(st.integers(0, 2)),
        sequence={"n_frames": draw(st.integers(n, 16))},
        tracker={"m": m, "n": n, "vicinity_px": draw(st.integers(0, 60))})


def _written_files(out_dir):
    return {name: pathlib.Path(out_dir, name).read_bytes() for name in sorted(os.listdir(out_dir))}


@settings(max_examples=6, deadline=None)
@given(_small_campaigns())
def test_outputs_identical_at_one_and_two_workers(campaign):
    runner, doc = campaign
    with tempfile.TemporaryDirectory() as tmp:
        one, two = os.path.join(tmp, "w1"), os.path.join(tmp, "w2")
        runner(CampaignConfig.from_json(doc), one)
        runner(CampaignConfig.from_json(dict(doc, workers=2)), two)
        assert _written_files(one) == _written_files(two)


MODEL = reference_model()


@st.composite
def _faulty_scenes(draw):
    width, height = draw(st.integers(32, 128)), draw(st.integers(32, 128))
    try:
        scene = generate_scene(SceneSpec(width=width, height=height, object_count=(1, 2)),
                               draw(st.integers(0, 2**32 - 1)))
    except RuntimeError:  # the objects did not fit
        hypothesis.assume(False)
    target = draw(st.sampled_from(list(FaultTarget)))
    layer = draw(st.integers(0, len(MODEL.layers) - 1))
    shape = shape_catalog(MODEL, height, width).shapes_for(target)[layer]
    coords = tuple(draw(st.integers(0, extent - 1)) for extent in shape)
    fault = FaultDescriptor(target, layer, coords, draw(st.integers(0, 31)),
                            draw(st.sampled_from(list(FaultMode))))
    return scene, fault


@settings(max_examples=60, deadline=None)
@given(_faulty_scenes())
def test_resumed_inference_matches_dense_reference(case):
    scene, fault = case
    golden = infer(MODEL, scene, keep_activations=True)
    resumed = infer(MODEL, scene, fault=fault, golden=golden)
    reference = dense_infer(MODEL, scene, fault)
    assert resumed.detections == reference.detections
    assert (resumed.nan_seen, resumed.inf_seen) == (reference.nan_seen, reference.inf_seen)
    assert resumed.layer_flags == reference.layer_flags


# Integer-grid corners make IoUs land exactly on thresholds (a 4x4 gt and a
# 2x4 or 3x4 prediction give 0.5 and 0.75), and the coarse grid makes a box
# overlap two others equally; the rest cover float, negative, huge and
# non-finite coordinates. Half of the boxes are non-empty grid boxes, so most
# corpora hold matches in more than one image.
_grid = st.integers(0, 12)
_ap_coord = st.one_of(_grid, st.sampled_from([0, 5, 10]), _grid.map(float),
                      st.floats(-4.0, 16.0), st.sampled_from([2**25 + 1, 2.0**40, math.inf]))
_ap_boxes = st.one_of(
    st.builds(Box, _ap_coord, _ap_coord, _ap_coord, _ap_coord),
    st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), _grid, _grid,
              st.integers(1, 6), st.integers(1, 6)))
_confidences = st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
_image_ids = st.sampled_from([0, 1, "1", 2, "a", "b", 10, "10"])
_ap_gts = st.lists(st.builds(Detection, _ap_boxes, st.integers(0, 2)), max_size=8)
# a prediction's box is a fresh one or, by index, a copy of a ground truth or
# of an earlier box in its image
_ap_preds = st.one_of(*[st.lists(st.tuples(st.one_of(st.integers(0, 15), _ap_boxes),
                                           st.integers(0, 3), _confidences),
                                 min_size=n // 2, max_size=n) for n in (0, 3, 12, 40)])


@st.composite
def _ap_corpora(draw):
    """(preds_by_image, gts_by_image): ground truth in categories 0-2,
    predictions in 0-3, some images with ground truth only or predictions
    only, duplicate boxes, and images with up to 40 predictions."""
    gts_by_image, preds_by_image = {}, {}
    for image_id in draw(st.lists(_image_ids, unique=True, max_size=5)):
        gts = draw(_ap_gts)
        pool = [g.box for g in gts]
        preds = []
        for box, category, confidence in draw(_ap_preds):
            if isinstance(box, int):
                box = pool[box % len(pool)] if pool else Box(0, 0, 10, 10)
            pool.append(box)
            preds.append(Detection(box, category, confidence))
        where = draw(st.sampled_from(["both", "gts", "preds"]))
        if where != "preds":
            gts_by_image[image_id] = gts
        if where != "gts":
            preds_by_image[image_id] = preds
    return preds_by_image, gts_by_image


_threshold_lists = st.tuples(
    st.lists(st.one_of(st.sampled_from([0.5, 0.75, 0.55, 0.95]),
                       st.floats(0.0, 1.0)), max_size=4),
    st.randoms(use_true_random=False),
).map(lambda t: t[1].sample([0.0, 0.3, 1.0] + t[0], 3 + len(t[0])))


@settings(max_examples=60, deadline=None)
@given(corpus=_ap_corpora(), thresholds=_threshold_lists,
       interpolation=st.sampled_from(["101", "area"]))
def test_ap_matches_per_threshold_reference(corpus, thresholds, interpolation):
    preds, gts = corpus
    assert repr(ap.mean_average_precision(preds, gts, thresholds, interpolation)) == repr(
        ap_reference.mean_average_precision(preds, gts, thresholds, interpolation))
    sweep = ap._sweep(preds, gts, tuple(thresholds), interpolation)
    for threshold, result in zip(thresholds, sweep, strict=True):
        expected = repr(ap_reference.average_precision(preds, gts, threshold, interpolation))
        assert repr(result) == expected
        assert repr(ap.average_precision(preds, gts, threshold, interpolation)) == expected
        assert repr(ap.pr_curves(preds, gts, threshold)) == repr(
            ap_reference.pr_curves(preds, gts, threshold))


def _valid_record(image_id, n_dets):
    return {
        "image_id": image_id, "width": 64, "height": 48,
        "detections": [{"bbox": [1.0 + k, 2.0, 20.0 + k, 30.0], "category": k % 3,
                        "confidence": 0.5 + 0.1 * k} for k in range(n_dets)],
        "ground_truth": [{"bbox": [2.0, 2.0, 21.0, 29.0], "category": 0}],
        "flags": {"nan": False, "inf": False},
    }


_odd_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.integers(2**53, 2**70), st.just(10**400),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -1.0, 1e300]),
    st.text(max_size=3), st.just([]), st.just([1, [2.0]]), st.just({"a": 1}),
    st.lists(st.floats(allow_nan=True), max_size=5))


@st.composite
def _mutated_record_lines(draw):
    """One valid record turned into a faulty line: a dropped field, a value of
    another type, a NaN, +-1e400, a nested list, a cut or a non-object."""
    record = _valid_record(draw(st.sampled_from(["img1", 1])), draw(st.integers(0, 3)))
    paths = [(key,) for key in record] + [("flags", "nan"), ("flags", "inf")]
    for section in ("detections", "ground_truth"):
        for k, item in enumerate(record[section]):
            paths += [(section, k, key) for key in item]
            paths += [(section, k, "bbox", i) for i in range(4)]
    path = draw(st.sampled_from(paths))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    mutation = draw(st.sampled_from(["drop", "swap", "nan", "big", "nest", "cut", "scalar"]))
    if mutation == "drop":
        if isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    elif mutation == "swap":
        parent[path[-1]] = draw(_odd_values)
    elif mutation == "nest":
        parent[path[-1]] = [parent[path[-1]]]
    elif mutation in ("nan", "big"):
        parent[path[-1]] = "@SPECIAL@"
    line = json.dumps(record)
    if mutation == "nan":
        line = line.replace('"@SPECIAL@"', "NaN")
    elif mutation == "big":
        line = line.replace('"@SPECIAL@"', draw(st.sampled_from(["1e400", "-1e400"])))
    elif mutation == "cut":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif mutation == "scalar":
        line = draw(st.sampled_from(["[]", "7", '"x"', "null", "[{}]"]))
    return line


@settings(max_examples=120, deadline=None)
@given(line=_mutated_record_lines(), in_corr=st.booleans())
def test_cli_ingest_survives_mutated_records(line, in_corr):
    good = json.dumps(_valid_record("img0", 2))
    clean = [good, json.dumps(_valid_record("img1", 1))]
    mutated = [good, line]
    with tempfile.TemporaryDirectory() as tmp:
        orig, corr = os.path.join(tmp, "orig.ndjson"), os.path.join(tmp, "corr.ndjson")
        for path, lines in ((orig, clean if in_corr else mutated),
                            (corr, mutated if in_corr else clean)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        code = cli.main(["ingest", "--orig", orig, "--corr", corr, "--seed", "1",
                         "--out", os.path.join(tmp, "out")])
    assert code in (0, 3)
