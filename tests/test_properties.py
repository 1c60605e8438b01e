"""Property tests: the config echo round trip, assignment invariances,
IoU, NMS and the FP-type breakdown against the per-pair bodies they
replaced, IoU symmetry, resumed inference (on the
reference model and on small random models) and the sparse convolution
against the dense every-tap reference, AP against the
per-threshold greedy reference, mutated record files at the CLI, record
parsing against the ``isinstance`` reference, image scoring against
``assign`` and ``severity`` called directly, the in-house assignment
solver, component labeller and tracker dilation against scipy,
byte-identical outputs at one and two workers, and the in-house random
stream and the samplers that draw from it against numpy's."""

from __future__ import annotations

import json
import math
import os
import pathlib
import struct
import tempfile
from dataclasses import fields, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ap_reference  # noqa: E402
import records_reference  # noqa: E402
from rng_reference import SPANS, NumpyStream  # noqa: E402
from dense_reference import dense_conv, dense_infer, same_but_nan_payload  # noqa: E402
from odfault import ap, bits, cli, detector  # noqa: E402
from odfault._rng import Seed, Stream  # noqa: E402
from odfault.bits import BIT_POLICIES, FaultDescriptor, FaultMode, FaultTarget, sample_fault  # noqa: E402
from odfault.campaign import (  # noqa: E402
    CampaignConfig, _derive_seed, _score, run_permanent, run_transient)
from odfault.detector import (  # noqa: E402
    ConvLayer, DetectorModel, Scene, SceneSpec, _components, _convolve, generate_scene,
    generate_sequence, infer, receptive_field, reference_model, shape_catalog)
from odfault.geometry import (  # noqa: E402
    Box, Detection, _ious, iou, mask_diff, mask_popcount, nms, rasterize)
from odfault.matching import (  # noqa: E402
    CategoryPolicy, _canonicalize_ties, _solve_lsap, assign, build_cost_matrix, fp_type_breakdown)
from odfault.metrics import ImageEval, severity  # noqa: E402
from odfault.persistence import _dilate  # noqa: E402
from odfault.records import DataError, read_records  # noqa: E402


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
        # held results fit campaign.MAX_RESULT_BYTES: a permanent campaign
        # of 200 frames holds at most 63,550 injections
        "n_injections": draw(st.integers(1, 63_550 if mode == "permanent" else 10**6)),
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


# grid values make touching and equal edges common, and fractions in a
# narrow range overlapping boxes with rounded areas; ints, -0.0, infinities
# and NaN are values a box can hold
_any_coord = st.one_of(st.integers(0, 3), st.sampled_from([0.5, 2.5, -0.0, -1.0]),
                       st.floats(-1.0, 4.0), st.floats(-1.0, 4.0),
                       st.sampled_from([math.inf, -math.inf, math.nan, 1e308]))
_any_box = st.builds(Box, _any_coord, _any_coord, _any_coord, _any_coord)


def _iou_reference(a, b):
    """The scalar IoU body that ``iou`` held before it called ``_ious``."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


@settings(max_examples=300, deadline=None)
@given(box=_any_box, others=st.lists(_any_box, max_size=6))
def test_batched_iou_matches_iou(box, others):
    expected = repr([_iou_reference(box, other) for other in others])
    assert repr(_ious(box, others)) == expected
    assert repr([iou(box, other) for other in others]) == expected


# signed zeros, subnormals and 1e300 (whose products overflow), on a grid
# that makes zero-area boxes and shared edges common; no NaN, which a
# detector box never holds and which ``min`` and ``max`` treat by order
_edge_coord = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                         1e300, -1e300, 1.0, 2.0]),
                        st.integers(-1, 3), st.floats(-2.0, 4.0),
                        st.floats(allow_nan=False, allow_infinity=False))
_edge_box = st.builds(Box, _edge_coord, _edge_coord, _edge_coord, _edge_coord)


def _bits(value):
    return struct.pack("<d", value)


@settings(max_examples=500, deadline=None)
@given(a=_edge_box, b=_edge_box)
def test_iou_is_symmetric_bit_for_bit(a, b):
    expected = _bits(_iou_reference(a, b))
    assert _bits(iou(a, b)) == _bits(iou(b, a)) == expected
    assert _bits(_iou_reference(b, a)) == expected


def _nms_reference(dets, iou_threshold, max_detections):
    """The pairwise loop ``nms`` ran before it called ``_ious``: each kept
    detection of the candidate's category, the kept box first."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept: list[int] = []
    for i in order:
        suppressed = False
        for j in kept:
            if (dets[j].category == dets[i].category
                    and _iou_reference(dets[j].box, dets[i].box) > iou_threshold):
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
            if len(kept) >= max_detections:
                break
    return [dets[i] for i in kept]


def _fp_types_reference(preds, gts, iou_threshold):
    """``fp_type_breakdown`` with its best same-category IoU scanned pair by pair."""
    strict = {r for r, _, _ in assign(preds, gts, iou_threshold, CategoryPolicy.strict()).pairs}
    relaxed = {r for r, _, _ in assign(preds, gts, iou_threshold, CategoryPolicy.none()).pairs}
    counts = dict.fromkeys(("class_only", "box_only", "both_or_unmatched"), 0)
    for i, p in enumerate(preds):
        if i in strict:
            continue
        if i in relaxed:
            counts["class_only"] += 1
            continue
        same_cat_ious = [_iou_reference(p.box, g.box) for g in gts if g.category == p.category]
        best = max(same_cat_ious, default=0.0)
        counts["box_only" if 0.0 < best < iou_threshold else "both_or_unmatched"] += 1
    return counts


# grid boxes that overlap, touch and repeat, in mixed categories, with
# confidences that tie often
_grid_coord = st.one_of(st.integers(0, 6), st.sampled_from([0.5, 2.5, -0.0, 1e300]),
                        st.floats(0.0, 6.0))
_tied_detections = st.lists(
    st.builds(Detection, st.builds(Box, _grid_coord, _grid_coord, _grid_coord, _grid_coord),
              st.integers(0, 2), st.one_of(st.sampled_from([0.5, 0.9, 1.0]), st.floats(0.0, 1.0))),
    max_size=10)
_thresholds = st.one_of(st.sampled_from([0.1, 0.3, 0.5, 0.75, 1.0]), st.floats(0.05, 1.0))


@settings(max_examples=300, deadline=None)
@given(dets=_tied_detections, iou_threshold=st.one_of(st.just(0.0), _thresholds),
       max_detections=st.integers(1, 12))
def test_nms_matches_pairwise_reference(dets, iou_threshold, max_detections):
    kept = nms(dets, iou_threshold, max_detections)
    assert list(map(id, kept)) == list(map(id, _nms_reference(dets, iou_threshold, max_detections)))


@settings(max_examples=300, deadline=None)
@given(preds=_tied_detections, gts=_tied_detections, iou_threshold=_thresholds)
def test_fp_type_breakdown_matches_pairwise_reference(preds, gts, iou_threshold):
    assert fp_type_breakdown(preds, gts, iou_threshold) == _fp_types_reference(
        preds, gts, iou_threshold)


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
    golden = infer(MODEL, scene)
    resumed = infer(MODEL, scene, fault=fault, golden=golden)
    reference = dense_infer(MODEL, scene, fault)
    _assert_same_trace(resumed, reference)


def _assert_same_trace(resumed, reference):
    """Same detections, flags and activations, NaN payloads excepted."""
    assert resumed.detections == reference.detections
    assert (resumed.nan_seen, resumed.inf_seen) == (reference.nan_seen, reference.inf_seen)
    assert resumed.layer_flags == reference.layer_flags
    assert len(resumed.activations) == len(reference.activations)
    assert all(map(same_but_nan_payload, resumed.activations, reference.activations))


# Small models whose zeros, -0.0 and NaN biases and non-finite values hit
# every branch of the resumed pass: the one-channel exit, the channel cone,
# every-tap channels, every channel over Inf or NaN, and the gate-mask exit.
# Copied filters over permuted copies of input channels make twin channels,
# and scenes that are zero outside a box, Inf and NaN pixels drawn into them
# as into any scene, make all-zero channels: half the weight faults read one,
# which is the resumed pass's no-convolution exit.
_model_weights = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-45, 3e38])
_model_pixels = st.sampled_from([0.0, 0.0, -0.0, 1.0, 0.25, 1.5, -2.0])
# +0.0, +0.0, -0.0, 0.25, -0.5, a quiet and a signalling NaN, as raw float32 bits
_MODEL_BIASES = [0x00000000, 0x00000000, 0x80000000, 0x3E800000, 0xBF000000, 0x7FC00000,
                 0x7F800001]
# sign, exponent MSB (1.0 -> Inf, Inf -> 1.0), exponent LSB and quiet bit
_model_bits = st.one_of(st.sampled_from([31, 30, 23, 22]), st.integers(0, 31))


@st.composite
def _faulty_models(draw):
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    c_in = 1
    layers = []
    for _ in range(draw(st.integers(2, 4))):
        k, c_out = draw(st.sampled_from([1, 3])), draw(st.integers(1, 3))
        n = c_out * c_in * k * k
        weights = np.array(draw(st.lists(_model_weights, min_size=n, max_size=n)),
                           dtype=np.float32).reshape(c_out, c_in, k, k)
        biases = np.array(draw(st.lists(st.sampled_from(_MODEL_BIASES), min_size=c_out,
                                        max_size=c_out)), dtype=np.uint32).view(np.float32)
        for later in range(1, c_out):
            if draw(st.booleans()):  # a copy of an earlier filter, reading permuted input channels
                j = draw(st.integers(0, later - 1))
                weights[later] = weights[j][list(draw(st.permutations(range(c_in))))]
                biases[later] = biases[j]
        layers.append(ConvLayer(weights, biases, draw(st.sampled_from(["relu", "relu1"]))))
        c_in = c_out
    model = DetectorModel(tuple(layers))
    pixels = np.array(draw(st.lists(_model_pixels, min_size=height * width,
                                    max_size=height * width)), dtype=np.float32).reshape(height, width)
    if draw(st.booleans()):  # zero outside a box: weight faults read sparse channels
        row0, col0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        row1, col1 = draw(st.integers(row0, height)), draw(st.integers(col0, width))
        boxed = np.zeros_like(pixels)
        boxed[row0:row1, col0:col1] = pixels[row0:row1, col0:col1]
        pixels = boxed
    for index, value in draw(st.lists(st.tuples(st.integers(0, pixels.size - 1),
                                                st.sampled_from([math.inf, -math.inf, math.nan])),
                                      max_size=2)):
        pixels.flat[index] = value
    scene = Scene(pixels, ())
    target = draw(st.sampled_from(list(FaultTarget)))
    layer = draw(st.integers(0, len(layers) - 1))
    shape = shape_catalog(model, height, width).shapes_for(target)[layer]
    coords = tuple(draw(st.integers(0, extent - 1)) for extent in shape)
    if target == FaultTarget.NEURON and draw(st.booleans()):
        # a site that the oracle's golden pass made non-finite or largest
        golden = dense_infer(model, scene).activations[layer]
        sites = np.argwhere(~np.isfinite(golden)).tolist()
        sites.append(np.unravel_index(np.argmax(np.where(np.isfinite(golden), golden, 0)),
                                      golden.shape))
        coords = tuple(int(c) for c in draw(st.sampled_from(sites)))
    if target == FaultTarget.WEIGHT and draw(st.booleans()):
        # a tap that reads a channel the oracle's golden pass left all zero
        x_in = dense_infer(model, scene).activations[layer - 1] if layer else pixels[None]
        zero = [c for c in range(x_in.shape[0]) if not x_in[c].any()]
        if zero:
            coords = (coords[0], draw(st.sampled_from(zero)), *coords[2:])
    fault = FaultDescriptor(target, layer, coords, draw(_model_bits),
                            draw(st.sampled_from(list(FaultMode))))
    return model, scene, fault


@settings(max_examples=300, deadline=None)
@given(_faulty_models())
def test_resumed_inference_matches_dense_reference_on_small_models(case):
    model, scene, fault = case
    golden = infer(model, scene)
    _assert_same_trace(golden, dense_infer(model, scene))
    _assert_same_trace(infer(model, scene, fault=fault, golden=golden),
                       dense_infer(model, scene, fault))


# Two scenes that share the pixels within a drawn radius of a neuron fault
# and are drawn afresh outside it. The radius runs from the summed kernel
# radius R to past the receptive field's 2R, so fields compare equal only
# when the shared patch covers them, save for chance repeats among the few
# pixel values. A later 3x3 layer reads golden values up to 2R - 1 pixels
# away from a first-layer fault, so such faults and 3x3 layers are drawn
# often, as is bit 30 (0 -> 2.0, 1.0 -> Inf). Weights, biases and pixels put
# scores on both sides of SCORE_GATE, so passes decode, reconverge and
# raise flags.
_field_weights = st.sampled_from([0.0, 0.0, 1.0, 1.0, -1.0, 0.5, 2.0])
_field_biases = st.sampled_from([0.0, -0.5, -1.5, 0.25, -1.0])
_field_pixels = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.5, -1.0])


@st.composite
def _field_pairs(draw):
    c_in, layers = 1, []
    for _ in range(draw(st.integers(2, 3))):
        k, c_out = draw(st.sampled_from([1, 3, 3, 3])), draw(st.integers(1, 2))
        n = c_out * c_in * k * k
        weights = np.array(draw(st.lists(_field_weights, min_size=n, max_size=n)),
                           dtype=np.float32).reshape(c_out, c_in, k, k)
        biases = np.array(draw(st.lists(_field_biases, min_size=c_out, max_size=c_out)),
                          dtype=np.float32)
        layers.append(ConvLayer(weights, biases, draw(st.sampled_from(["relu", "relu1"]))))
        c_in = c_out
    model = DetectorModel(tuple(layers))
    height, width = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    layer = draw(st.one_of(st.just(0), st.integers(0, len(layers) - 1)))
    channel = draw(st.integers(0, layers[layer].weights.shape[0] - 1))
    row, col = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    fault = FaultDescriptor(FaultTarget.NEURON, layer, (channel, row, col),
                            draw(st.one_of(st.just(30), _model_bits)),
                            draw(st.sampled_from(list(FaultMode))))
    # the exact radius: every layer's, plus those of the layers after the
    # fault's; scenes that share one pixel less have unequal fields unless
    # a key narrower than the pass's reads makes them equal
    radii = [conv.weights.shape[2] // 2 for conv in layers]
    reach = sum(radii) + sum(radii[layer + 1:])
    radius = draw(st.one_of(st.just(reach), st.just(reach - 1), st.integers(reach, 2 * sum(radii) + 1)))
    scenes = [np.array(draw(st.lists(_field_pixels, min_size=height * width,
                                     max_size=height * width)),
                       dtype=np.float32).reshape(height, width) for _ in range(2)]
    shared = (slice(max(row - radius, 0), row + radius + 1), slice(max(col - radius, 0), col + radius + 1))
    scenes[1][shared] = scenes[0][shared]
    return model, [Scene(pixels, ()) for pixels in scenes], fault


@settings(max_examples=200, deadline=None)
@given(_field_pairs())
def test_passes_over_equal_receptive_fields_take_the_same_path(case):
    # the permanent campaign reuses a pass that kept golden's detections on
    # every later frame whose receptive field is equal: the two passes
    # change the same elements to the same bits, decode alike and raise
    # the same flags
    model, scenes, fault = case
    goldens = [infer(model, scene) for scene in scenes]
    fields = [receptive_field(model, scene, fault, golden) for scene, golden in zip(scenes, goldens)]
    hypothesis.assume(fields[0] is not None and fields[0] == fields[1])
    paths = []
    for scene, golden in zip(scenes, goldens):
        with mock.patch.object(detector, "_decode", wraps=detector._decode) as decode:
            trace = infer(model, scene, fault=fault, golden=golden)
        if not decode.called:
            assert trace.detections is golden.detections  # the identity rule of infer
        changes = []
        for faulty, kept in zip(trace.activations, golden.activations):
            changed = faulty.view(np.uint32) != kept.view(np.uint32)
            changes.append((np.argwhere(changed).tolist(), faulty.view(np.uint32)[changed].tolist()))
        paths.append((decode.called, trace.nan_seen, trace.inf_seen, changes))
    assert paths[0] == paths[1]


# Zero weights of either sign are what the sparse convolution skips; the
# rest are subnormal, ordinary or large enough to overflow a sum. A -0.0 or
# NaN bias and a non-finite input are the cases that must take every tap.
# A drawn subset of output channels, in any order, must give those rows.
_tap_weights = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([1e-45, -3e-39]),
                         st.floats(width=32, allow_nan=False, allow_infinity=False))
_tap_specials = st.sampled_from([0.0, -0.0, 1e-45, -5e-39, math.inf, -math.inf, math.nan])
# +0.0, -0.0, -0.7, 0.5, a quiet and a signalling NaN, as raw float32 bits
_BIAS_PATTERNS = [0x00000000, 0x80000000, 0xBF333333, 0x3F000000, 0x7FC00000, 0x7F800001]


@st.composite
def _conv_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    weights = np.array(draw(st.lists(_tap_weights, min_size=c_out * c_in * k * k,
                                     max_size=c_out * c_in * k * k)),
                       dtype=np.float32).reshape(c_out, c_in, k, k)
    # a filter without a non-zero tap leaves the bias alone in its sums
    dead = np.array(draw(st.lists(st.booleans(), min_size=c_out, max_size=c_out)))
    weights[dead] *= np.float32(0)
    biases = np.array(draw(st.lists(st.sampled_from(_BIAS_PATTERNS), min_size=c_out,
                                    max_size=c_out)), dtype=np.uint32).view(np.float32)
    x = np.array(draw(st.lists(st.floats(-4.0, 4.0, width=32), min_size=c_in * height * width,
                               max_size=c_in * height * width)), dtype=np.float32)
    for index, value in draw(st.lists(st.tuples(st.integers(0, x.size - 1), _tap_specials),
                                      max_size=3)):
        x[index] = value
    channels = draw(st.lists(st.integers(0, c_out - 1), unique=True, max_size=c_out))  # any order
    row0, col0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    window = (row0, draw(st.integers(row0 + 1, height)), col0, draw(st.integers(col0 + 1, width)))
    return ConvLayer(weights, biases, "relu"), x.reshape(c_in, height, width), channels, window


@settings(max_examples=300, deadline=None)
@given(_conv_cases())
def test_sparse_convolution_matches_dense_conv(case):
    layer, x, channels, (row0, row1, col0, col1) = case
    dense = dense_conv(x, layer.weights, layer.biases)
    finite = bool(np.isfinite(x).all())
    assert np.array_equal(_convolve(x, layer, finite=finite).view(np.uint32), dense.view(np.uint32))
    # Where a sum meets two NaNs, numpy's float32 add keeps the first in its
    # SIMD body and the second in the tail, so a window, whose arrays are
    # shorter, may keep the other NaN; it matches in every other bit.
    part = _convolve(x, layer, channels, (row0, row1, col0, col1), finite=finite).view(np.uint32)
    expected = dense[channels, row0:row1, col0:col1]
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(part.view(np.float32)), nan)
    assert np.array_equal(part[~nan], expected.view(np.uint32)[~nan])


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


# Record values as json.loads gives them back. Valid ones include -0.0,
# +-inf, ints and the largest side; each odd value is a neighbour of a type
# some check accepts: NaN, ints beyond float range, ``true`` (not 1),
# strings, null, lists and objects.
_record_coords = st.one_of(
    st.floats(-10.0, 80.0), st.integers(-10, 80),
    st.sampled_from([-0.0, math.inf, -math.inf, 1e300, 2**60, 8192]))
_odd_numbers = st.sampled_from([math.nan, 10**400, -(10**400), 2**1024, -1.0, 2, 0.5, 8193, 0])
_odd_values = st.one_of(
    st.booleans(), _odd_numbers, _odd_numbers,
    st.one_of(st.none(), st.text(max_size=3), st.just({"a": 1}),
              st.lists(st.one_of(_record_coords, _odd_numbers), max_size=5)))


def _record_entry(draw, scored):
    entry = {"bbox": draw(st.lists(_record_coords, min_size=4, max_size=4)),
             "category": draw(st.integers(0, 3))}
    if scored and draw(st.integers(0, 3)) < 3:
        entry["confidence"] = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0])))
    return entry


@st.composite
def _record_docs(draw):
    """A valid record, or one with a single value ``true``, NaN, odd or
    missing: a record field, a flag, a detection or ground-truth entry, one
    of its fields, or one bbox coordinate (missing: the bbox one short)."""
    doc = {
        "image_id": draw(st.one_of(st.text(max_size=4), st.integers(-5, 5))),
        "width": draw(st.one_of(st.integers(1, 80), st.just(8192))),
        "height": draw(st.integers(1, 80)),
        "detections": [_record_entry(draw, True) for _ in range(draw(st.integers(0, 4)))],
        "ground_truth": [_record_entry(draw, False) for _ in range(draw(st.integers(0, 3)))],
    }
    if draw(st.booleans()):
        doc["flags"] = draw(st.fixed_dictionaries(
            {}, optional={"nan": st.booleans(), "inf": st.booleans()}))
    if draw(st.booleans()):
        doc["extra"] = draw(_odd_values)
    entries = doc["detections"] + doc["ground_truth"]
    target = draw(st.sampled_from(["none", "record", "record", "flag", "entry", "field", "field",
                                   "coord", "coord"]))
    if target == "record":
        parent, key = doc, draw(st.sampled_from([*doc, "flags"]))
    elif target == "flag":
        parent, key = doc.setdefault("flags", {}), draw(st.sampled_from(["nan", "inf"]))
    elif target == "entry" and entries:
        parent = doc[draw(st.sampled_from([k for k in ("detections", "ground_truth") if doc[k]]))]
        key = draw(st.integers(0, len(parent) - 1))
    elif target == "field" and entries:
        parent, key = draw(st.sampled_from(entries)), draw(
            st.sampled_from(["bbox", "category", "confidence"]))
    elif target == "coord" and entries:
        parent, key = draw(st.sampled_from(entries))["bbox"], draw(st.integers(0, 3))
    else:
        return doc
    defect = draw(st.sampled_from(["true", "nan", "odd", "missing"]))
    if defect == "missing":
        parent.pop(key, None) if isinstance(parent, dict) else parent.pop(key)
    elif defect == "true":
        parent[key] = True
    elif defect == "nan":
        parent[key] = math.nan
    else:
        parent[key] = draw(_odd_values)
    return doc


def _read_outcome(read, path):
    """The records of ``path`` as tuples of their fields, by repr, or the
    error message."""
    try:
        return "records", repr([r if isinstance(r, tuple) else
                                tuple(getattr(r, f.name) for f in fields(r))
                                for r in read(path)])
    except (DataError, records_reference.RecordError) as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(_record_docs(), min_size=1, max_size=2))
def test_read_records_matches_reference(docs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.ndjson")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(doc) + "\n" for doc in docs))
        expected = _read_outcome(records_reference.read_records, path)
        assert _read_outcome(read_records, path) == expected
        # a second read through one ``known`` dict takes every line that
        # parsed from the dict, and still gives the same records or error
        known = {}
        reads = [_read_outcome(partial(read_records, known=known), path) for _ in range(2)]
        assert reads == [expected, expected]
        if expected[0] == "records":
            parsed = {id(record) for record in known.values()}
            assert {id(record) for record in read_records(path, known)} <= parsed
            assert len(known) == len(parsed)


def _value_twin(value):
    """A value equal to ``value`` but not the same: the other zero, or an
    integral float as an int and an int as a float."""
    if value == 0:
        return -value if isinstance(value, float) else 0.0
    if isinstance(value, int):
        return float(value)
    return int(value) if value.is_integer() else value


# small coordinates, so int and float arithmetic agree, as they do for
# record and detector boxes
_score_coord = st.one_of(st.integers(-2, 40), st.floats(-2.0, 40.0),
                         st.sampled_from([0, 0.0, -0.0, 20, 20.0]))
_score_dets = st.lists(
    st.builds(Detection, st.builds(Box, _score_coord, _score_coord, _score_coord, _score_coord),
              st.integers(0, 2), st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0]))),
    max_size=5)


@st.composite
def _scored_pairs(draw):
    """(orig, corr): corr is orig itself, a value-equal twin of it, orig with
    one detection moved or relabelled (same length), or another list."""
    orig = draw(_score_dets)
    kind = draw(st.sampled_from(["same", "twin", "moved", "other"]))
    if kind == "same":
        return orig, orig
    if kind == "twin":
        return orig, [Detection(Box(*map(_value_twin, d.box.as_tuple())), _value_twin(d.category),
                                _value_twin(d.confidence)) for d in orig]
    if kind == "moved" and orig:
        k = draw(st.integers(0, len(orig) - 1))
        other = draw(_score_dets.filter(bool))[0]
        moved = replace(orig[k], box=other.box) if draw(st.booleans()) else replace(
            orig[k], category=other.category)
        return orig, orig[:k] + [moved] + orig[k + 1:]
    return orig, draw(_score_dets)


@settings(max_examples=300, deadline=None)
@given(pair=_scored_pairs(), gts=_score_dets, policy=_category_policies(),
       iou_threshold=st.floats(0.05, 1.0), dims=st.tuples(st.integers(1, 45), st.integers(1, 45)),
       nan=st.booleans())
def test_score_matches_assign_and_severity(pair, gts, policy, iou_threshold, dims, nan):
    orig, corr = pair
    cfg = CampaignConfig.from_json({"mode": "ingest", "seed": 0, "iou_threshold": iou_threshold,
                                    "category_policy": policy})

    def counts(dets):
        outcome = assign(dets, gts, cfg.iou_threshold, cfg.category_policy)
        return outcome.tp, outcome.fp, outcome.fn

    calls = []

    def counted(boxes, width, height):
        calls.append(len(boxes))
        return rasterize(boxes, width, height)

    with mock.patch("odfault.campaign.rasterize", counted), \
            mock.patch("odfault.metrics.rasterize", counted):
        scored = _score(cfg, counts(orig), dims, nan, False, key="img", image_id="img",
                        gts=gts, orig=orig, corr=corr)
    # value-equal lists are scored without a raster, changed ones with two
    assert len(calls) == (0 if corr == orig else 2)

    # the occupancy features from the masks themselves, for every pair, so
    # that severity's shortcut for value-equal lists is checked, not trusted
    raster_orig, raster_corr = (rasterize([d.box for d in dets], *dims) for dets in (orig, corr))
    orig_area = mask_popcount(raster_orig)
    evaluation = ImageEval("img", counts(orig), counts(corr), nan_flag=nan)
    expected = replace(
        severity(evaluation, orig, corr, dims),
        a_fp_occ=mask_popcount(mask_diff(raster_corr, raster_orig)) / (dims[0] * dims[1]),
        a_fn_vac=mask_popcount(mask_diff(raster_orig, raster_corr)) / orig_area if orig_area
        else 0.0)
    assert repr(scored.report) == repr(expected)


# Entropies of one word up to more words than SeedSequence's pool of 4, and
# (low, high) pairs over every branch of the bounded draw, from lows of
# either sign; a list of them interleaves 32-bit and 64-bit draws.
_entropies = st.one_of(st.integers(0, 2**140), st.lists(st.integers(0, 2**140), max_size=7).map(tuple))


@st.composite
def _bounded_draws(draw):
    span = draw(st.one_of(st.sampled_from(SPANS), st.integers(1, 2**32 + 2), st.integers(1, 2**64)))
    low = draw(st.one_of(st.just(min(0, 2**63 - span)), st.integers(-2**63, 2**63 - span)))
    return low, low + span


@settings(max_examples=300, deadline=None)
@given(entropy=_entropies, draws=st.lists(_bounded_draws(), max_size=40))
def test_stream_matches_numpy(entropy, draws):
    ours, oracle = Stream(Seed(entropy)), np.random.default_rng(np.random.SeedSequence(entropy))
    for low, high in draws:
        assert ours.integers(low, high) == int(oracle.integers(low, high))


_CATALOG = shape_catalog(MODEL, 64, 64)
_sampler_seeds = st.one_of(
    st.integers(0, 2**70),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.tuples(st.integers(0, 2**40), st.integers(0, 2), st.integers(0, 10**6)).map(
        lambda t: _derive_seed(*t)),
    _entropies.map(np.random.SeedSequence),
)


def _outcome(make):
    """What ``make()`` returns, or the kind of error it raises."""
    try:
        return make()
    except (RuntimeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(seed=_sampler_seeds, spec=st.builds(SceneSpec, st.integers(12, 64), st.integers(12, 64),
                                           _ordered_pair(0, 5), _ordered_pair(8, 14)),
       side=st.integers(16, 64), target=st.sampled_from(list(FaultTarget)),
       policy=st.sampled_from(BIT_POLICIES))
def test_samplers_match_the_numpy_driven_stream(seed, spec, side, target, policy):
    def samples():
        scene = _outcome(lambda: generate_scene(spec, seed))
        frames = _outcome(lambda: generate_sequence(seed, n_frames=4, width=side, height=side))
        return (scene if isinstance(scene, type) else (scene.pixels.tobytes(), scene.objects),
                frames if isinstance(frames, type) else [(f.pixels.tobytes(), f.objects) for f in frames],
                sample_fault(_CATALOG, target, policy, seed))

    ours = samples()
    with mock.patch.object(detector, "Stream", NumpyStream), mock.patch.object(bits, "Stream", NumpyStream):
        assert samples() == ours
