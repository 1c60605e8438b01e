"""Toy detector: determinism, baseline quality, fault-response fixtures."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import dense_conv, dense_infer, same_but_nan_payload
from odfault import detector
from odfault.bits import FP32, FaultDescriptor, FaultMode, FaultTarget, sample_fault
from odfault.detector import (
    BACKGROUND_LEVELS,
    CATEGORY_INTENSITIES,
    ConvLayer,
    DetectorModel,
    Scene,
    SceneSpec,
    _changed,
    _convolve,
    generate_scene,
    generate_sequence,
    infer,
    receptive_field,
    reference_model,
    shape_catalog,
)
from odfault.geometry import iou
from odfault.matching import assign

MODEL = reference_model()
SPEC = SceneSpec()


def _trace_key(trace):
    return (
        tuple((d.box.as_tuple(), d.category, d.confidence) for d in trace.detections),
        trace.nan_seen,
        trace.inf_seen,
    )


def test_scene_determinism_and_structure():
    a = generate_scene(SPEC, seed=5)
    b = generate_scene(SPEC, seed=5)
    assert np.array_equal(a.pixels, b.pixels)
    assert a.objects == b.objects
    assert a.pixels.dtype == np.float32
    lo, hi = SPEC.object_count
    assert lo <= len(a.objects) <= hi
    for box, category, intensity in a.objects:
        assert intensity == CATEGORY_INTENSITIES[category]
        region = a.pixels[int(box.y1):int(box.y2), int(box.x1):int(box.x2)]
        assert (region == np.float32(intensity)).all()


def test_scene_background_is_checkerboard():
    scene = generate_scene(SceneSpec(object_count=(0, 0)), seed=1)
    assert scene.objects == ()
    values = set(np.unique(scene.pixels).tolist())
    assert values == {np.float32(BACKGROUND_LEVELS[0]), np.float32(BACKGROUND_LEVELS[1])}


def test_scene_infeasible_packing_raises():
    with pytest.raises(RuntimeError):
        generate_scene(SceneSpec(object_count=(12, 12), size_range=(16, 16)), seed=0)


def test_inference_deterministic():
    scene = generate_scene(SPEC, seed=3)
    assert _trace_key(infer(MODEL, scene)) == _trace_key(infer(MODEL, scene))


def test_fault_free_baseline_quality():
    clean = 0
    for seed in range(100):
        scene = generate_scene(SPEC, seed)
        trace = infer(MODEL, scene)
        outcome = assign(list(trace.detections), scene.ground_truth())
        clean += outcome.fp == 0 and outcome.fn == 0
    assert clean >= 95


def test_detections_match_ground_truth_boxes():
    scene = generate_scene(SPEC, seed=0)
    trace = infer(MODEL, scene)
    assert len(trace.detections) == len(scene.objects)
    assert not trace.nan_seen and not trace.inf_seen
    for det in trace.detections:
        best = max(scene.ground_truth(), key=lambda g: iou(det.box, g.box))
        assert iou(det.box, best.box) >= 0.5
        assert det.category == best.category
        assert det.confidence > 0.5


def _exp_f32_dispatch():
    """The SIMD target numpy's float32 exp runs on here, or None before numpy 2.0."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info(func_name="^exp$", signature="float32").get("exp", {}).get("ff", {}).get("current")


def test_confidence_table_is_the_float32_sigmoid():
    # the table holds what numpy's AVX2 and AVX-512 float32 exp give, which agree
    if _exp_f32_dispatch() not in ("X86_V3", "X86_V4"):
        pytest.skip("numpy's float32 exp runs without AVX2 here")
    one = np.float32(1.0)
    for area in [*range(80), 4096]:
        z = np.float32(0.25) * (np.float32(area) - np.float32(4.0))
        table = detector._CONFIDENCES[area] if area < len(detector._CONFIDENCES) else 1.0
        assert table == float(one / (one + np.exp(-z))), area
    assert len(detector._CONFIDENCES) == 71


_DECODE_STDIN = """
import json, sys
import numpy as np
from odfault.detector import _decode
scores = np.frombuffer(sys.stdin.buffer.read(), dtype=np.float32).reshape(3, 132, 72)
print(json.dumps([d.confidence for d in _decode(scores)]))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 CPU features")
def test_confidences_do_not_follow_numpy_cpu_dispatch():
    # numpy's float32 exp without AVX2 gives area 10 another last bit than with it
    scores = np.zeros((3, 132, 72), dtype=np.float32)
    for row, area in enumerate(range(5, 71)):
        scores[row % 3, 2 * row, :area] = 1.0  # one component a row, on 3 score maps
    src = os.path.dirname(os.path.dirname(os.path.abspath(detector.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _DECODE_STDIN], input=scores.tobytes(),
                           env=env, capture_output=True, check=True)
    expected = [d.confidence for d in detector._decode(scores)]
    assert len(expected) == 66
    assert json.loads(child.stdout) == expected


def test_shape_catalog_matches_forward_tensors():
    catalog = shape_catalog(MODEL)
    assert len(catalog.neuron_shapes) == len(MODEL.layers) == 5
    assert len(catalog.weight_shapes) == 5
    scene = generate_scene(SPEC, seed=2)
    trace = infer(MODEL, scene)
    for activation, shape in zip(trace.activations, catalog.neuron_shapes):
        assert activation.shape == shape
    for layer, shape in zip(MODEL.layers, catalog.weight_shapes):
        assert layer.weights.shape == shape
    assert shape_catalog(MODEL) == catalog


def _neuron_fault(layer, coords, bit, mode=FaultMode.TRANSIENT_FLIP):
    return FaultDescriptor(FaultTarget.NEURON, layer, coords, bit, mode)


def _weight_fault(layer, coords, bit, mode=FaultMode.TRANSIENT_FLIP):
    return FaultDescriptor(FaultTarget.WEIGHT, layer, coords, bit, mode)


def test_neuron_fault_locality():
    scene = generate_scene(SPEC, seed=4)
    baseline = infer(MODEL, scene)
    fault = _neuron_fault(3, (0, 20, 20), 30)
    faulty = infer(MODEL, scene, fault=fault)
    for k in range(3):
        assert np.array_equal(baseline.activations[k], faulty.activations[k])
    assert not np.array_equal(baseline.activations[3], faulty.activations[3])


def test_exponent_msb_flip_on_saturated_activation_goes_inf():
    scene = generate_scene(SPEC, seed=0)
    baseline = infer(MODEL, scene)
    # pick a tent cell that is exactly 1.0 (inside some object)
    tents = baseline.activations[3]
    channel, row, col = map(int, np.argwhere(tents == 1.0)[0])
    faulty = infer(MODEL, scene, fault=_neuron_fault(3, (channel, row, col), 30))
    assert faulty.inf_seen or faulty.nan_seen


def test_exponent_msb_flip_on_zero_tent_creates_false_object():
    scene = generate_scene(SPEC, seed=0)
    baseline = infer(MODEL, scene)
    # a background cell on the tents layer: 0.0 -> 2.0 under an MSB flip
    fault = _neuron_fault(3, (0, 50, 8), 30)
    faulty = infer(MODEL, scene, fault=fault)
    assert len(faulty.detections) > len(baseline.detections)


def test_weight_mantissa_flip_is_invisible():
    scene = generate_scene(SPEC, seed=6)
    baseline = _trace_key(infer(MODEL, scene))
    # low mantissa bit of a live scoring tap
    assert _trace_key(infer(MODEL, scene, fault=_weight_fault(4, (0, 0, 1, 1), 3))) == baseline
    # top mantissa bit of a stair gain: outvoted by the redundant copies
    assert _trace_key(infer(MODEL, scene, fault=_weight_fault(1, (0, 0, 0, 0), 22))) == baseline
    # top mantissa bit of an intensity pass-through copy
    assert _trace_key(infer(MODEL, scene, fault=_weight_fault(0, (1, 0, 1, 1), 22))) == baseline


def test_weight_msb_flip_on_zero_cross_tap_storms():
    scene = generate_scene(SPEC, seed=0)
    baseline = infer(MODEL, scene)
    # zero weight reading another category's tent: MSB flip turns it into 2.0
    fault = _weight_fault(4, (0, 1, 0, 0), 30)
    faulty = infer(MODEL, scene, fault=fault)
    out = assign(list(faulty.detections), scene.ground_truth())
    base_out = assign(list(baseline.detections), scene.ground_truth())
    assert out.fp > base_out.fp


def test_stuck_at_1_on_set_bit_is_identity():
    scene = generate_scene(SPEC, seed=1)
    baseline = _trace_key(infer(MODEL, scene))
    # weight 0.4375 has exponent 0111_1101: bit 29 is already set
    weight = MODEL.layers[4].weights[0, 0, 0, 0]
    assert (FP32.to_bits(weight) >> 29) & 1 == 1
    fault = _weight_fault(4, (0, 0, 0, 0), 29, FaultMode.STUCK_AT_1)
    assert _trace_key(infer(MODEL, scene, fault=fault)) == baseline


def test_invalid_fault_coordinates_rejected():
    scene = generate_scene(SPEC, seed=1)
    with pytest.raises(ValueError):
        infer(MODEL, scene, fault=_neuron_fault(0, (9, 0, 0), 5))
    with pytest.raises(ValueError):
        infer(MODEL, scene, fault=_weight_fault(9, (0, 0, 0, 0), 5))
    with pytest.raises(ValueError):
        infer(MODEL, scene, fault=_weight_fault(0, (0, 0, 0), 5))


def test_sample_fault_integrates_with_catalog():
    catalog = shape_catalog(MODEL)
    scene = generate_scene(SPEC, seed=2)
    for seed in range(20):
        descriptor = sample_fault(catalog, FaultTarget.NEURON, "all_32", seed=seed)
        infer(MODEL, scene, fault=descriptor)  # must not raise


def test_sequence_determinism_and_motion():
    frames_a = generate_sequence(seed=7, n_frames=20)
    frames_b = generate_sequence(seed=7, n_frames=20)
    assert len(frames_a) == 20
    for fa, fb in zip(frames_a, frames_b):
        assert np.array_equal(fa.pixels, fb.pixels)
        assert fa.objects == fb.objects
    # objects move at most 3 px per frame and keep identity/category
    for prev, cur in zip(frames_a, frames_a[1:]):
        assert len(prev.objects) == len(cur.objects)
        for (pb, pc, _), (cb, cc, _) in zip(prev.objects, cur.objects):
            assert pc == cc
            assert abs(cb.x1 - pb.x1) <= 3
            assert cb.y1 == pb.y1


def test_sequence_frames_stay_detectable():
    frames = generate_sequence(seed=11, n_frames=30)
    clean = 0
    for frame in frames:
        trace = infer(MODEL, frame)
        outcome = assign(list(trace.detections), frame.ground_truth())
        clean += outcome.fp == 0 and outcome.fn == 0
    assert clean >= 28


def test_stuck_weight_ghost_persists_at_high_severity():
    # a single stuck-at-1 on the exponent MSB of a zero scoring weight on
    # the prior channel produces a near image-sized ghost on every frame,
    # which the tracker must flag persistent even at the 15% level
    from odfault.geometry import rasterize
    from odfault.persistence import TrackerConfig, occupancy_series, sdc_at_severity, track

    frames = generate_sequence(seed=3, n_frames=20)
    fault = _weight_fault(4, (2, 4, 1, 1), 30, FaultMode.STUCK_AT_1)
    fp_blobs = []
    for frame in frames:
        orig = rasterize([d.box for d in infer(MODEL, frame).detections], 64, 64)
        corr = rasterize([d.box for d in infer(MODEL, frame, fault=fault).detections], 64, 64)
        fp_blobs.append(corr & ~orig)
    masks = track(fp_blobs, TrackerConfig(m=10, n=15, vicinity_px=50, coasting=True))
    series = occupancy_series(masks, image_area=64 * 64)
    flags = sdc_at_severity(series, [0.0, 0.15])
    assert flags[0.0] and flags[0.15]
    assert max(series) > 0.5


def _live_and_random_coords(tensor, rng):
    """The largest-magnitude element (to reach Inf/NaN) and a random one."""
    live = np.unravel_index(int(np.argmax(np.abs(tensor))), tensor.shape)
    return [tuple(int(c) for c in live), tuple(int(rng.integers(0, e)) for e in tensor.shape)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _check_against_dense(model, scene, fault, golden):
    """Resumed inference equals the dense every-tap reference."""
    reference = dense_infer(model, scene, fault)
    resumed = infer(model, scene, fault=fault, golden=golden)
    assert _trace_key(resumed) == _trace_key(reference), fault
    assert resumed.layer_flags == reference.layer_flags, fault
    assert all(same_but_nan_payload(a, b) for a, b in
               zip(resumed.activations, reference.activations)), fault
    return reference


def test_golden_resume_matches_full_inference():
    # resumed inference is an optimisation: it must agree with the dense
    # reference on every layer x target x mode, including the NaN/Inf paths
    rng = np.random.default_rng(0)
    checked = nan_cases = inf_cases = 0
    for seed in (0, 4, 7):
        scene = generate_scene(SPEC, seed=seed)
        golden = infer(MODEL, scene)
        assert all(_same_bits(a, b) for a, b in
                   zip(golden.activations, dense_infer(MODEL, scene).activations))
        for layer in range(len(MODEL.layers)):
            tensors = {FaultTarget.NEURON: golden.activations[layer],
                       FaultTarget.WEIGHT: MODEL.layers[layer].weights}
            for target, tensor in tensors.items():
                for coords in _live_and_random_coords(tensor, rng):
                    for mode in FaultMode:
                        for bit in (23, 29, 30, 31):
                            fault = FaultDescriptor(target, layer, coords, bit, mode)
                            reference = _check_against_dense(MODEL, scene, fault, golden)
                            checked += 1
                            nan_cases += reference.nan_seen
                            inf_cases += reference.inf_seen
    assert checked == 3 * 5 * 2 * 2 * 3 * 4
    assert nan_cases > 0 and inf_cases > 0

    # corners and edges, where the changed window is clipped, on a 48-px scene
    size = 48
    scene = generate_scene(SceneSpec(width=size, height=size), seed=1)
    golden = infer(MODEL, scene)
    assert all(_same_bits(a, b) for a, b in
               zip(golden.activations, dense_infer(MODEL, scene).activations))
    border = [(0, 0), (0, size - 1), (size - 1, 0), (size - 1, size - 1),
              (0, 20), (31, size - 1)]
    border_checked = border_changed = 0
    for layer in range(len(MODEL.layers)):
        n_channels = MODEL.layers[layer].weights.shape[0]
        for row, col in border:
            for mode in FaultMode:
                for bit in (23, 30):
                    coords = (int(rng.integers(0, n_channels)), row, col)
                    reference = _check_against_dense(MODEL, scene, _neuron_fault(layer, coords, bit, mode),
                                                     golden)
                    border_checked += 1
                    border_changed += reference.detections != golden.detections
    assert border_checked == 5 * 6 * 3 * 2
    assert border_changed > 0


def test_sparse_taps_keep_the_sign_of_zero():
    # bias -0.0 and a single zero tap over a positive input: the every-tap
    # sum is -0.0 + 0.0 = +0.0, but skipping the zero tap leaves -0.0
    trap = np.zeros((2, 1, 3, 3), dtype=np.float32)
    trap[1, 0, 1, 1] = 1.0  # channel 1 passes the input on, so a fault shows
    biases = np.array([-0.0, 0.0], dtype=np.float32)
    layer = ConvLayer(trap, biases, "relu")
    unit = ConvLayer(np.ones((1, 1, 1, 1), dtype=np.float32), np.zeros(1, dtype=np.float32), "relu")
    model = DetectorModel((unit, layer))
    scene = Scene(np.full((8, 8), 0.75, dtype=np.float32), ())
    x = scene.pixels[None, :, :]
    finite = bool(np.isfinite(x).all())
    dense = dense_conv(x, layer.weights, layer.biases)
    assert not np.signbit(dense[0]).any()
    assert _same_bits(_convolve(x, layer, finite=finite), dense)
    for row0, row1, col0, col1 in [(0, 2, 0, 2), (3, 5, 2, 6), (6, 8, 7, 8)]:
        window = _convolve(x, layer, window=(row0, row1, col0, col1), finite=finite)
        assert _same_bits(window, dense[:, row0:row1, col0:col1])
    first = ConvLayer(trap[:1], biases[:1], "relu")
    assert _same_bits(_convolve(x, first, window=(0, 1, 0, 1), finite=finite), dense[:1, :1, :1])

    golden = infer(model, scene)
    for kept, reference in zip(golden.activations, dense_infer(model, scene).activations):
        assert _same_bits(kept, reference)
    for coords in [(0, 0, 0), (0, 4, 3), (0, 7, 7)]:
        _check_against_dense(model, scene, _neuron_fault(0, coords, 23), golden)


def test_nonfinite_input_multiplies_every_tap():
    # a zero weight over an Inf input gives 0 * inf = nan: the zero tap must
    # not be skipped, in the full pass or in the resumed window
    zero = ConvLayer(np.zeros((1, 1, 3, 3), dtype=np.float32), np.zeros(1, dtype=np.float32), "relu")
    unit = ConvLayer(np.ones((1, 1, 1, 1), dtype=np.float32), np.zeros(1, dtype=np.float32), "relu")
    model = DetectorModel((unit, zero))
    pixels = np.ones((8, 8), dtype=np.float32)
    x = pixels.copy()[None, :, :]
    x[0, 2, 5] = np.inf
    finite = bool(np.isfinite(x).all())
    out = _convolve(x, zero, finite=finite)
    assert _same_bits(out, dense_conv(x, zero.weights, zero.biases))
    assert np.isnan(out[0, 1:4, 4:7]).all() and np.count_nonzero(np.isnan(out)) == 9
    assert np.isnan(_convolve(x, zero, window=(0, 2, 5, 8), finite=finite)[0, 1, :2]).all()

    scene = Scene(pixels, ())
    golden = infer(model, scene)
    assert golden.layer_flags == ((False, False), (False, False))
    for coords in [(0, 3, 3), (0, 0, 7)]:
        fault = _neuron_fault(0, coords, 30)  # 1.0 -> +inf
        reference = _check_against_dense(model, scene, fault, golden)
        assert reference.layer_flags == ((False, True), (True, False))

    # golden itself holds an Inf, away from the pixel the fault changes: the
    # flags of a changed layer then come from the whole layer, not the window
    scene = Scene(x[0], ())
    golden = infer(model, scene)
    assert golden.layer_flags == ((False, True), (True, False))
    for coords in [(0, 6, 1), (0, 2, 5)]:
        _check_against_dense(model, scene, _neuron_fault(0, coords, 23), golden)


def test_nan_in_both_is_no_change():
    # a NaN bias and an Inf input pixel: the full layer and the window
    # (0, 6, 0, 2) each hold a NaN at (5, 1), and numpy's float32 add may
    # keep a different one in each; either way the pixel is unchanged
    x = np.ones((1, 6, 3), dtype=np.float32)
    x[0, 5, 1] = np.inf
    nan_bias = np.array([0x7FC00000], dtype=np.uint32).view(np.float32)
    layer = ConvLayer(np.zeros((1, 1, 1, 1), dtype=np.float32), nan_bias, "relu")
    finite = bool(np.isfinite(x).all())
    full = _convolve(x, layer, finite=finite)
    window = (0, 6, 0, 2)
    part = _convolve(x, layer, window=window, finite=finite)
    assert np.isnan(full).all() and np.isnan(part).all()
    assert _changed(part, full, [0], window, golden_nan=True) is None
    other = full.copy()
    other.view(np.uint32)[...] ^= np.uint32(0x80000001)  # another sign and payload, still NaN
    assert _changed(part, other, [0], window, golden_nan=True) is None
    other[0, 2, 1] = 1.0  # a number against a NaN is a change
    assert _changed(part, other, [0], window, golden_nan=True) == ((2, 3, 1, 2), [0])


def test_benign_fault_returns_golden_itself():
    # a fault whose recomputed part matches golden's bits makes no copy:
    # the pass is golden's trace, arrays and all
    scene = generate_scene(SPEC, seed=0)
    golden = infer(MODEL, scene)
    faults = [_weight_fault(1, (0, 0, 0, 0), 30, FaultMode.STUCK_AT_1),  # 64.0 has bit 30 set
              _weight_fault(1, (0, 3, 0, 0), 0),  # a zero weight turns subnormal
              _neuron_fault(2, (0, 10, 10), 0, FaultMode.STUCK_AT_0)]  # the bit is already clear
    for fault in faults:
        resumed = infer(MODEL, scene, fault=fault, golden=golden)
        assert resumed is golden, fault
        assert all(a is b for a, b in zip(resumed.activations, golden.activations))
        _check_against_dense(MODEL, scene, fault, golden)


def _recorded_convolutions(monkeypatch):
    """Patch ``_convolve`` to record the shape of every part it returns."""
    shapes = []

    def convolve(*args, **kwargs):
        out = _convolve(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(detector, "_convolve", convolve)
    return shapes


def test_weight_faults_that_cannot_change_a_bit_skip_the_convolution(monkeypatch):
    # L2's high stair of category 2 (channels 5, 11, 17) sits above every
    # intensity, so it is zero in every scene and an L3 tap reading it adds
    # +-0 to its sums whatever its weight; a stuck-at bit already in place
    # leaves the weight's bits as they are
    scene = generate_scene(SPEC, seed=0)
    golden = infer(MODEL, scene)
    assert not golden.activations[1][[5, 11, 17]].any()
    faults = [_weight_fault(2, (2, 5, 0, 0), 30),  # -2.0 -> -0.0 over a zero channel
              _weight_fault(2, (0, 11, 0, 0), 30),  # a zero weight turns 2.0 over a zero channel
              _weight_fault(2, (5, 17, 0, 0), 31, FaultMode.STUCK_AT_1),
              _weight_fault(1, (0, 0, 0, 0), 30, FaultMode.STUCK_AT_1),  # 64.0 has bit 30 set
              _weight_fault(4, (1, 1, 2, 2), 30, FaultMode.STUCK_AT_0)]  # 0.4375 has bit 30 clear
    shapes = _recorded_convolutions(monkeypatch)
    for fault in faults:
        assert infer(MODEL, scene, fault=fault, golden=golden) is golden, fault
    assert shapes == []
    monkeypatch.undo()
    for fault in faults:
        _check_against_dense(MODEL, scene, fault, golden)


def _zero_channel_model(other_bits: int, stored_bits: int, bias_bits: int, pixel: float):
    """A layer whose channel 0 is the scene and channel 1 its negation,
    which relu makes zero, then a 1x1 filter holding ``other_bits`` on
    channel 0 and ``stored_bits`` on channel 1, over an 8x8 scene of zeros
    and 1.5s whose pixel (7, 7) holds ``pixel``."""
    front = ConvLayer(np.array([1.0, -1.0], dtype=np.float32).reshape(2, 1, 1, 1),
                      np.zeros(2, dtype=np.float32), "relu")
    weights = np.array([other_bits, stored_bits], dtype=np.uint32).view(np.float32).reshape(1, 2, 1, 1)
    biases = np.array([bias_bits], dtype=np.uint32).view(np.float32)
    pixels = np.zeros((8, 8), dtype=np.float32)
    pixels[3:5, 2:6] = 1.5
    pixels[7, 7] = pixel
    return DetectorModel((front, ConvLayer(weights, biases, "relu"))), Scene(pixels, ())


@pytest.mark.parametrize("other_bits, stored_bits, bias_bits, pixel, bit, skipped", [
    (0x3F800000, 0x00000000, 0x00000000, 0.0, 30, True),  # 0 -> 2.0 over the zero channel
    (0x3F800000, 0x3F000000, 0x00000000, 0.0, 31, True),  # 0.5 -> -0.5
    (0x3F800000, 0x3F000000, 0x00000000, math.inf, 31, True),  # Inf in the other channel
    (0x3F800000, 0x7F000000, 0x00000000, 0.0, 23, False),  # 1.7e38 -> +Inf, and Inf * 0 = NaN
    (0x3F800000, 0x7F000001, 0x00000000, 0.0, 23, False),  # -> NaN
    (0x3F800000, 0x7F800000, 0x00000000, 0.0, 30, False),  # a stored Inf -> 1.0
    # -0.0 + -1.0 * 0.0 + 0.5 * 0.0 is +0.0, and -0.0 with -0.5: relu maps both to +0.0
    (0xBF800000, 0x3F000000, 0x80000000, 0.0, 31, False),
    (0x3F800000, 0x00000000, 0x7FC00000, 0.0, 30, False),  # a NaN bias
])
def test_weight_fault_over_a_zero_channel_skips_only_an_exact_no_op(monkeypatch, other_bits, stored_bits,
                                                                     bias_bits, pixel, bit, skipped):
    # a weight fault whose tap reads an all-zero channel returns golden with
    # no convolution when both weights are finite and the bias is neither
    # -0.0 nor NaN, whatever the other channels hold; otherwise the whole
    # plane is recomputed
    model, scene = _zero_channel_model(other_bits, stored_bits, bias_bits, pixel)
    golden = infer(model, scene)
    assert not golden.activations[0][1].any()
    fault = _weight_fault(1, (0, 1, 0, 0), bit)
    shapes = _recorded_convolutions(monkeypatch)
    resumed = infer(model, scene, fault=fault, golden=golden)
    monkeypatch.undo()
    assert shapes == ([] if skipped else [(1, 8, 8)])
    assert resumed is golden or not skipped
    reference = _check_against_dense(model, scene, fault, golden)
    if stored_bits in (0x7F000000, 0x7F000001):  # Inf or NaN times the zero channel is NaN
        assert np.isnan(reference.activations[1]).all()


def test_golden_pass_convolves_each_twin_class_once(monkeypatch):
    # the three redundant copies make 20 of the 41 channels twins of
    # earlier ones; over an Inf pixel every channel is convolved
    scene = generate_scene(SPEC, seed=0)
    shapes = _recorded_convolutions(monkeypatch)
    golden = infer(MODEL, scene)
    assert [shape[0] for shape in shapes] == [2, 7, 4, 5, 3]
    assert sum(len(MODEL.layers[index].taps[k])
               for index, (leaders, _) in enumerate(MODEL.twins) for k in leaders) == 64
    assert sum(map(len, (tap for layer in MODEL.layers for tap in layer.taps))) == 90
    assert all(_same_bits(a, b) for a, b in
               zip(golden.activations, dense_infer(MODEL, scene).activations))

    pixels = scene.pixels.copy()
    pixels[20, 30] = np.inf
    storm = Scene(pixels, scene.objects)
    del shapes[:]
    traced = infer(MODEL, storm)
    assert sum(shape[0] for shape in shapes) == 41
    monkeypatch.undo()
    reference = dense_infer(MODEL, storm)
    assert traced.layer_flags == reference.layer_flags and reference.nan_seen
    assert _trace_key(traced) == _trace_key(reference)
    assert all(map(same_but_nan_payload, traced.activations, reference.activations))


def test_channel_cone_skips_channels_that_read_no_change(monkeypatch):
    # a weight fault in one L2 stair changes that stair alone; each later
    # layer recomputes only the channel that reads the changed one
    scene = generate_scene(SPEC, seed=0)
    golden = infer(MODEL, scene)
    fault = _weight_fault(1, (0, 0, 0, 0), 30)  # 64.0 -> ~2e-37: copy 0's low stair of category 0
    shapes = _recorded_convolutions(monkeypatch)
    resumed = infer(MODEL, scene, fault=fault, golden=golden)
    monkeypatch.undo()
    assert len(shapes) >= 2 and {channels for channels, _, _ in shapes} == {1}
    changed = [c for c, (a, b) in enumerate(zip(resumed.activations[1], golden.activations[1]))
               if not _same_bits(a, b)]
    assert changed == [0]
    _check_against_dense(MODEL, scene, fault, golden)


def test_golden_trace_records_layer_flags_and_leaves_golden_intact():
    scene = generate_scene(SPEC, seed=0)
    golden = infer(MODEL, scene)
    assert golden.layer_flags == ((False, False),) * len(MODEL.layers)
    before = [a.copy() for a in golden.activations]
    fault = _neuron_fault(3, (0, 50, 8), 30)
    assert _trace_key(infer(MODEL, scene, fault=fault, golden=golden)) == \
        _trace_key(dense_infer(MODEL, scene, fault))
    for kept, now in zip(before, golden.activations):
        assert np.array_equal(kept.view(np.uint32), now.view(np.uint32))
    shorter = DetectorModel(MODEL.layers[:-1])  # a golden trace of another model
    with pytest.raises(ValueError):
        infer(MODEL, scene, fault=fault, golden=infer(shorter, scene))


def test_golden_resume_keeps_flags_of_layers_before_reconvergence():
    # relu1 clamps an injected +inf back to golden's 1.0, so the pass
    # reconverges one layer after the fault; the Inf must still be reported
    unit = np.ones((1, 1, 1, 1), dtype=np.float32)
    bias = np.zeros(1, dtype=np.float32)
    model = DetectorModel((ConvLayer(unit, bias, "relu"), ConvLayer(unit, bias, "relu1")))
    scene = Scene(np.ones((8, 8), dtype=np.float32), ())
    golden = infer(model, scene)
    fault = _neuron_fault(0, (0, 3, 3), 30)  # 1.0 -> +inf
    reference = dense_infer(model, scene, fault)
    assert reference.inf_seen and not reference.nan_seen
    assert _trace_key(infer(model, scene, fault=fault, golden=golden)) == _trace_key(reference)


def test_inference_without_golden_builds_it():
    # without a golden trace infer builds one and resumes from it; the
    # trace holds every faulty activation, recomputed layers included,
    # whether the pass reconverges or reaches decode
    scene = generate_scene(SPEC, seed=0)
    faults = [_neuron_fault(3, (0, 50, 8), 30),  # ghost: reaches decode
              _neuron_fault(0, (0, 5, 5), 22),  # mantissa: reconverges
              _weight_fault(4, (1, 4, 1, 1), 30, FaultMode.STUCK_AT_1),
              _weight_fault(0, (0, 0, 1, 1), 22)]  # changes L1-L3, reconverges
    for fault in faults:
        reference = dense_infer(MODEL, scene, fault)
        kept = infer(MODEL, scene, fault=fault)
        assert _trace_key(kept) == _trace_key(reference), fault
        assert kept.layer_flags == reference.layer_flags, fault
        assert all(_same_bits(a, b) for a, b in zip(kept.activations, reference.activations))
        assert len(kept.activations) == len(MODEL.layers)


@pytest.mark.parametrize("size", [48, 96])
def test_neuron_faults_cover_the_whole_scene(size):
    spec = SceneSpec(width=size, height=size)
    catalog = shape_catalog(MODEL, height=size, width=size)
    assert all(shape[1:] == (size, size) for shape in catalog.neuron_shapes)
    scene = generate_scene(spec, seed=1)
    trace = infer(MODEL, scene)
    assert [a.shape for a in trace.activations] == list(catalog.neuron_shapes)
    corners = (size - 1, size - 1)
    infer(MODEL, scene, fault=_neuron_fault(2, (0, *corners), 30))  # must not raise
    with pytest.raises(ValueError):
        infer(MODEL, scene, fault=_neuron_fault(2, (0, size, 0), 30))
    rows = [sample_fault(catalog, FaultTarget.NEURON, "all_32", seed=s).tensor_coords[1]
            for s in range(200)]
    assert max(rows) >= size - 8


def _patch(scene, row0, row1, col0, col1):
    return row0, row1, col0, col1, scene.pixels[row0:row1, col0:col1].tobytes()


def test_receptive_field_is_the_patch_within_the_exact_radius_of_the_fault_layer():
    # the reference model's 3x3, 1x1, 1x1, 1x1 and 3x3 layers sum to a
    # radius of 2; a fault in L1-L4 has the 3x3 L5 after it, so its pass
    # reads a 7x7 patch, and a fault in L5 a 5x5 one, clipped to the scene
    # at the border
    scene = generate_scene(SPEC, seed=0)
    golden = infer(MODEL, scene)
    inside = receptive_field(MODEL, scene, _neuron_fault(2, (0, 30, 20), 30), golden)
    assert inside == _patch(scene, 27, 34, 17, 24)
    last = receptive_field(MODEL, scene, _neuron_fault(4, (1, 30, 20), 30), golden)
    assert last == _patch(scene, 28, 33, 18, 23)
    corner = receptive_field(MODEL, scene, _neuron_fault(0, (1, 0, 63), 30), golden)
    assert corner == _patch(scene, 0, 4, 60, 64)


def test_receptive_field_keys_on_the_clipped_bounds():
    # a uniform scene gives equal bytes for patches clipped alike, so only
    # the bounds tell a border fault's patch from an inner one's
    scene = Scene(np.full((16, 16), 0.25, dtype=np.float32), ())
    golden = infer(MODEL, scene)
    fields = [receptive_field(MODEL, scene, _neuron_fault(4, (0, row, col), 30), golden)
              for row, col in ((0, 5), (4, 0), (8, 8), (9, 9))]
    assert fields[0][4] == fields[1][4] and fields[0] != fields[1]
    assert fields[2][4] == fields[3][4] and fields[2] != fields[3]


def test_receptive_field_widens_with_a_5x5_layer():
    # radii 2, 0, 0, 0, 1 sum to 3; an L4 fault adds L5's 1, so its pass
    # reads the scene within 4 rows and columns of the pixel
    wide = np.zeros((4, 1, 5, 5), dtype=np.float32)
    wide[:, :, 1:4, 1:4] = MODEL.layers[0].weights
    model = DetectorModel((replace(MODEL.layers[0], weights=wide), *MODEL.layers[1:]))
    scene = generate_scene(SPEC, seed=0)
    golden = infer(model, scene)
    fault = _neuron_fault(3, (0, 30, 20), 30)
    assert receptive_field(model, scene, fault, golden) == _patch(scene, 26, 35, 16, 25)
    for row, inside in ((34, True), (35, False)):  # 4 rows below the pixel, then 5
        pixels = scene.pixels.copy()
        pixels[row, 20] += np.float32(0.5)
        moved = Scene(pixels, scene.objects)
        same = receptive_field(model, moved, fault, infer(model, moved)) == \
            receptive_field(model, scene, fault, golden)
        assert same is not inside


def test_receptive_field_is_none_for_weight_faults():
    scene = generate_scene(SPEC, seed=0)
    golden = infer(MODEL, scene)
    assert receptive_field(MODEL, scene, _weight_fault(4, (1, 4, 1, 1), 30), golden) is None
    assert receptive_field(MODEL, scene, _weight_fault(0, (0, 0, 1, 1), 22), golden) is None


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_receptive_field_is_none_over_a_nonfinite_golden(value):
    # the bad pixel lies far outside the fault's patch: the whole-layer
    # flags of golden are what rule the reuse out
    scene = generate_scene(SPEC, seed=0)
    pixels = scene.pixels.copy()
    pixels[0, 0] = value
    hot = Scene(pixels, scene.objects)
    golden = infer(MODEL, hot)
    assert golden.nan_seen or golden.inf_seen
    assert receptive_field(MODEL, hot, _neuron_fault(2, (0, 30, 20), 30), golden) is None


def test_a_pixel_past_the_summed_radius_can_decide_a_pass():
    # two 3x3 layers sum to a radius of 2, yet the pixel 3 columns from a
    # first-layer fault decides whether the pass changes the detections:
    # the second layer's window reads first-layer values 2 columns away,
    # and each of those reads one column further
    first = np.zeros((1, 1, 3, 3), dtype=np.float32)
    first[0, 0, 1, 2] = 1.0  # the right neighbour
    second = np.zeros((1, 1, 3, 3), dtype=np.float32)
    second[0, 0, 1, :] = 1.0  # a row of three
    model = DetectorModel((ConvLayer(first, np.zeros(1, dtype=np.float32), "relu"),
                           ConvLayer(second, np.full(1, -1.5, dtype=np.float32), "relu")))
    fault = _neuron_fault(0, (0, 0, 3), 30)  # 0.0 -> 2.0
    kept, fields = [], []
    for far in (0.0, 1.0):
        scene = Scene(np.array([[1, 1, 1, 1, 0, 1, far, 0, 0]], dtype=np.float32), ())
        golden = infer(model, scene)
        kept.append(infer(model, scene, fault=fault, golden=golden).detections is golden.detections)
        fields.append(receptive_field(model, scene, fault, golden))
    assert kept == [False, True]
    assert fields[0] != fields[1]
