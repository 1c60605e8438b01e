"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; campaign-based criteria run on
frozen seeds so the whole suite is exactly reproducible.
"""

from __future__ import annotations

import csv
import itertools
import math
import struct
import time
from collections import defaultdict

import numpy as np
import pytest

from odfault.ap import SyntheticSetConfig, generate_synthetic_set, perturb_set, synthetic_ap50
from odfault.bits import FP32, FaultMode, FaultTarget, apply_fault, apply_fault_bits, classify_value, sample_fault
from odfault.campaign import CampaignConfig, run_permanent, run_transient
from odfault.detector import SceneSpec, generate_scene, infer, reference_model, shape_catalog
from odfault.geometry import Box, Detection
from odfault.matching import assign, build_cost_matrix
from odfault.metrics import ImageEval, classify_image, rates, severity
from odfault.persistence import TrackerConfig, track

FLIP = FaultMode.TRANSIENT_FLIP
SA1 = FaultMode.STUCK_AT_1


def _pass(number, message):
    print(f"\nACCEPTANCE {number}: PASS - {message}")


# -------------------------------------------------------------------------
# 1. Hungarian assignment equals the exhaustive-permutation optimum


_PERM_CACHE: dict = {}


def _perm_array(m, n):
    key = (m, n)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(
            list(itertools.permutations(range(m), n)), dtype=np.int64).reshape(-1, max(n, 1))
    return _PERM_CACHE[key]


def _oracle_min_cost(matrix: np.ndarray) -> float:
    n, m = matrix.shape
    if n == 0 or m == 0:
        return 0.0
    if n <= m:
        perms = _perm_array(m, n)
        return float(matrix[np.arange(n)[None, :], perms].sum(axis=1).min())
    perms = _perm_array(n, m)
    return float(matrix[perms, np.arange(m)[None, :]].sum(axis=1).min())


def test_criterion_1_hungarian_oracle():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(0, 8))
        m = int(rng.integers(0, 8))
        preds, gts = [], []
        for _ in range(n):
            x, y = rng.uniform(0, 40, 2)
            preds.append(Detection(Box(x, y, x + rng.uniform(1, 15), y + rng.uniform(1, 15)),
                                   int(rng.integers(0, 3)), float(rng.uniform(0, 1))))
        for _ in range(m):
            x, y = rng.uniform(0, 40, 2)
            gts.append(Detection(Box(x, y, x + rng.uniform(1, 15), y + rng.uniform(1, 15)),
                                 int(rng.integers(0, 3)), 1.0))
        outcome = assign(preds, gts)
        if not preds or not gts:
            assert outcome.pairs == ()
            continue
        matrix = np.array(build_cost_matrix(preds, gts))
        sentinel = float(len(preds)) + 1.0
        total = sum(matrix[r][c] for r, c, _ in outcome.pairs) \
            + sentinel * (min(n, m) - len(outcome.pairs))
        assert total == pytest.approx(_oracle_min_cost(matrix), abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(1, f"assignment cost equals brute force on {checked} instances in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. IEEE-754 corruption agrees with an independent struct decoder


def _oracle_decode(pattern):
    return struct.unpack("<f", struct.pack("<I", pattern))[0]


def test_criterion_2_ieee754_oracle():
    rng = np.random.default_rng(2002)
    patterns = rng.integers(0, 1 << 32, size=100000, dtype=np.uint64).tolist()
    bits = rng.integers(0, 32, size=100000).tolist()
    for pattern, bit in zip(patterns, bits):
        flipped = apply_fault_bits(pattern, bit, FLIP)
        assert flipped == pattern ^ (1 << bit)
        value = FP32.from_bits(pattern)
        assert FP32.to_bits(apply_fault(value, bit, FLIP)) == flipped

        # classification against the stdlib decoder
        decoded = _oracle_decode(pattern)
        expected = "inf" if math.isinf(decoded) else ("nan" if math.isnan(decoded) else "regular")
        assert classify_value(value) == expected

        # involution and idempotence, bit-exactly
        assert apply_fault_bits(flipped, bit, FLIP) == pattern
        sa1 = apply_fault_bits(pattern, bit, SA1)
        assert apply_fault_bits(sa1, bit, SA1) == sa1
        sa0 = apply_fault_bits(pattern, bit, FaultMode.STUCK_AT_0)
        assert apply_fault_bits(sa0, bit, FaultMode.STUCK_AT_0) == sa0
    _pass(2, "bit corruption and NaN/Inf classification match the struct oracle on 100000 draws")


# -------------------------------------------------------------------------
# 3. Image-wise rate fixture


def test_criterion_3_rate_fixture():
    evals = []
    evals.append(ImageEval("sdc-a", (3, 0, 0), (3, 2, 0)))
    evals.append(ImageEval("sdc-b", (4, 1, 0), (2, 1, 2)))
    # detectable event whose counts changed too: must count as DUE, not SDC
    due_with_changes = ImageEval("due-a", (3, 0, 0), (0, 7, 3), inf_flag=True)
    evals.append(due_with_changes)
    evals.extend(ImageEval(f"benign-{k}", (2, 1, 1), (2, 1, 1)) for k in range(7))

    assert classify_image(due_with_changes) == "due"
    assert rates(evals) == (0.2, 0.1)
    _pass(3, "10-image fixture yields rates (0.2, 0.1) exactly; DUE shadows SDC")


# -------------------------------------------------------------------------
# 4. Severity features match pixel-count/arithmetic oracles to 1e-12


def _oracle_pixels(boxes, width, height, minus=()):
    count = 0
    for i in range(height):
        for j in range(width):
            def covered(group):
                return any(
                    min(b.x2, j + 1) - max(b.x1, j) > 0 and min(b.y2, i + 1) - max(b.y1, i) > 0
                    for b in group)
            if covered(boxes) and not covered(minus):
                count += 1
    return count


def test_criterion_4_severity_fixture_oracles():
    width = height = 32

    def det(x1, y1, x2, y2, conf=0.8):
        return Detection(Box(x1, y1, x2, y2), 0, conf)

    cases = [
        # (counts_orig, counts_corr, dets_orig, dets_corr)
        ((1, 0, 0), (1, 1, 0), [det(0, 0, 10, 10)], [det(0, 0, 10, 10), det(20, 20, 28, 28)]),
        ((2, 0, 0), (1, 0, 1), [det(0, 0, 10, 10), det(12, 12, 20, 20)], [det(0, 0, 10, 10)]),
        ((10, 2, 0), (4, 5, 6), [det(0, 0, 32, 32)], [det(0, 0, 16, 32)]),
        ((0, 2, 3), (0, 6, 3), [], [det(4, 4, 9, 9)]),                      # tp_orig = 0
        ((1, 0, 0), (1, 0, 0), [det(3, 3, 3, 9)], [det(3, 3, 9, 9)]),       # zero-width orig
        ((1, 0, 0), (1, 0, 0), [det(0, 0, 12, 12)], [det(0, 0, 12, 0)]),    # zero-height corr
        ((1, 1, 0), (1, 1, 0), [det(0.5, 0.25, 10.75, 9.5)],
         [det(0.5, 0.25, 10.75, 9.5), det(12.1, 0.9, 19.8, 7.2)]),
        ((3, 0, 0), (3, 0, 0), [det(0, 0, 8, 8), det(4, 4, 12, 12)], [det(6, 6, 14, 14)]),
        ((1, 0, 0), (0, 1, 1), [det(10, 0, 22, 32)],
         [det(10, 0, 22, 32), det(0, 0, 10, 32), det(22, 0, 32, 32)]),
        ((5, 5, 0), (5, 3, 0), [det(0, 0, 1, 1)], [det(31, 31, 32, 32)]),   # negative delta
        ((2, 0, 1), (0, 0, 3), [det(2, 2, 30, 30)], []),
    ]
    for counts_orig, counts_corr, dets_orig, dets_corr in cases:
        evaluation = ImageEval("case", counts_orig, counts_corr)
        report = severity(evaluation, dets_orig, dets_corr, (width, height))

        assert report.delta_fp == counts_corr[1] - counts_orig[1]
        if counts_orig[0] == 0:
            assert report.delta_fn_n is None
        else:
            expected = (counts_orig[0] - counts_corr[0]) / counts_orig[0]
            assert report.delta_fn_n == pytest.approx(expected, abs=1e-12)

        orig_boxes = [d.box for d in dets_orig]
        corr_boxes = [d.box for d in dets_corr]
        fp_pixels = _oracle_pixels(corr_boxes, width, height, minus=orig_boxes)
        fn_pixels = _oracle_pixels(orig_boxes, width, height, minus=corr_boxes)
        orig_pixels = _oracle_pixels(orig_boxes, width, height)
        assert report.a_fp_occ == pytest.approx(fp_pixels / (width * height), abs=1e-12)
        expected_vac = fn_pixels / orig_pixels if orig_pixels else 0.0
        assert report.a_fn_vac == pytest.approx(expected_vac, abs=1e-12)

        if dets_orig:
            assert report.avg_conf_orig == pytest.approx(
                sum(d.confidence for d in dets_orig) / len(dets_orig), abs=1e-12)
            assert report.avg_size_orig == pytest.approx(
                sum(d.box.area for d in dets_orig) / len(dets_orig), abs=1e-12)
    _pass(4, f"severity features match pixel/arithmetic oracles to 1e-12 on {len(cases)} cases")


# -------------------------------------------------------------------------
# 5. Metric-sensitivity mechanism on the synthetic population


def test_criterion_5_ap_sensitivity_mechanism():
    started = time.perf_counter()
    cfg = SyntheticSetConfig(n_objects=100, p_tp=0.7, fp_rate=0.3,
                             conf_range=(0.7, 1.0), seed=4)
    baseline = generate_synthetic_set(cfg)
    base_ap = synthetic_ap50(baseline)

    flooded = perturb_set(baseline, add_fps=(500, (0.0, 0.2)), seed=9)
    spiked = perturb_set(baseline, add_fps=(100, (0.9, 1.0)), seed=9)
    flood_change = abs(synthetic_ap50(flooded) - base_ap)
    spike_drop = base_ap - synthetic_ap50(spiked)
    elapsed = time.perf_counter() - started

    assert flood_change < 0.02
    assert spike_drop > 0.2
    assert elapsed < 1.0
    _pass(5, f"500 tail FPs shift AP50 by {flood_change:.4f} (<0.02); "
             f"100 head FPs drop it by {spike_drop:.3f} (>0.2) in {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 6. Bit-position pattern of the transient campaigns


def _campaign_bit_stats(tmp_path, target):
    cfg = CampaignConfig.from_json({
        "mode": "transient", "seed": 202, "target": target,
        "n_injections": 1000, "scene": {"pool": 100}, "workers": 1,
    })
    out = tmp_path / target
    run_transient(cfg, out)
    sdc_delta_fp = defaultdict(list)
    draws = defaultdict(int)
    sdc = defaultdict(int)
    with open(out / "injections.csv") as handle:
        for row in list(csv.reader(handle))[1:]:
            bit = int(row[4])
            band = "mantissa" if bit <= 22 else ("exponent" if bit <= 30 else "sign")
            draws[band] += 1
            if row[7] == "sdc":
                sdc[band] += 1
                sdc_delta_fp[bit].append(int(row[8]))
    bitavg = {bit: sum(v) / len(v) for bit, v in sdc_delta_fp.items()}
    return bitavg, draws, sdc


def test_criterion_6_bit_position_pattern(tmp_path):
    started = time.perf_counter()
    neuron_avg, neuron_draws, neuron_sdc = _campaign_bit_stats(tmp_path, "neuron")
    weight_avg, weight_draws, weight_sdc = _campaign_bit_stats(tmp_path, "weight")
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0

    # neurons: positive false-object mass concentrated in exponent bits 28-30
    neuron_mass = {bit: max(value, 0.0) for bit, value in neuron_avg.items()}
    total = sum(neuron_mass.values())
    assert total > 0
    high = sum(value for bit, value in neuron_mass.items() if 28 <= bit <= 30)
    assert high >= 0.9 * total

    # weights: the exponent MSB dominates
    weight_mass = {bit: max(value, 0.0) for bit, value in weight_avg.items()}
    assert 30 in weight_mass and weight_mass[30] > 0
    assert weight_mass[30] == max(weight_mass.values())
    assert weight_mass[30] >= 0.5 * sum(weight_mass.values())

    # mantissa flips are at least two orders quieter than exponent flips
    mantissa_rate = (neuron_sdc["mantissa"] + weight_sdc["mantissa"]) / \
        (neuron_draws["mantissa"] + weight_draws["mantissa"])
    exponent_rate = (neuron_sdc["exponent"] + weight_sdc["exponent"]) / \
        (neuron_draws["exponent"] + weight_draws["exponent"])
    assert exponent_rate > 0
    assert mantissa_rate < 0.01 * exponent_rate
    _pass(6, f"neuron dFP mass in bits 28-30: {high / total:.2f}; weight MSB share "
             f"{weight_mass[30] / sum(weight_mass.values()):.2f}; mantissa/exponent sdc "
             f"{mantissa_rate:.5f}/{exponent_rate:.5f}; {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 7. Mantissa and stuck-at-1 direction neutrality


def _trace_key(trace):
    return (
        tuple((d.box.as_tuple(), d.category, d.confidence) for d in trace.detections),
        trace.nan_seen,
        trace.inf_seen,
    )


def test_criterion_7_mantissa_and_direction_neutrality():
    model = reference_model()
    catalog = shape_catalog(model)
    spec = SceneSpec()
    scenes = [generate_scene(spec, s) for s in range(50)]
    baselines = [infer(model, scene) for scene in scenes]
    baseline_keys = [_trace_key(t) for t in baselines]

    identical = 0
    for i in range(500):
        target = FaultTarget.NEURON if i % 2 == 0 else FaultTarget.WEIGHT
        fault = sample_fault(catalog, target, "mantissa_only", seed=10_000 + i)
        trace = infer(model, scenes[i % 50], fault=fault)
        identical += _trace_key(trace) == baseline_keys[i % 50]
    assert identical >= 0.99 * 500

    # stuck-at-1 on bits that are already set must be a no-op, always
    activation_cache = {}
    checked = benign = 0
    i = 0
    while checked < 100 and i < 8000:
        target = FaultTarget.NEURON if i % 2 == 0 else FaultTarget.WEIGHT
        fault = sample_fault(catalog, target, "exponent_only", seed=700_000 + i, mode=SA1)
        scene_idx = i % 50
        if target == FaultTarget.WEIGHT:
            value = model.layers[fault.layer_index].weights[fault.tensor_coords]
        else:
            if scene_idx not in activation_cache:
                activation_cache[scene_idx] = infer(model, scenes[scene_idx]).activations
            value = activation_cache[scene_idx][fault.layer_index][fault.tensor_coords]
        i += 1
        if not (FP32.to_bits(value) >> fault.bit) & 1:
            continue
        checked += 1
        trace = infer(model, scenes[scene_idx], fault=fault)
        benign += _trace_key(trace) == baseline_keys[scene_idx]
    assert checked == 100
    assert benign == checked
    _pass(7, f"mantissa flips bit-identical in {identical}/500 runs; "
             f"stuck-at-1 on set bits benign in {benign}/{checked}")


# -------------------------------------------------------------------------
# 8. M/N tracker against a hand-stepped oracle


def _chebyshev_dilate(mask, radius):
    if radius == 0:
        return mask.copy()
    rows, cols = mask.shape
    out_rows = np.zeros_like(mask)
    for dy in range(-radius, radius + 1):
        length = rows - abs(dy)
        if length <= 0:
            continue
        src = max(0, -dy)
        dst = max(0, dy)
        out_rows[dst:dst + length, :] |= mask[src:src + length, :]
    out = np.zeros_like(mask)
    for dx in range(-radius, radius + 1):
        length = cols - abs(dx)
        if length <= 0:
            continue
        src = max(0, -dx)
        dst = max(0, dx)
        out[:, dst:dst + length] |= out_rows[:, src:src + length]
    return out


def _oracle_track(blobs, m, n, vicinity, coasting):
    masks = []
    for t in range(len(blobs)):
        if t < n - 1:
            masks.append(np.zeros_like(blobs[0]))
            continue
        counts = np.zeros(blobs[0].shape, dtype=int)
        for frame in blobs[t - n + 1: t + 1]:
            counts = counts + frame.astype(int)
        strong = counts >= m
        persistent = blobs[t] & _chebyshev_dilate(strong, vicinity)
        if coasting:
            persistent = persistent | (~blobs[t] & strong)
        masks.append(persistent)
    return masks


def _hand_sequence():
    # the fast lane sits >50 px (Chebyshev) below every other blob so the
    # vicinity window cannot borrow persistence from the slow lane
    frames = []
    for t in range(20):
        frame = np.zeros((120, 160), dtype=bool)
        if t >= 4:
            frame[5:13, 10:27] = True                  # appearing static blob
        slow_c = 10 + 3 * t                            # slow mover, 3 px/frame
        frame[20:28, slow_c:slow_c + 34] = True
        fast_c = (5 + 45 * t) % 148                    # fast mover, 45 px/frame
        frame[100:108, fast_c:fast_c + 12] = True
        if t <= 13:
            frame[5:13, 120:133] = True                # disappearing blob
        frames.append(frame)
    return frames


def test_criterion_8_tracker_step_through():
    frames = _hand_sequence()
    for coasting in (True, False):
        cfg = TrackerConfig(m=10, n=15, vicinity_px=50, coasting=coasting)
        got = track(frames, cfg)
        expected = _oracle_track(frames, 10, 15, 50, coasting)
        for frame_idx, (g, e) in enumerate(zip(got, expected)):
            assert np.array_equal(g, e), f"frame {frame_idx}, coasting={coasting}"

    with_coasting = track(frames, TrackerConfig(m=10, n=15, vicinity_px=50, coasting=True))
    without = track(frames, TrackerConfig(m=10, n=15, vicinity_px=50, coasting=False))

    # appearing static blob: persistent once it has 10 frames of history
    assert with_coasting[14][8, 15] and without[14][8, 15]
    # disappearing blob: kept alive by coasting only, and expires at t=19
    assert with_coasting[14][8, 125] and with_coasting[18][8, 125]
    assert not without[14][8, 125]
    assert not with_coasting[19][8, 125]
    # slow mover: the leading edge is persistent only via the vicinity rule
    lead_col = 10 + 3 * 19 + 30
    assert without[19][24, lead_col]
    # fast mover: never persistent anywhere in its lane
    for t in range(14, 20):
        assert not with_coasting[t][100:108, :].any()
    _pass(8, "20-frame hand sequence matches the step-through oracle exactly "
             "(coasting on and off)")


# -------------------------------------------------------------------------
# 9. Permanent-fault campaign end to end


def test_criterion_9_permanent_end_to_end(tmp_path):
    cfg = CampaignConfig.from_json({
        "mode": "permanent", "seed": 34, "target": "neuron",
        "n_injections": 100, "sequence": {"n_frames": 60}, "workers": 1,
    })
    report = run_permanent(cfg, tmp_path)

    # (a) at least one fault manifests as a persistent FP blob at L = 0
    level0 = report["fp_rates_at_level"]["0.0"]
    assert level0 > 0

    # (b) severity maps are antitone in L for every fault
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

    # (c) rescaled rates are raw rates x 0.25, exactly
    for table, rescaled in (("fp_rates_at_level", "fp_rates_at_level_rescaled"),
                            ("fn_rates_at_level", "fn_rates_at_level_rescaled")):
        for key, raw in report[table].items():
            assert report[rescaled][key] == raw * 0.25
    _pass(9, f"100 stuck-at-1 exponent injections: persistent-FP rate at L=0 "
             f"is {level0:.2f} (rescaled {report['fp_rates_at_level_rescaled']['0.0']:.4f})")


# -------------------------------------------------------------------------
# 10. Byte-identical campaign reports at 1 and 8 workers


def _file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_criterion_10_determinism(tmp_path):
    transient = {"mode": "transient", "seed": 9, "n_injections": 100, "scene": {"pool": 25}}
    out_a, out_b, out_c = tmp_path / "t1", tmp_path / "t1re", tmp_path / "t8"
    run_transient(CampaignConfig.from_json(dict(transient, workers=1)), out_a)
    run_transient(CampaignConfig.from_json(dict(transient, workers=1)), out_b)
    run_transient(CampaignConfig.from_json(dict(transient, workers=8)), out_c)
    for name in ("injections.csv", "bit_averages.csv", "report.json"):
        assert _file_bytes(out_a / name) == _file_bytes(out_b / name)
        assert _file_bytes(out_a / name) == _file_bytes(out_c / name)

    permanent = {"mode": "permanent", "seed": 5, "n_injections": 16,
                 "sequence": {"n_frames": 20}}
    out_d, out_e = tmp_path / "p1", tmp_path / "p8"
    run_permanent(CampaignConfig.from_json(dict(permanent, workers=1)), out_d)
    run_permanent(CampaignConfig.from_json(dict(permanent, workers=8)), out_e)
    for name in ("injections.csv", "occupancy_series.csv", "report.json"):
        assert _file_bytes(out_d / name) == _file_bytes(out_e / name)
    _pass(10, "transient and permanent campaigns byte-identical at 1 vs 8 workers")
