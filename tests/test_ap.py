"""AP evaluation against from-scratch integration oracles."""

from __future__ import annotations

import numpy as np
import pytest

from odfault.ap import (
    SyntheticSet,
    SyntheticSetConfig,
    average_precision,
    generate_synthetic_set,
    mean_average_precision,
    perturb_set,
    pr_curves,
    synthetic_ap50,
    synthetic_pr_curve,
)
from odfault.geometry import Box, Detection


# Independent oracles working directly on (confidence, is_tp) lists.
def oracle_ap_area(flags, n_gt):
    """Exact area under the precision envelope, step by step."""
    flags = sorted(flags, key=lambda t: (-t[0], not t[1]))
    recalls, precisions = [], []
    tp = 0
    for k, (_, is_tp) in enumerate(flags, 1):
        tp += int(is_tp)
        recalls.append(tp / n_gt if n_gt else 0.0)
        precisions.append(tp / k)
    area = 0.0
    prev = 0.0
    for k, r in enumerate(recalls):
        if r > prev:
            area += (r - prev) * max(precisions[k:])
            prev = r
    return area


def oracle_ap_101(flags, n_gt):
    flags = sorted(flags, key=lambda t: (-t[0], not t[1]))
    recalls, precisions = [], []
    tp = 0
    for k, (_, is_tp) in enumerate(flags, 1):
        tp += int(is_tp)
        recalls.append(tp / n_gt if n_gt else 0.0)
        precisions.append(tp / k)
    total = 0.0
    for i in range(101):
        r = i / 100
        candidates = [p for rr, p in zip(recalls, precisions) if rr >= r]
        total += max(candidates) if candidates else 0.0
    return total / 101


def test_hand_example_three_predictions():
    # (0.9, TP), (0.8, FP), (0.7, TP) with 2 ground truths
    flags = [(0.9, True), (0.8, False), (0.7, True)]
    s = SyntheticSet(tp_confidences=(0.9, 0.7), fp_confidences=(0.8,), n_objects=2)
    assert synthetic_ap50(s, interpolation="area") == pytest.approx(
        0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12)
    assert synthetic_ap50(s, interpolation="area") == pytest.approx(
        oracle_ap_area(flags, 2), abs=1e-12)
    assert synthetic_ap50(s, interpolation="101") == pytest.approx(
        oracle_ap_101(flags, 2), abs=1e-12)


def test_matches_oracles_on_random_populations():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n_gt = int(rng.integers(1, 40))
        n_tp = int(rng.integers(0, n_gt + 1))
        n_fp = int(rng.integers(0, 30))
        s = SyntheticSet(
            tuple(rng.uniform(0, 1, n_tp).tolist()),
            tuple(rng.uniform(0, 1, n_fp).tolist()),
            n_gt,
        )
        flags = [(c, True) for c in s.tp_confidences] + [(c, False) for c in s.fp_confidences]
        assert synthetic_ap50(s, "area") == pytest.approx(oracle_ap_area(flags, n_gt), abs=1e-9)
        assert synthetic_ap50(s, "101") == pytest.approx(oracle_ap_101(flags, n_gt), abs=1e-9)


def test_perfect_detector_and_empty_predictions():
    perfect = SyntheticSet(tuple([0.9] * 10), (), 10)
    assert synthetic_ap50(perfect, "area") == 1.0
    assert synthetic_ap50(perfect, "101") == 1.0
    empty = SyntheticSet((), (), 10)
    assert synthetic_ap50(empty) == 0.0


def test_adding_fp_never_increases_ap():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_gt = int(rng.integers(1, 30))
        s = SyntheticSet(
            tuple(rng.uniform(0, 1, int(rng.integers(0, n_gt + 1))).tolist()),
            tuple(rng.uniform(0, 1, int(rng.integers(0, 10))).tolist()),
            n_gt,
        )
        for mode in ("area", "101"):
            base = synthetic_ap50(s, mode)
            worse = perturb_set(s, add_fps=(1, (0.0, 1.0)), seed=int(rng.integers(1 << 30)))
            assert synthetic_ap50(worse, mode) <= base + 1e-12


def test_removing_tp_never_increases_ap():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n_gt = int(rng.integers(2, 30))
        n_tp = int(rng.integers(1, n_gt + 1))
        s = SyntheticSet(
            tuple(rng.uniform(0, 1, n_tp).tolist()),
            tuple(rng.uniform(0, 1, int(rng.integers(0, 10))).tolist()),
            n_gt,
        )
        for mode in ("area", "101"):
            base = synthetic_ap50(s, mode)
            worse = perturb_set(s, remove_tps=1, seed=int(rng.integers(1 << 30)))
            assert synthetic_ap50(worse, mode) <= base + 1e-12


def test_generate_synthetic_set_statistics():
    cfg = SyntheticSetConfig(n_objects=100, p_tp=0.7, fp_rate=0.3, conf_range=(0.7, 1.0), seed=11)
    s = generate_synthetic_set(cfg)
    assert generate_synthetic_set(cfg) == s  # deterministic
    # binomial expectations: ~70 TPs, ~21 FPs; allow 4 sigma
    assert abs(len(s.tp_confidences) - 70) < 4 * np.sqrt(100 * 0.7 * 0.3)
    assert abs(len(s.fp_confidences) - 0.3 * len(s.tp_confidences)) < 4 * np.sqrt(70 * 0.3)
    all_conf = s.tp_confidences + s.fp_confidences
    assert all(0.7 <= c <= 1.0 for c in all_conf)


def test_degenerate_probabilities():
    perfect = generate_synthetic_set(SyntheticSetConfig(p_tp=1.0, fp_rate=0.0, seed=2))
    assert synthetic_ap50(perfect) == 1.0
    hopeless = generate_synthetic_set(SyntheticSetConfig(p_tp=0.0, seed=2))
    assert synthetic_ap50(hopeless) == 0.0


def test_perturb_set_edge_cases():
    s = generate_synthetic_set(SyntheticSetConfig(seed=3))
    assert perturb_set(s, remove_tps=0) == s
    with pytest.raises(ValueError):
        perturb_set(s, remove_tps=len(s.tp_confidences) + 1)
    grown = perturb_set(s, add_fps=(5, (0.0, 0.2)), seed=1)
    assert len(grown.fp_confidences) == len(s.fp_confidences) + 5


def test_tail_fps_leave_ap_unchanged():
    s = generate_synthetic_set(SyntheticSetConfig(seed=4))
    flooded = perturb_set(s, add_fps=(500, (0.0, 0.2)), seed=9)
    for mode in ("area", "101"):
        assert synthetic_ap50(flooded, mode) == pytest.approx(synthetic_ap50(s, mode), abs=1e-12)


def test_head_fps_crush_ap():
    s = generate_synthetic_set(SyntheticSetConfig(seed=4))
    spiked = perturb_set(s, add_fps=(100, (0.9, 1.0)), seed=9)
    assert synthetic_ap50(s) - synthetic_ap50(spiked) > 0.2


def _det(x1, y1, x2, y2, cat=0, conf=0.9):
    return Detection(Box(x1, y1, x2, y2), cat, conf)


def test_geometry_path_single_image():
    gts = {"img": [_det(0, 0, 10, 10, cat=1, conf=1.0), _det(20, 0, 30, 10, cat=1, conf=1.0)]}
    preds = {"img": [
        _det(0, 0, 10, 10, cat=1, conf=0.9),          # TP
        _det(50, 50, 60, 60, cat=1, conf=0.8),        # FP
        _det(20, 0, 29, 10, cat=1, conf=0.7),         # TP (iou 0.9)
    ]}
    result = average_precision(preds, gts, 0.5, interpolation="area")
    assert result.per_category[1] == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-12)
    assert result.mean == result.per_category[1]


@pytest.mark.parametrize("step", [1, -1])
def test_geometry_path_gt_matched_once(step):
    # whichever comes first in the image, the more confident duplicate takes the gt
    gts = {"img": [_det(0, 0, 10, 10, cat=0, conf=1.0)]}
    preds = {"img": [_det(0, 0, 10, 10, cat=0, conf=0.9),
                     _det(0, 0, 10, 10, cat=0, conf=0.8)][::step]}
    result = average_precision(preds, gts, 0.5, interpolation="area")
    # second duplicate prediction is an FP; envelope keeps AP at 1.0
    assert result.mean == pytest.approx(1.0)
    curve = pr_curves(preds, gts)[0]
    assert curve.points == ((1.0, 1.0), (1.0, 0.5))


def test_iou_ties_go_to_the_lowest_gt_index():
    # the first prediction overlaps both halves of its square at IoU 0.5; taking
    # gt 0 leaves the second prediction, which only reaches gt 0, unmatched
    gts = {"img": [_det(0, 0, 10, 5, conf=1.0), _det(0, 5, 10, 10, conf=1.0)]}
    preds = {"img": [_det(0, 0, 10, 10, conf=0.9), _det(0, 0, 10, 6, conf=0.8)]}
    assert pr_curves(preds, gts)[0].points == ((0.5, 1.0), (0.5, 0.5))
    assert pr_curves(preds, gts, 0.6)[0].points == ((0.0, 0.0), (0.5, 0.5))


@pytest.mark.parametrize("a, b", [("a", "b"), (1, "1")])
def test_each_image_matches_its_own_ground_truth(a, b):
    # gt 0 of a and gt 0 of b are different objects, so both predictions
    # match, even when the two ids share one string
    gts = {a: [_det(0, 0, 10, 10, conf=1.0)], b: [_det(0, 0, 10, 10, conf=1.0)]}
    preds = {a: [_det(0, 0, 10, 10, conf=0.9)], b: [_det(0, 0, 10, 10, conf=0.8)]}
    assert pr_curves(preds, gts)[0].points == ((0.5, 1.0), (1.0, 1.0))


def test_equal_image_id_strings_rank_by_position():
    # 1 and "1" tie on str(image_id), so position decides: "1"'s detection 0
    # (a TP) ranks before 1's detection 1 (an FP) at equal confidence
    gts = {"1": [_det(0, 0, 10, 10, conf=1.0)]}
    preds = {1: [_det(0, 0, 10, 10, cat=5, conf=0.5), _det(20, 20, 30, 30, conf=0.5)],
             "1": [_det(0, 0, 10, 10, conf=0.5)]}
    assert pr_curves(preds, gts)[0].points == ((1.0, 1.0), (1.0, 0.5))


def test_categories_absent_from_gt_are_excluded():
    gts = {"img": [_det(0, 0, 10, 10, cat=0, conf=1.0)]}
    preds = {"img": [_det(0, 0, 10, 10, cat=0, conf=0.9), _det(30, 30, 40, 40, cat=7, conf=0.9)]}
    result = average_precision(preds, gts)
    assert set(result.per_category) == {0}
    assert result.mean == pytest.approx(1.0)


def test_map_threshold_sweep():
    # one prediction at IoU exactly 0.6 passes thresholds 0.50, 0.55, 0.60
    gts = {"img": [_det(0, 0, 10, 10, cat=0, conf=1.0)]}
    preds = {"img": [_det(0, 0, 6, 10, cat=0, conf=0.9)]}
    value = mean_average_precision(preds, gts)
    assert value == pytest.approx(3 / 10, abs=1e-12)


def test_synthetic_pr_curve_recall_monotone():
    s = generate_synthetic_set(SyntheticSetConfig(seed=13))
    recalls = [r for r, _ in synthetic_pr_curve(s).points]
    assert recalls == sorted(recalls)
