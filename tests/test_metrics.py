"""Verdict and severity arithmetic against pixel-counting oracles."""

from __future__ import annotations

import pytest

from odfault.bits import FaultDescriptor, FaultMode, FaultTarget
from odfault.geometry import Box, Detection
from odfault.metrics import (
    ImageEval,
    baseline_occupancy,
    bit_averaged,
    classify_image,
    rates,
    severity,
)


def _det(x1, y1, x2, y2, cat=0, conf=0.9):
    return Detection(Box(x1, y1, x2, y2), cat, conf)


def _eval(counts_orig, counts_corr, inf_flag=False, nan_flag=False, image_id="img"):
    return ImageEval(image_id, counts_orig, counts_corr, inf_flag, nan_flag)


# Independent pixel oracle (positive-area overlap, plain loops).
def oracle_count(boxes, width, height, minus=()):
    covered = 0
    for i in range(height):
        for j in range(width):
            def hit(bs):
                for b in bs:
                    if min(b.x2, j + 1) - max(b.x1, j) > 0 and min(b.y2, i + 1) - max(b.y1, i) > 0:
                        return True
                return False
            if hit(boxes) and not hit(minus):
                covered += 1
    return covered


def test_classify_benign_sdc_due():
    assert classify_image(_eval((3, 0, 0), (3, 0, 0))) == "benign"
    assert classify_image(_eval((3, 0, 0), (3, 2, 0))) == "sdc"
    assert classify_image(_eval((3, 0, 0), (3, 2, 0), inf_flag=True)) == "due"
    assert classify_image(_eval((3, 0, 0), (3, 0, 0), nan_flag=True)) == "due"
    # fn change alone is an SDC too
    assert classify_image(_eval((3, 0, 1), (3, 0, 2))) == "sdc"


def test_rates_fixture():
    evals = (
        [_eval((2, 0, 0), (2, 1, 0)) for _ in range(2)]          # 2 sdc
        + [_eval((2, 0, 0), (2, 0, 0), inf_flag=True)]           # 1 due
        + [_eval((2, 0, 0), (2, 0, 0)) for _ in range(7)]        # 7 benign
    )
    assert rates(evals) == (0.2, 0.1)


def test_rates_edge_cases():
    assert rates([_eval((1, 0, 0), (1, 0, 0))]) == (0.0, 0.0)
    assert rates([_eval((1, 0, 0), (0, 0, 1), nan_flag=True)] * 4) == (0.0, 1.0)
    with pytest.raises(ValueError):
        rates([])


def test_due_overrides_sdc():
    e = _eval((5, 0, 0), (1, 3, 4), inf_flag=True)
    assert classify_image(e) == "due"
    sdc_rate, due_rate = rates([e])
    assert sdc_rate == 0.0 and due_rate == 1.0


def test_delta_examples():
    e = _eval((10, 2, 0), (4, 5, 6))
    report = severity(e, [], [], (100, 100))
    assert report.delta_fp == 3
    assert report.delta_fn_n == pytest.approx(0.6)


def test_delta_fn_undefined_when_no_original_tps():
    e = _eval((0, 2, 3), (0, 5, 3))
    report = severity(e, [], [], (100, 100))
    assert report.delta_fn_n is None


def test_negative_deltas_kept_and_flagged():
    e = _eval((2, 3, 1), (3, 1, 0))
    report = severity(e, [], [], (100, 100))
    assert report.delta_fp == -2
    assert report.delta_fn_n == pytest.approx(-0.5)
    assert report.beneficial


def test_occupancy_single_new_fp_box():
    orig = [_det(0, 0, 10, 10)]
    corr = [_det(0, 0, 10, 10), _det(50, 50, 70, 70, conf=0.99)]
    e = _eval((1, 0, 0), (1, 1, 0))
    report = severity(e, orig, corr, (100, 100))
    assert report.a_fp_occ == pytest.approx(0.04, abs=1e-12)
    assert report.a_fn_vac == 0.0


def test_occupancy_matches_pixel_oracle_on_constructed_cases():
    cases = []
    # a batch of hand-constructed (orig, corr) layouts incl. overlaps,
    # fractional coordinates, and zero-width boxes
    cases.append(([_det(0, 0, 10, 10)], [_det(5, 5, 15, 15)]))
    cases.append(([_det(2, 2, 8, 8), _det(10, 10, 20, 20)], [_det(2, 2, 8, 8)]))
    cases.append(([_det(0, 0, 32, 32)], []))
    cases.append(([], [_det(1, 1, 31, 31)]))
    cases.append(([_det(0.5, 0.25, 10.75, 9.5)], [_det(0.5, 0.25, 10.75, 9.5), _det(12.1, 0.9, 19.8, 7.2)]))
    cases.append(([_det(3, 3, 3, 9)], [_det(3, 3, 9, 9)]))              # zero-width orig
    cases.append(([_det(0, 0, 12, 12)], [_det(0, 0, 12, 0.0)]))          # zero-height corr
    cases.append(([_det(0, 0, 8, 8), _det(4, 4, 12, 12)], [_det(6, 6, 14, 14)]))
    cases.append(([_det(0, 0, 1, 1)], [_det(31, 31, 32, 32)]))
    cases.append(([_det(10, 0, 22, 32)], [_det(10, 0, 22, 32), _det(0, 0, 10, 32), _det(22, 0, 32, 32)]))
    width = height = 32
    for orig, corr in cases:
        e = _eval((1, 0, 0), (1, 1, 0))
        report = severity(e, orig, corr, (width, height))
        orig_boxes = [d.box for d in orig]
        corr_boxes = [d.box for d in corr]
        fp_pixels = oracle_count(corr_boxes, width, height, minus=orig_boxes)
        fn_pixels = oracle_count(orig_boxes, width, height, minus=corr_boxes)
        orig_pixels = oracle_count(orig_boxes, width, height)
        assert report.a_fp_occ == pytest.approx(fp_pixels / (width * height), abs=1e-12)
        expected_vac = fn_pixels / orig_pixels if orig_pixels else 0.0
        assert report.a_fn_vac == pytest.approx(expected_vac, abs=1e-12)


def test_confidence_and_size_averages():
    orig = [_det(0, 0, 10, 10, conf=0.8), _det(0, 0, 20, 10, conf=0.6)]
    corr = [_det(0, 0, 40, 50, conf=1.0)]
    e = _eval((2, 0, 0), (1, 0, 1))
    report = severity(e, orig, corr, (100, 100))
    assert report.avg_conf_orig == pytest.approx(0.7)
    assert report.avg_conf_corr == pytest.approx(1.0)
    assert report.avg_size_orig == pytest.approx(150.0)
    assert report.avg_size_corr == pytest.approx(2000.0)


def test_severity_confidence_invariance_of_blob_features():
    orig = [_det(0, 0, 10, 10, conf=0.9)]
    corr = [_det(0, 0, 10, 10, conf=0.9), _det(40, 40, 60, 60, conf=0.7)]
    e = _eval((1, 0, 0), (1, 1, 0))
    base = severity(e, orig, corr, (100, 100))
    scaled_orig = [Detection(d.box, d.category, d.confidence / 2) for d in orig]
    scaled_corr = [Detection(d.box, d.category, d.confidence / 2) for d in corr]
    scaled = severity(e, scaled_orig, scaled_corr, (100, 100))
    assert scaled.a_fp_occ == base.a_fp_occ
    assert scaled.a_fn_vac == base.a_fn_vac
    assert scaled.delta_fp == base.delta_fp
    assert scaled.avg_conf_orig == pytest.approx(base.avg_conf_orig / 2)


def test_a_fn_vac_zero_when_identical():
    dets = [_det(5, 5, 25, 25)]
    e = _eval((1, 0, 0), (1, 0, 0))
    report = severity(e, dets, dets, (64, 64))
    assert report.a_fn_vac == 0.0
    assert report.a_fp_occ == 0.0


def test_delta_fn_is_one_when_all_tps_lost():
    e = _eval((4, 0, 0), (0, 0, 4))
    report = severity(e, [], [], (64, 64))
    assert report.delta_fn_n == 1.0


def test_zero_area_image_rejected():
    with pytest.raises(ValueError):
        severity(_eval((1, 0, 0), (1, 0, 0)), [], [], (0, 100))


def _descriptor(bit):
    return FaultDescriptor(FaultTarget.NEURON, 0, (0, 0, 0), bit, FaultMode.TRANSIENT_FLIP)


def test_bit_averaged_grouping():
    def rep(delta_fp, verdict="sdc", delta_fn_n=None):
        from odfault.metrics import SdcReport
        return SdcReport(verdict, delta_fp, delta_fn_n, None, None, None, None, 0.0, 0.0)

    reports = [
        (_descriptor(30), rep(10)),
        (_descriptor(30), rep(20)),
        (_descriptor(23), rep(4, delta_fn_n=0.5)),
        (_descriptor(23), rep(0, delta_fn_n=None)),
        (_descriptor(5), rep(99, verdict="benign")),
    ]
    out = bit_averaged(reports)
    assert out[30]["mean_delta_fp"] == 15.0
    assert out[30]["count"] == 2
    assert out[23]["mean_delta_fp"] == 2.0
    assert out[23]["mean_delta_fn_n"] == 0.5
    assert 5 not in out


def test_baseline_occupancy_examples():
    dets = [_det(0, 0, 20, 20)]
    assert baseline_occupancy(dets, dets, (100, 100)) == (0.0, 0.0)

    gts = [_det(0, 0, 20, 20)]
    dets_extra = [_det(0, 0, 20, 20), _det(50, 50, 60, 60)]
    a_occ, a_vac = baseline_occupancy(dets_extra, gts, (100, 100))
    assert a_occ == pytest.approx(0.01, abs=1e-12)
    assert a_vac == 0.0

    dets_small = [_det(0, 0, 20, 20)]
    gts_big = [_det(0, 0, 20, 20), _det(50, 50, 60, 60)]
    a_occ, a_vac = baseline_occupancy(dets_small, gts_big, (100, 100))
    assert a_occ == 0.0
    assert a_vac == pytest.approx(100 / 400, abs=1e-12)


def test_baseline_occupancy_empty_detections():
    gts = [_det(0, 0, 10, 10)]
    a_occ, a_vac = baseline_occupancy([], gts, (100, 100))
    assert a_occ == 0.0
    assert a_vac is None
