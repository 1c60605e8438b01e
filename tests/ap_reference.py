"""Per-threshold greedy AP: the test oracle for ``odfault.ap``.

It shares no ranking, matching or precision-recall code with
``odfault.ap``. Every threshold re-ranks each category's detections and
recomputes every IoU with ``geometry.iou``; every precision/recall point is
a Python division. Only the result containers (``ApResult``, ``PrCurve``)
are the package's own.
"""

from __future__ import annotations

import numpy as np

from odfault.ap import MAP_THRESHOLDS, ApResult, PrCurve
from odfault.geometry import iou


def ranked_outcomes(preds_by_image, gts_by_image, category, iou_threshold):
    """Confidence-ranked TP/FP flags for one category, plus the gt count."""
    ranked = []
    for image_id in sorted(preds_by_image, key=str):
        for idx, det in enumerate(preds_by_image[image_id]):
            if det.category == category:
                ranked.append((-det.confidence, str(image_id), idx, image_id, det))
    ranked.sort(key=lambda item: item[:3])

    n_gt = 0
    open_gts = {}
    for image_id in gts_by_image:
        gts = [g for g in gts_by_image[image_id] if g.category == category]
        n_gt += len(gts)
        open_gts[image_id] = gts

    flags = []
    matched: dict[object, set[int]] = {}
    for _, _, _, image_id, det in ranked:
        candidates = open_gts.get(image_id, [])
        used = matched.setdefault(image_id, set())
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(candidates):
            if j in used:
                continue
            overlap = iou(det.box, g.box)
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_j >= 0:
            used.add(best_j)
            flags.append((det.confidence, True))
        else:
            flags.append((det.confidence, False))
    return flags, n_gt


def pr_points(flags, n_gt):
    tp_cum = 0
    points = []
    for k, (_, is_tp) in enumerate(flags, start=1):
        tp_cum += int(is_tp)
        recall = tp_cum / n_gt if n_gt else 0.0
        points.append((recall, tp_cum / k))
    return points


def ap_from_points(points, interpolation):
    if not points:
        return 0.0
    recalls = np.array([r for r, _ in points])
    precisions = np.array([p for _, p in points])
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    if interpolation == "101":
        grid = np.arange(101) / 100.0
        idx = np.searchsorted(recalls, grid, side="left")
        values = np.where(idx < len(points), envelope[np.minimum(idx, len(points) - 1)], 0.0)
        return float(values.mean())
    if interpolation == "area":
        area = 0.0
        prev_recall = 0.0
        for k in range(len(points)):
            r = recalls[k]
            if r > prev_recall:
                area += (r - prev_recall) * envelope[k]
                prev_recall = r
        return float(area)
    raise ValueError(f"unknown interpolation {interpolation!r}")


def average_precision(preds_by_image, gts_by_image, iou_threshold=0.5, interpolation="101"):
    categories = sorted({g.category for gts in gts_by_image.values() for g in gts})
    per_category = {}
    for category in categories:
        flags, n_gt = ranked_outcomes(preds_by_image, gts_by_image, category, iou_threshold)
        if n_gt == 0:
            continue
        per_category[category] = ap_from_points(pr_points(flags, n_gt), interpolation)
    mean = float(np.mean(list(per_category.values()))) if per_category else 0.0
    return ApResult(per_category=per_category, mean=mean)


def mean_average_precision(preds_by_image, gts_by_image, thresholds=MAP_THRESHOLDS,
                           interpolation="101"):
    values = [
        average_precision(preds_by_image, gts_by_image, t, interpolation).mean
        for t in thresholds
    ]
    return float(np.mean(values))


def pr_curves(preds_by_image, gts_by_image, iou_threshold=0.5):
    categories = sorted({g.category for gts in gts_by_image.values() for g in gts})
    curves = {}
    for category in categories:
        flags, n_gt = ranked_outcomes(preds_by_image, gts_by_image, category, iou_threshold)
        curves[category] = PrCurve(tuple(pr_points(flags, n_gt)), category)
    return curves
