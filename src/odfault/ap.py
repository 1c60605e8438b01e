"""Average-precision evaluation and the synthetic PR-curve experiment.

The reference pipeline follows the usual benchmark recipe: group by class,
rank by confidence, greedily match at an IoU threshold, sweep cumulative
precision/recall, integrate the interpolated curve per class, average the
classes present in ground truth. ``interpolation="101"`` samples the
precision envelope at 101 recall points (the common benchmark variant);
``"area"`` integrates the envelope exactly.

The synthetic experiment measures how the metric reacts to fault-style
perturbations (bulk low-confidence false positives vs. a few
high-confidence ones) on an abstract population of outcomes; no box
geometry is involved by design.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from odfault.geometry import _ious

__all__ = [
    "PrCurve",
    "ApResult",
    "average_precision",
    "mean_average_precision",
    "pr_curves",
    "MAP_THRESHOLDS",
    "SyntheticSetConfig",
    "SyntheticSet",
    "generate_synthetic_set",
    "perturb_set",
    "synthetic_ap50",
    "synthetic_pr_curve",
]

MAP_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True, slots=True)
class PrCurve:
    """(recall, precision) points in confidence-descending evaluation order."""

    points: tuple[tuple[float, float], ...]
    category: int | None = None


@dataclass(frozen=True, slots=True)
class ApResult:
    per_category: dict[int, float]
    mean: float


def _category_outcomes(preds_by_image, gts_by_image, thresholds):
    """Yield ``(category, n_gt, hits)`` for each ground-truth category, ascending.

    ``hits[i]`` flags, in rank order, the detections that match at
    ``thresholds[i]``. The ranking is by confidence (descending), then
    ``str(image_id)``, then position in the image's list. In that order each
    detection takes the unmatched ground truth of its own image and category
    with the highest IoU at or above the threshold, the lowest index on ties.

    The matching runs image by image, which is exact. A detection only takes
    ground truth of its own image, so which of an image's ground truths are
    taken depends on the order of that image's detections alone; and within
    one image, whose positions are distinct, the ranking reduces to
    confidence, then position. That holds even when two image ids share one
    string, since each keeps its own ground truth. So each image's detections
    are matched in ``(-confidence, position)`` order, with one set of taken
    ground truths per image and threshold. The matched entries are flat
    indices into the category's list, and one ranking per category scatters
    them into rank order.
    """
    # no threshold matches a pair below the lowest one, nor a pair of IoU 0,
    # since a match must beat a best IoU that starts at 0: neither is kept
    floor = min(thresholds, default=0.0)
    n_gt = Counter(gt.category for gts in gts_by_image.values() for gt in gts)
    # per category: confidences, image ranks and positions in corpus order,
    # and the flat indices into them matched at each threshold
    ranked = {category: ([], [], []) for category in n_gt}
    matched_at = {category: [[] for _ in thresholds] for category in n_gt}

    # equal strings share a rank, so their detections fall through to
    # position, as in a sort by (str(image_id), idx)
    images = sorted(preds_by_image, key=str)
    for image_rank, (_, group) in enumerate(groupby(images, key=str)):
        for image_id in group:
            boxes_of, cands_of = {}, {}
            for gt in gts_by_image.get(image_id, ()):
                boxes_of.setdefault(gt.category, []).append(gt.box)
            for idx, det in enumerate(preds_by_image[image_id]):
                if det.category not in ranked:
                    continue
                confidences, image_ranks, positions = ranked[det.category]
                gt_boxes = boxes_of.get(det.category)
                if gt_boxes:
                    pairs = [(j, value) for j, value in enumerate(_ious(det.box, gt_boxes))
                             if value >= floor and value > 0.0]
                    if pairs:
                        cands_of.setdefault(det.category, []).append(
                            (det.confidence, len(confidences), pairs))
                confidences.append(det.confidence)
                image_ranks.append(image_rank)
                positions.append(idx)
            for category, cands in cands_of.items():
                # stable, so equal confidences keep position order
                cands.sort(key=itemgetter(0), reverse=True)
                for threshold, matched in zip(thresholds, matched_at[category]):
                    used = set()
                    for _, flat, pairs in cands:
                        best_iou, best_j = 0.0, -1
                        for j, value in pairs:
                            if value >= threshold and value > best_iou and j not in used:
                                best_iou, best_j = value, j
                        if best_j >= 0:
                            used.add(best_j)
                            matched.append(flat)

    for category in sorted(ranked):
        confidences, image_ranks, positions = ranked.pop(category)
        # a stable sort, so exact ties keep the corpus order
        order = np.lexsort((positions, image_ranks, -np.array(confidences, dtype=np.float64)))
        hits = []
        for flat in matched_at.pop(category):
            hit = np.zeros(len(order), dtype=bool)
            hit[flat] = True
            hits.append(hit[order])
        yield category, n_gt[category], hits


def _pr_arrays(hit, n_gt):
    """Recall and precision after each ranked outcome (``hit`` flags the TPs)."""
    tp_cum = np.cumsum(hit, dtype=np.int64)
    recalls = tp_cum / n_gt if n_gt else np.zeros(len(tp_cum))
    return recalls, tp_cum / np.arange(1, len(tp_cum) + 1)


def _ap_from_pr(recalls, precisions, interpolation):
    if not len(recalls):
        return 0.0
    # precision envelope: best precision achievable at recall >= r
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    if interpolation == "101":
        grid = np.arange(101) / 100.0
        idx = np.searchsorted(recalls, grid, side="left")
        values = np.where(idx < len(recalls), envelope[np.minimum(idx, len(recalls) - 1)], 0.0)
        return float(values.mean())
    if interpolation == "area":
        area = 0.0
        prev_recall = 0.0
        for k in range(len(recalls)):
            r = recalls[k]
            if r > prev_recall:
                area += (r - prev_recall) * envelope[k]
                prev_recall = r
        return float(area)
    raise ValueError(f"unknown interpolation {interpolation!r}")


def _points(recalls, precisions):
    return tuple(zip(recalls.tolist(), precisions.tolist()))


def _sweep(preds_by_image, gts_by_image, thresholds, interpolation) -> list[ApResult]:
    """``average_precision`` at every threshold, in order, from one ranking
    and one intersection of the corpus."""
    per_threshold = [{} for _ in thresholds]
    for category, n_gt, hits in _category_outcomes(preds_by_image, gts_by_image, thresholds):
        for per_category, hit in zip(per_threshold, hits):
            per_category[category] = _ap_from_pr(*_pr_arrays(hit, n_gt), interpolation)
    return [ApResult(per_category=per_category,
                     mean=float(np.mean(list(per_category.values()))) if per_category else 0.0)
            for per_category in per_threshold]


def average_precision(
    preds_by_image,
    gts_by_image,
    iou_threshold: float = 0.5,
    interpolation: str = "101",
) -> ApResult:
    """Per-category AP at one IoU threshold and the category mean.

    Categories absent from ground truth are excluded from the mean; an
    empty ground truth yields a mean of 0.
    """
    return _sweep(preds_by_image, gts_by_image, (iou_threshold,), interpolation)[0]


def mean_average_precision(
    preds_by_image,
    gts_by_image,
    thresholds=MAP_THRESHOLDS,
    interpolation: str = "101",
) -> float:
    """Mean AP over the usual 0.50:0.05:0.95 threshold sweep."""
    sweep = _sweep(preds_by_image, gts_by_image, tuple(thresholds), interpolation)
    return float(np.mean([result.mean for result in sweep]))


def pr_curves(preds_by_image, gts_by_image, iou_threshold: float = 0.5) -> dict[int, PrCurve]:
    return {category: PrCurve(_points(*_pr_arrays(hits[0], n_gt)), category)
            for category, n_gt, hits
            in _category_outcomes(preds_by_image, gts_by_image, (iou_threshold,))}


@dataclass(frozen=True)
class SyntheticSetConfig:
    """Parameters of the abstract detection population.

    Each of ``n_objects`` ground truths becomes a TP with probability
    ``p_tp`` (an FN otherwise); false positives arrive at ``fp_rate`` per
    true detection; all confidences are uniform on ``conf_range``.
    """

    n_objects: int = 100
    p_tp: float = 0.7
    fp_rate: float = 0.3
    conf_range: tuple[float, float] = (0.7, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_objects < 0:
            raise ValueError("n_objects must not be negative")
        if not (0.0 <= self.p_tp <= 1.0 and 0.0 <= self.fp_rate <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if not 0.0 <= self.conf_range[0] <= self.conf_range[1] <= 1.0:
            raise ValueError(f"conf_range must be low <= high within [0, 1], got {self.conf_range}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


@dataclass(frozen=True)
class SyntheticSet:
    """Abstract outcome population: TP/FP confidences plus the gt count."""

    tp_confidences: tuple[float, ...]
    fp_confidences: tuple[float, ...]
    n_objects: int


def generate_synthetic_set(cfg: SyntheticSetConfig) -> SyntheticSet:
    rng = np.random.default_rng(cfg.seed)
    is_tp = rng.random(cfg.n_objects) < cfg.p_tp
    n_tp = int(is_tp.sum())
    n_fp = int(rng.binomial(n_tp, cfg.fp_rate)) if n_tp else 0
    lo, hi = cfg.conf_range
    tp_conf = rng.uniform(lo, hi, n_tp)
    fp_conf = rng.uniform(lo, hi, n_fp)
    return SyntheticSet(tuple(tp_conf.tolist()), tuple(fp_conf.tolist()), cfg.n_objects)


def perturb_set(
    s: SyntheticSet,
    add_fps: tuple[int, tuple[float, float]] | None = None,
    remove_tps: int = 0,
    seed: int = 0,
) -> SyntheticSet:
    """Inject abstract corruption: extra FPs and/or TPs turned into FNs."""
    rng = np.random.default_rng(seed)
    tp = list(s.tp_confidences)
    fp = list(s.fp_confidences)
    if remove_tps:
        if remove_tps > len(tp):
            raise ValueError(f"cannot remove {remove_tps} TPs from {len(tp)}")
        doomed = set(rng.choice(len(tp), size=remove_tps, replace=False).tolist())
        tp = [c for i, c in enumerate(tp) if i not in doomed]
    if add_fps is not None:
        count, (lo, hi) = add_fps
        fp.extend(rng.uniform(lo, hi, count).tolist())
    return SyntheticSet(tuple(tp), tuple(fp), s.n_objects)


def _synthetic_pr(s: SyntheticSet):
    scored = [(c, True) for c in s.tp_confidences] + [(c, False) for c in s.fp_confidences]
    # stable rank: confidence descending, TPs before FPs on exact ties
    scored.sort(key=lambda item: (-item[0], not item[1]))
    return _pr_arrays(np.array([is_tp for _, is_tp in scored], dtype=bool), s.n_objects)


def synthetic_ap50(s: SyntheticSet, interpolation: str = "101") -> float:
    """AP of the abstract population (outcomes are fixed by construction)."""
    return _ap_from_pr(*_synthetic_pr(s), interpolation)


def synthetic_pr_curve(s: SyntheticSet) -> PrCurve:
    return PrCurve(_points(*_synthetic_pr(s)))
