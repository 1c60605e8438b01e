"""Axis-aligned boxes, IoU, NMS and rasterization to binary occupancy masks.

Boxes are continuous corner-pair regions ``(x1, y1, x2, y2)`` with x to the
right and y down. Occupancy masks are plain 2-D boolean numpy arrays of
shape ``(height, width)``; pixel ``(i, j)`` covers the unit cell
``[j, j+1) x [i, i+1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "Detection",
    "iou",
    "clip",
    "nms",
    "rasterize",
    "mask_diff",
    "mask_popcount",
]


@dataclass(frozen=True, slots=True)
class Box:
    """Continuous axis-aligned rectangle. Degenerate (zero-area) boxes are legal."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x2 < self.x1 or self.y2 < self.y1:
            x1, x2 = sorted((self.x1, self.x2))
            y1, y2 = sorted((self.y1, self.y2))
            object.__setattr__(self, "x1", x1)
            object.__setattr__(self, "x2", x2)
            object.__setattr__(self, "y1", y1)
            object.__setattr__(self, "y2", y2)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, slots=True)
class Detection:
    """A predicted or ground-truth object: box, integer category, confidence."""

    box: Box
    category: int
    confidence: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the union has zero area."""
    return _ious(a, (b,))[0]


def _ious(box: Box, others) -> list[float]:
    """``[iou(box, other) for other in others]``, with ``box``'s corners and
    area read once. Symmetric bit for bit on boxes without NaN: the two areas
    are added, which commutes, and ``min`` and ``max`` differ between the
    orders only in the sign of a zero, which changes a side only when the
    side is zero, and the IoU is then 0.0 either way."""
    ax1, ay1, ax2, ay2 = box.x1, box.y1, box.x2, box.y2
    a_area = (ax2 - ax1) * (ay2 - ay1)
    out = []
    for b in others:
        bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
        # min(a, b) is b only when b < a, and max(a, b) only when b > a
        ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
        iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
        if ix <= 0.0 or iy <= 0.0:
            out.append(0.0)
            continue
        inter = ix * iy
        union = a_area + (bx2 - bx1) * (by2 - by1) - inter
        out.append(0.0 if union <= 0.0 else inter / union)
    return out


def clip(box: Box, width: float, height: float) -> Box:
    """Clamp a box to the image extent; may collapse to zero area."""
    return Box(
        min(max(box.x1, 0.0), width),
        min(max(box.y1, 0.0), height),
        min(max(box.x2, 0.0), width),
        min(max(box.y2, 0.0), height),
    )


def nms(
    dets: list[Detection],
    iou_threshold: float = 0.5,
    max_detections: int = 1000,
) -> list[Detection]:
    """Greedy per-category non-maximum suppression.

    Keeps the highest-confidence detection of each overlap cluster, drops
    others of the same category with IoU strictly above the threshold, and
    caps the result at ``max_detections``, confidence-descending. Ordering
    ties are broken by input position for determinism.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept: list[Detection] = []
    for i in order:
        det = dets[i]
        same = [k.box for k in kept if k.category == det.category]
        if not any(overlap > iou_threshold for overlap in _ious(det.box, same)):
            kept.append(det)
            if len(kept) >= max_detections:
                break
    return kept


def rasterize(boxes: list[Box], width: int, height: int) -> np.ndarray:
    """Project boxes onto a binary occupancy grid.

    A pixel is set when at least one box overlaps its unit cell with
    positive area, so zero-width or zero-height boxes mark nothing.
    Boxes are expected pre-clipped; anything outside the canvas is ignored.
    """
    mask = np.zeros((height, width), dtype=bool)
    for box in boxes:
        if box.x2 <= box.x1 or box.y2 <= box.y1:
            continue
        x0 = max(int(math.floor(box.x1)), 0)
        x1 = min(int(math.ceil(box.x2)), width)
        y0 = max(int(math.floor(box.y1)), 0)
        y1 = min(int(math.ceil(box.y2)), height)
        if x1 > x0 and y1 > y0:
            mask[y0:y1, x0:x1] = True
    return mask


def mask_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pixels set in ``a`` and not in ``b``."""
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    return a & ~b


def mask_popcount(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


# The type rule of every config field; here because geometry is the lowest
# module that both the campaign config and its nested configs import.
def _json(kind):
    """Parser that accepts JSON values of ``kind`` and never coerces one:
    ``"false"`` is not a bool, and ``2.9``, ``"2"``, ``true`` and an IntEnum are
    not ints. An int passes as a float, and a numpy number as a Python one;
    ``[kind]`` is an array (or a tuple, frozenset or ndarray), kept as a tuple."""
    def parse(value):
        if isinstance(kind, list):
            if not isinstance(value, (list, tuple, frozenset, np.ndarray)):
                raise TypeError(f"expected a JSON array, got {value!r}")
            return tuple(map(_json(kind[0]), value))
        if isinstance(value, np.integer) or (kind is float and isinstance(value, np.floating)):
            value = value.item()
        if kind is float and type(value) is int:
            try:
                return float(value)
            except OverflowError:
                raise TypeError("expected a JSON number within float range, "
                                "got a larger integer") from None
        if type(value) is not kind:
            raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
        return value
    return parse


def _check_integers(config, names=(), pairs=()) -> None:
    """Raise a TypeError naming ``config``'s class and field unless each
    field in ``names`` holds an integer and each in ``pairs`` two, by the
    campaign config's rule (``_json``). A pair has an order, so a frozenset
    is not one."""
    for name in (*names, *pairs):
        value = getattr(config, name)
        try:
            if name not in pairs:
                _json(int)(value)
            elif isinstance(value, frozenset) or len(_json([int])(value)) != 2:
                raise TypeError(f"expected a pair of integers, got {value!r}")
        except TypeError as exc:
            raise TypeError(f"{type(config).__name__}.{name}: {exc}") from None
