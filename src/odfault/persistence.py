"""Pixel-wise M/N persistence tracking of blob masks across a frame sequence.

A pixel is persistent at frame t when it was occupied in at least M of the
last N frames. If it is occupied right now that is a track update; if not,
the track is coasting, which only counts when coasting is enabled (used
for false-positive blobs; omitted for false negatives). A currently
occupied pixel whose own count falls short is still persistent when some
pixel within a Chebyshev vicinity window reaches M occupancies over the
window: that is the simplified unidirectional motion model for moving
blobs. Frames before N-1 are warm-up and produce empty masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from odfault.geometry import _check_integers, mask_popcount
from odfault.metrics import _mean

__all__ = [
    "TrackerConfig",
    "track",
    "occupancy_series",
    "sdc_at_severity",
]


@dataclass(frozen=True)
class TrackerConfig:
    m: int = 10
    n: int = 15
    vicinity_px: int = 50
    coasting: bool = True

    def __post_init__(self):
        _check_integers(self, ("m", "n", "vicinity_px"))
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.vicinity_px < 0:
            raise ValueError("vicinity must be non-negative")


def track(blobs: list[np.ndarray], cfg: TrackerConfig) -> tuple[np.ndarray, ...]:
    """Run the pixel-wise M/N scheme over a blob-mask sequence; one
    persistent-pixel mask per frame.

    Warm-up frames, and frames whose last ``n`` blobs hold no set pixel,
    all get one shared read-only empty mask: every count is zero there, so
    no pixel is strong or near a strong one, and none persists.
    """
    if len(blobs) < cfg.n:
        raise ValueError(f"sequence of {len(blobs)} frames is shorter than n={cfg.n}")
    shape = blobs[0].shape
    if any(b.shape != shape for b in blobs):
        raise ValueError("all blob masks must share dimensions")

    empty = np.zeros(shape, dtype=bool)
    empty.flags.writeable = False
    occupied = [bool(blob.any()) for blob in blobs]
    last_occupied = -cfg.n  # the latest frame so far whose blob has a set pixel
    counts = np.zeros(shape, dtype=np.int32)
    masks = []
    for t, blob in enumerate(blobs):
        if occupied[t]:
            counts += blob
            last_occupied = t
        if t >= cfg.n and occupied[t - cfg.n]:
            counts -= blobs[t - cfg.n]
        if t < cfg.n - 1 or t - last_occupied >= cfg.n:
            masks.append(empty)
            continue
        strong = counts >= cfg.m
        near_strong = _dilate(strong, cfg.vicinity_px)
        persistent = blob & near_strong
        if cfg.coasting:
            persistent = persistent | (~blob & strong)
        masks.append(persistent)
    return tuple(masks)


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Pixels within Chebyshev distance ``radius`` of a set pixel of a 2-D
    bool mask: the window is separable, one pass per axis. A radius of the
    larger side already spans every axis, so a larger one is capped there."""
    if radius == 0 or not mask.any():
        return mask
    radius = min(radius, max(mask.shape))
    return _window_any(_window_any(mask.T, radius).T, radius)


def _window_any(mask: np.ndarray, radius: int) -> np.ndarray:
    """Whether any row within ``radius`` rows of each row is set, per
    column, from an ``int32`` prefix sum over the rows."""
    size = mask.shape[0]
    prefix = np.zeros((size + 1,) + mask.shape[1:], dtype=np.int32)
    np.cumsum(mask, axis=0, dtype=np.int32, out=prefix[1:])
    index = np.arange(size)
    return prefix[np.minimum(index + radius + 1, size)] - prefix[np.maximum(index - radius, 0)] > 0


def occupancy_series(
    masks: tuple[np.ndarray, ...],
    image_area: int | None = None,
    reference_blobs: list[np.ndarray] | None = None,
) -> list[float | None]:
    """Per-frame persistent occupancy fractions of the tracker's ``masks``.

    Normalize either by a fixed image area (FP convention) or by the
    per-frame footprint of reference blobs (FN convention, None where the
    reference is empty). Exactly one normalization must be given.
    """
    if (image_area is None) == (reference_blobs is None):
        raise ValueError("provide exactly one of image_area or reference_blobs")
    if image_area is not None:
        if image_area <= 0:
            raise ValueError("image_area must be positive")
        return [mask_popcount(m) / image_area for m in masks]
    if len(reference_blobs) != len(masks):
        raise ValueError("reference sequence length does not match frame count")
    series: list[float | None] = []
    for mask, ref in zip(masks, reference_blobs):
        denom = mask_popcount(ref)
        series.append(mask_popcount(mask) / denom if denom else None)
    return series


def sdc_at_severity(series: list[float | None], levels) -> dict[float, bool]:
    """Decide, per severity level, whether the sequence counts as corrupted.

    Level 0 asks for any nonzero persistent occupancy in any frame; a
    positive level thresholds the sequence average (undefined frames are
    skipped).
    """
    occupied = any(v is not None and v > 0 for v in series)
    mean = _mean(series) or 0.0  # no defined frame: no occupancy
    return {level: occupied if level == 0 else mean > level for level in levels}
