"""Image-wise corruption verdicts and severity features.

An image inference is judged against its fault-free twin: NaN or Inf
anywhere during the corrupted inference makes the event detectable (DUE);
otherwise any change in the image's FP or FN count versus ground truth is
a silent data corruption (SDC); everything else is benign. TP changes are
implied because TP and FN are complementary.

Severity quantifies what an SDC did to the image: the signed FP surplus,
the fraction of original true positives lost, the shift in mean box
confidence and size, and two occupancy coefficients measured on binary
blob masks: the image fraction falsely occupied by fault-induced
detections, and the fraction of the original detection footprint falsely
vacated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from odfault.geometry import Detection, mask_diff, mask_popcount, rasterize

__all__ = [
    "ImageEval",
    "SdcReport",
    "classify_image",
    "rates",
    "severity",
    "bit_averaged",
    "bit_grouped",
    "baseline_occupancy",
]


@dataclass(frozen=True, slots=True)
class ImageEval:
    """Counts of one image under fault-free and corrupted inference."""

    image_id: object
    counts_orig: tuple[int, int, int]  # (tp, fp, fn)
    counts_corr: tuple[int, int, int]
    inf_flag: bool = False
    nan_flag: bool = False

    def __post_init__(self):
        for counts in (self.counts_orig, self.counts_corr):
            if len(counts) != 3 or any(c < 0 for c in counts):
                raise ValueError(f"counts must be three non-negative integers, got {counts}")


@dataclass(frozen=True, slots=True)
class SdcReport:
    """Verdict plus severity features for one injection on one image.

    ``delta_fn_n`` is None when the fault-free image had no true positives
    (the normalization is undefined there); ``a_fn_vac`` is 0 when the
    original detections rasterize to nothing, since the vacated blob is
    structurally empty too. Negative deltas (a fault that accidentally
    repairs detections) are reported verbatim and flagged.
    """

    verdict: str
    delta_fp: int
    delta_fn_n: float | None
    avg_conf_orig: float | None
    avg_conf_corr: float | None
    avg_size_orig: float | None
    avg_size_corr: float | None
    a_fp_occ: float
    a_fn_vac: float

    @property
    def beneficial(self) -> bool:
        """True when the fault removed FPs or recovered TPs."""
        negative_fn = self.delta_fn_n is not None and self.delta_fn_n < 0
        return self.delta_fp < 0 or negative_fn


def classify_image(e: ImageEval) -> str:
    """``due`` on NaN/Inf, else ``sdc`` on any FP or FN count change, else ``benign``."""
    if e.inf_flag or e.nan_flag:
        return "due"
    _, fp_orig, fn_orig = e.counts_orig
    _, fp_corr, fn_corr = e.counts_corr
    if fp_orig != fp_corr or fn_orig != fn_corr:
        return "sdc"
    return "benign"


def rates(evals: list[ImageEval]) -> tuple[float, float]:
    """(SDC rate, DUE rate) over an evaluation set."""
    if not evals:
        raise ValueError("rates need at least one image evaluation")
    verdicts = [classify_image(e) for e in evals]
    n = len(evals)
    return verdicts.count("sdc") / n, verdicts.count("due") / n


def _mean(values) -> float | None:
    """Mean of the values that are not None; None when none are left."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def severity(
    e: ImageEval,
    dets_orig: list[Detection],
    dets_corr: list[Detection],
    image_dims: tuple[int, int],
    *,
    rasters=None,
) -> SdcReport:
    """Severity features of one corrupted image (boxes must be pre-clipped).

    ``image_dims`` is (width, height). Confidence and size means run over
    all detections of each condition (TPs and FPs alike); sizes are box
    areas in squared pixels. ``rasters`` is ``(orig, corr)``, the two
    lists' ``rasterize`` masks when the caller already has them.

    Lists equal by value rasterize to equal masks, since ``rasterize`` only
    compares and rounds coordinates, so both blobs are empty and nothing is
    rasterized for them.
    """
    width, height = image_dims
    if width <= 0 or height <= 0:
        raise ValueError(f"image dimensions must be positive, got {image_dims}")

    tp_orig = e.counts_orig[0]
    tp_corr = e.counts_corr[0]
    delta_fp = e.counts_corr[1] - e.counts_orig[1]
    delta_fn_n = (tp_orig - tp_corr) / tp_orig if tp_orig > 0 else None

    if dets_corr == dets_orig:
        a_fp_occ = a_fn_vac = 0.0
    else:
        if rasters is None:
            rasters = (rasterize([d.box for d in dets_orig], width, height),
                       rasterize([d.box for d in dets_corr], width, height))
        raster_orig, raster_corr = rasters
        orig_area = mask_popcount(raster_orig)
        a_fp_occ = mask_popcount(mask_diff(raster_corr, raster_orig)) / (width * height)
        a_fn_vac = (mask_popcount(mask_diff(raster_orig, raster_corr)) / orig_area
                    if orig_area else 0.0)

    return SdcReport(
        verdict=classify_image(e),
        delta_fp=delta_fp,
        delta_fn_n=delta_fn_n,
        avg_conf_orig=_mean(d.confidence for d in dets_orig),
        avg_conf_corr=_mean(d.confidence for d in dets_corr),
        avg_size_orig=_mean(d.box.area for d in dets_orig),
        avg_size_corr=_mean(d.box.area for d in dets_corr),
        a_fp_occ=a_fp_occ,
        a_fn_vac=a_fn_vac,
    )


def bit_grouped(pairs, **means) -> dict[int, dict[str, float | int | None]]:
    """Group ``(bit, item)`` pairs by bit, in ascending bit order.

    Each group gives its ``count`` and, for every keyword ``name=getter``,
    the mean of ``getter(item)`` over the group, skipping undefined (None)
    values.
    """
    groups: dict[int, list] = {}
    for bit, item in pairs:
        groups.setdefault(bit, []).append(item)
    return {bit: {"count": len(items),
                  **{name: _mean(map(get, items)) for name, get in means.items()}}
            for bit, items in sorted(groups.items())}


def bit_averaged(reports) -> dict[int, dict[str, float | int | None]]:
    """Group SDC-verdict reports by flipped bit and average the deltas.

    ``reports`` is an iterable of (FaultDescriptor, SdcReport). Bits that
    never produced an SDC are absent from the result. The ``delta_fn_n``
    mean skips undefined (None) entries.
    """
    return bit_grouped(((descriptor.bit, report) for descriptor, report in reports
                        if report.verdict == "sdc"),
                       mean_delta_fp=attrgetter("delta_fp"),
                       mean_delta_fn_n=attrgetter("delta_fn_n"))


def baseline_occupancy(
    dets_orig: list[Detection],
    gts: list[Detection],
    image_dims: tuple[int, int],
) -> tuple[float, float | None]:
    """Occupancy error of the fault-free model itself versus ground truth.

    Returns (falsely occupied image fraction, falsely vacated fraction of
    the detection footprint); the second value is None when the detections
    rasterize to nothing.
    """
    width, height = image_dims
    if width <= 0 or height <= 0:
        raise ValueError(f"image dimensions must be positive, got {image_dims}")
    raster_dets = rasterize([d.box for d in dets_orig], width, height)
    raster_gts = rasterize([g.box for g in gts], width, height)
    a_fp_occ_orig = mask_popcount(mask_diff(raster_dets, raster_gts)) / (width * height)
    det_area = mask_popcount(raster_dets)
    if det_area == 0:
        return a_fp_occ_orig, None
    a_fn_vac_orig = mask_popcount(mask_diff(raster_gts, raster_dets)) / det_area
    return a_fp_occ_orig, a_fn_vac_orig
