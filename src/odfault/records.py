"""Newline-delimited JSON detection records.

One JSON object per line carries a full per-image evaluation payload:
predicted boxes with categories and confidences, ground truth, and the
NaN/Inf irregularity flags of the inference that produced the predictions.
This is the path by which externally produced detector outputs are scored
with the same assignment and severity machinery as the built-in detector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from odfault.geometry import Box, Detection

__all__ = ["DataError", "DetectionRecord", "read_records", "write_records", "record_from_trace"]

# Largest record image side: scoring an image rasterizes a few width x height
# boolean masks, 64 MB each at 8192 x 8192.
MAX_RECORD_SIDE = 8192


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 3)."""


@dataclass(frozen=True)
class DetectionRecord:
    image_id: object
    width: int
    height: int
    detections: tuple[Detection, ...]
    ground_truth: tuple[Detection, ...]
    nan_flag: bool = False
    inf_flag: bool = False

    def to_json(self) -> dict:
        return {
            "image_id": self.image_id,
            "width": self.width,
            "height": self.height,
            "detections": [
                {
                    "bbox": list(d.box.as_tuple()),
                    "category": d.category,
                    "confidence": d.confidence,
                }
                for d in self.detections
            ],
            "ground_truth": [
                {"bbox": list(g.box.as_tuple()), "category": g.category}
                for g in self.ground_truth
            ],
            "flags": {"nan": self.nan_flag, "inf": self.inf_flag},
        }


def _number(value):
    """A JSON number as a float, else ``None``: ``true`` is not 1, ``"0.9"`` is
    not 0.9, and an integer too large for a float is out of range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _malformed(where, field, value):
    return DataError(f"{where}: missing or malformed {field!r} (got {value!r})")


def _parse_box(raw, width, height, where):
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise DataError(f"{where}: bbox must be [x1, y1, x2, y2], got {raw!r}")
    coords = []
    for value in raw:
        coord = _number(value)
        if coord is None:
            raise _malformed(where, "bbox", raw)
        if math.isnan(coord):
            raise DataError(f"{where}: bbox coordinate is NaN")
        coords.append(coord)
    # clamping to the image also squashes infinities onto its boundary; it is
    # monotone, so clamping before Box sorts the corners gives the clipped box
    return Box(*(min(max(c, 0.0), side) for c, side in zip(coords, (width, height) * 2)))


def _parse_detection(raw, width, height, where, scored) -> Detection:
    """One detection (``scored``) or ground-truth box; its values are checked,
    never coerced, and errors name the field."""
    if not isinstance(raw, dict):
        raise DataError(f"{where}: must be a JSON object, got {raw!r}")
    if "bbox" not in raw:
        raise _malformed(where, "bbox", None)
    box = _parse_box(raw["bbox"], width, height, where)
    category = raw.get("category")
    if not _is_int(category):
        raise _malformed(where, "category", category)
    confidence = 1.0
    if scored:
        confidence = _number(raw.get("confidence", 1.0))
        if confidence is None:
            raise _malformed(where, "confidence", raw.get("confidence"))
    if not 0.0 <= confidence <= 1.0:
        raise DataError(f"{where}: confidence {confidence} outside [0, 1]")
    return Detection(box, category, confidence)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` is not 1 and ``64.9`` is not 64."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_record(obj: dict, where: str) -> DetectionRecord:
    """One record; its values are checked, never coerced, and errors name the field."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: a record must be a JSON object, got {obj!r}")
    for name in ("image_id", "width", "height", "detections", "ground_truth"):
        if name not in obj:
            raise DataError(f"{where}: missing field {name!r}")
    image_id, width, height = obj["image_id"], obj["width"], obj["height"]
    raw_dets, raw_gts = obj["detections"], obj["ground_truth"]
    flags = obj.get("flags", {})
    if not (isinstance(image_id, str) or _is_int(image_id)):
        raise DataError(f"{where}: 'image_id' must be a string or an integer, got {image_id!r}")
    for name, value in (("width", width), ("height", height)):
        if not _is_int(value):
            raise DataError(f"{where}: {name!r} must be an integer, got {value!r}")
        if value > MAX_RECORD_SIDE:
            raise DataError(f"{where}: {name!r} must be at most {MAX_RECORD_SIDE} pixels")
    if width <= 0 or height <= 0:
        raise DataError(f"{where}: non-positive image dimensions {width}x{height}")
    if not (isinstance(flags, dict)
            and isinstance(flags.get("nan", False), bool) and isinstance(flags.get("inf", False), bool)):
        raise DataError(f"{where}: 'flags' must be an object with boolean 'nan' and 'inf', "
                        f"got {flags!r}")

    if not isinstance(raw_dets, list) or not isinstance(raw_gts, list):
        raise DataError(f"{where}: 'detections' and 'ground_truth' must be lists")
    detections = [_parse_detection(det, width, height, f"{where} detection {k}", True)
                  for k, det in enumerate(raw_dets)]
    ground_truth = [_parse_detection(g, width, height, f"{where} gt {k}", False)
                    for k, g in enumerate(raw_gts)]
    return DetectionRecord(
        image_id=image_id,
        width=width,
        height=height,
        detections=tuple(detections),
        ground_truth=tuple(ground_truth),
        nan_flag=flags.get("nan", False),
        inf_flag=flags.get("inf", False),
    )


def read_records(path) -> list[DetectionRecord]:
    """Parse an ndjson record file; errors carry the offending line number."""
    records = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read records: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:  # an integer literal too long to convert
                raise DataError(f"{where}: {exc}") from exc
            records.append(_parse_record(obj, where))
    if not records:
        raise DataError(f"{path}: no records found")
    return records


def write_records(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json(), sort_keys=True))
            handle.write("\n")


def record_from_trace(image_id, scene, trace) -> DetectionRecord:
    """Package a detector inference as a record (for export or round-trips)."""
    return DetectionRecord(
        image_id=image_id,
        width=scene.width,
        height=scene.height,
        detections=tuple(trace.detections),
        ground_truth=tuple(scene.ground_truth()),
        nan_flag=trace.nan_seen,
        inf_flag=trace.inf_seen,
    )
