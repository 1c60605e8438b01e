"""Record parsing as ``isinstance`` checks, one helper per value: the test
oracle for ``odfault.records``.

It shares no code with ``odfault.records``: each value goes through a
general number test (``_number``) and each entry's location label is
formatted before its checks run. A record comes back as the tuple of
``DetectionRecord`` fields, and a malformed document raises ``RecordError``
with the message ``read_records`` must give. Only the box and detection
types are the package's own.
"""

from __future__ import annotations

import json
import math

from odfault.geometry import Box, Detection

MAX_RECORD_SIDE = 8192


class RecordError(Exception):
    """A malformed record document."""


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
    return RecordError(f"{where}: missing or malformed {field!r} (got {value!r})")


def _parse_box(raw, width, height, where):
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise RecordError(f"{where}: bbox must be [x1, y1, x2, y2], got {raw!r}")
    coords = []
    for value in raw:
        coord = _number(value)
        if coord is None:
            raise _malformed(where, "bbox", raw)
        if math.isnan(coord):
            raise RecordError(f"{where}: bbox coordinate is NaN")
        coords.append(coord)
    return Box(*(min(max(c, 0.0), side) for c, side in zip(coords, (width, height) * 2)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_detection(raw, width, height, where, scored) -> Detection:
    if not isinstance(raw, dict):
        raise RecordError(f"{where}: must be a JSON object, got {raw!r}")
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
        raise RecordError(f"{where}: confidence {confidence} outside [0, 1]")
    return Detection(box, category, confidence)


def parse_record(obj, where: str) -> tuple:
    """``(image_id, width, height, detections, ground_truth, nan_flag, inf_flag)``."""
    if not isinstance(obj, dict):
        raise RecordError(f"{where}: a record must be a JSON object, got {obj!r}")
    for name in ("image_id", "width", "height", "detections", "ground_truth"):
        if name not in obj:
            raise RecordError(f"{where}: missing field {name!r}")
    image_id, width, height = obj["image_id"], obj["width"], obj["height"]
    raw_dets, raw_gts = obj["detections"], obj["ground_truth"]
    flags = obj.get("flags", {})
    if not (isinstance(image_id, str) or _is_int(image_id)):
        raise RecordError(f"{where}: 'image_id' must be a string or an integer, got {image_id!r}")
    for name, value in (("width", width), ("height", height)):
        if not _is_int(value):
            raise RecordError(f"{where}: {name!r} must be an integer, got {value!r}")
        if value > MAX_RECORD_SIDE:
            raise RecordError(f"{where}: {name!r} must be at most {MAX_RECORD_SIDE} pixels")
    if width <= 0 or height <= 0:
        raise RecordError(f"{where}: non-positive image dimensions {width}x{height}")
    if not (isinstance(flags, dict)
            and isinstance(flags.get("nan", False), bool) and isinstance(flags.get("inf", False), bool)):
        raise RecordError(f"{where}: 'flags' must be an object with boolean 'nan' and 'inf', "
                          f"got {flags!r}")
    if not isinstance(raw_dets, list) or not isinstance(raw_gts, list):
        raise RecordError(f"{where}: 'detections' and 'ground_truth' must be lists")
    detections = [_parse_detection(det, width, height, f"{where} detection {k}", True)
                  for k, det in enumerate(raw_dets)]
    ground_truth = [_parse_detection(g, width, height, f"{where} gt {k}", False)
                    for k, g in enumerate(raw_gts)]
    return (image_id, width, height, tuple(detections), tuple(ground_truth),
            flags.get("nan", False), flags.get("inf", False))


def read_records(path) -> list[tuple]:
    """Every record of an ndjson file of valid UTF-8 JSON lines."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{where}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:
                raise RecordError(f"{where}: {exc}") from exc
            records.append(parse_record(obj, where))
    if not records:
        raise RecordError(f"{path}: no records found")
    return records
