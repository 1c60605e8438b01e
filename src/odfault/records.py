"""Newline-delimited JSON detection records.

One JSON object per line carries a full per-image evaluation payload:
predicted boxes with categories and confidences, ground truth, and the
NaN/Inf irregularity flags of the inference that produced the predictions.
This is the path by which externally produced detector outputs are scored
with the same assignment and severity machinery as the built-in detector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from odfault.geometry import Box, Detection

__all__ = ["DataError", "DetectionRecord", "read_records", "write_records", "record_from_trace"]

# Largest record image side: scoring an image rasterizes a few width x height
# boolean masks, 64 MB each at 8192 x 8192.
MAX_RECORD_SIDE = 8192


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 3)."""


@dataclass(frozen=True, slots=True)
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


# Values come from json.loads, which builds only exact dict, list, str, int,
# float, bool and None objects, so each check tests the exact type once:
# ``true`` is not 1, ``64.9`` is not 64 and ``"0.9"`` is not 0.9.


def _malformed(field, value):
    return DataError(f"missing or malformed {field!r} (got {value!r})")


def _parse_box(raw, width, height) -> Box:
    """The box of a ``bbox`` value, clamped to the image. A coordinate is a
    JSON number within float range and not NaN."""
    if type(raw) is not list or len(raw) != 4:
        raise DataError(f"bbox must be [x1, y1, x2, y2], got {raw!r}")
    coords = []
    for value, side in zip(raw, (width, height, width, height)):
        kind = type(value)
        if kind is int:
            try:
                value = float(value)
            except OverflowError:
                raise _malformed("bbox", raw) from None
        elif kind is not float:
            raise _malformed("bbox", raw)
        elif value != value:
            raise DataError("bbox coordinate is NaN")
        # clamping to the image also squashes infinities onto its boundary; it
        # is monotone, so clamping before Box sorts the corners gives the
        # clipped box
        coords.append(0.0 if value < 0.0 else side if value > side else value)
    return Box(*coords)


def _parse_detection(raw, width, height, scored) -> Detection:
    """One detection (``scored``) or ground-truth box. Errors name the field
    but not the location, which the caller adds."""
    if type(raw) is not dict:
        raise DataError(f"must be a JSON object, got {raw!r}")
    if "bbox" not in raw:
        raise _malformed("bbox", None)
    box = _parse_box(raw["bbox"], width, height)
    category = raw.get("category")
    if type(category) is not int:
        raise _malformed("category", category)
    confidence = 1.0
    if scored:
        value = raw.get("confidence", 1.0)
        kind = type(value)
        if kind is float:
            confidence = value
        elif kind is int:
            try:
                confidence = float(value)
            except OverflowError:
                raise _malformed("confidence", value) from None
        else:
            raise _malformed("confidence", value)
        if not 0.0 <= confidence <= 1.0:
            raise DataError(f"confidence {confidence} outside [0, 1]")
    return Detection(box, category, confidence)


def _parse_detections(raws, width, height, where, kind, scored) -> tuple[Detection, ...]:
    """Every entry of a ``detections`` or ``ground_truth`` list; an error
    names the entry as ``{where} {kind} {index}``, built only on failure."""
    parsed = []
    try:
        for raw in raws:
            parsed.append(_parse_detection(raw, width, height, scored))
    except DataError as exc:
        raise DataError(f"{where} {kind} {len(parsed)}: {exc}") from None
    return tuple(parsed)


def _parse_record(obj: dict, where: str) -> DetectionRecord:
    """One record; its values are checked, never coerced, and errors name the field."""
    if type(obj) is not dict:
        raise DataError(f"{where}: a record must be a JSON object, got {obj!r}")
    for name in ("image_id", "width", "height", "detections", "ground_truth"):
        if name not in obj:
            raise DataError(f"{where}: missing field {name!r}")
    image_id, width, height = obj["image_id"], obj["width"], obj["height"]
    raw_dets, raw_gts = obj["detections"], obj["ground_truth"]
    flags = obj.get("flags", {})
    if type(image_id) is not str and type(image_id) is not int:
        raise DataError(f"{where}: 'image_id' must be a string or an integer, got {image_id!r}")
    if type(image_id) is str and not image_id.isascii():
        try:  # a JSON escape can spell a lone surrogate, which no output file can encode
            image_id.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"{where}: 'image_id' holds a lone surrogate: {image_id!r}") from None
    for name, value in (("width", width), ("height", height)):
        if type(value) is not int:
            raise DataError(f"{where}: {name!r} must be an integer, got {value!r}")
        if value > MAX_RECORD_SIDE:
            raise DataError(f"{where}: {name!r} must be at most {MAX_RECORD_SIDE} pixels")
    if width <= 0 or height <= 0:
        raise DataError(f"{where}: non-positive image dimensions {width}x{height}")
    if not (type(flags) is dict
            and type(flags.get("nan", False)) is bool and type(flags.get("inf", False)) is bool):
        raise DataError(f"{where}: 'flags' must be an object with boolean 'nan' and 'inf', "
                        f"got {flags!r}")

    if type(raw_dets) is not list or type(raw_gts) is not list:
        raise DataError(f"{where}: 'detections' and 'ground_truth' must be lists")
    return DetectionRecord(
        image_id=image_id,
        width=width,
        height=height,
        detections=_parse_detections(raw_dets, width, height, where, "detection", True),
        ground_truth=_parse_detections(raw_gts, width, height, where, "gt", False),
        nan_flag=flags.get("nan", False),
        inf_flag=flags.get("inf", False),
    )


def read_records(path, known: dict | None = None) -> list[DetectionRecord]:
    """Parse an ndjson record file; errors carry the offending line number.

    ``known`` maps the exact text of a line to the record parsed from it. A
    line found there is taken as it is, without decoding or checking it again,
    and every line that parses is added. This is exact: a line always parses
    to the same immutable record, and its location only ever enters an error,
    which a line in ``known`` cannot raise.
    """
    if known is None:
        known = {}
    records = []
    try:
        # bytes that are not UTF-8 decode to lone surrogates, so that the bad
        # line can be named
        handle = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read records: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            record = known.get(line)
            if record is not None:
                records.append(record)
                continue
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DataError(f"{where}: not valid UTF-8") from exc
            try:
                record = _parse_record(json.loads(line), where)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:  # an integer literal too long to convert
                raise DataError(f"{where}: {exc}") from exc
            except RecursionError as exc:  # in json.loads, or in repr for a message
                raise DataError(f"{where}: JSON nested too deeply") from exc
            known[line] = record
            records.append(record)
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
        ground_truth=scene.ground_truth(),
        nan_flag=trace.nan_seen,
        inf_flag=trace.inf_seen,
    )
