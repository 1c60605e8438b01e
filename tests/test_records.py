"""Detection-record ndjson round trips and validation failures."""

from __future__ import annotations

import json
import math
import re

import pytest

from odfault.detector import SceneSpec, generate_scene, infer, reference_model
from odfault.geometry import Box, Detection
from odfault.records import (
    MAX_RECORD_SIDE,
    DataError,
    DetectionRecord,
    read_records,
    record_from_trace,
    write_records,
)


def _record(image_id="img0", nan=False, inf=False):
    return DetectionRecord(
        image_id=image_id,
        width=100,
        height=80,
        detections=(Detection(Box(10, 10, 30, 30), 1, 0.9),),
        ground_truth=(Detection(Box(11, 11, 31, 31), 1, 1.0),),
        nan_flag=nan,
        inf_flag=inf,
    )


def test_round_trip(tmp_path):
    path = tmp_path / "records.ndjson"
    records = [_record("a"), _record("b", inf=True)]
    write_records(records, path)
    loaded = read_records(path)
    assert loaded == records


def test_schema_field_names(tmp_path):
    obj = _record().to_json()
    assert set(obj) == {"image_id", "width", "height", "detections", "ground_truth", "flags"}
    assert set(obj["detections"][0]) == {"bbox", "category", "confidence"}
    assert set(obj["ground_truth"][0]) == {"bbox", "category"}
    assert set(obj["flags"]) == {"nan", "inf"}


def test_ingestion_clips_out_of_bounds_boxes(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["detections"][0]["bbox"] = [-5.0, -5.0, 1e30, 40.0]
    path.write_text(json.dumps(obj) + "\n")
    record = read_records(path)[0]
    assert record.detections[0].box == Box(0, 0, 100, 40)


def test_infinite_coordinates_are_clipped_finite(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["detections"][0]["bbox"] = [10.0, 10.0, float("inf"), 30.0]
    path.write_text(json.dumps(obj).replace("Infinity", "1e999") + "\n")
    record = read_records(path)[0]
    assert record.detections[0].box.x2 == 100.0


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text(json.dumps(_record().to_json()) + "\n{not json\n")
    with pytest.raises(DataError, match=":2"):
        read_records(path)


def test_nan_bbox_rejected(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["ground_truth"][0]["bbox"] = [0.0, 0.0, None, 10.0]
    path.write_text(json.dumps(obj).replace("null", "NaN") + "\n")
    with pytest.raises(DataError):
        read_records(path)


def test_confidence_out_of_range_rejected(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["detections"][0]["confidence"] = 1.7
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataError, match="confidence"):
        read_records(path)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    del obj["width"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataError):
        read_records(path)


@pytest.mark.parametrize("field, edit", [
    ("bbox", lambda det: det.pop("bbox")),
    ("confidence", lambda det: det.update(confidence="high")),
    ("category", lambda det: det.update(category=[1])),
])
def test_malformed_detection_names_line_and_field(tmp_path, field, edit):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    edit(obj["detections"][0])
    path.write_text(json.dumps(_record().to_json()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(DataError, match=rf":2 detection 0: missing or malformed '{field}'"):
        read_records(path)


@pytest.mark.parametrize("section, field, value", [
    ("detections", "category", 1.7),
    ("detections", "category", "0"),
    ("detections", "category", True),
    ("detections", "category", math.inf),
    ("ground_truth", "category", "0"),
    ("detections", "confidence", "0.9"),
    ("detections", "confidence", True),
    pytest.param("detections", "confidence", 10**400, id="detections-confidence-10e400"),
    ("detections", "bbox", ["1", 10.0, 30.0, 30.0]),
    ("detections", "bbox", [True, 10.0, 30.0, 30.0]),
    pytest.param("ground_truth", "bbox", [10.0, 10.0, 10**400, 30.0], id="ground_truth-bbox-10e400"),
])
def test_detection_values_are_checked_not_coerced(tmp_path, section, field, value):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj[section][0][field] = value
    path.write_text(json.dumps(_record().to_json()) + "\n" + json.dumps(obj) + "\n")
    kind = "detection" if section == "detections" else "gt"
    with pytest.raises(DataError, match=rf":2 {kind} 0: missing or malformed '{field}'"):
        read_records(path)


def test_integer_coordinates_and_confidence_load_as_floats(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["detections"][0].update(bbox=[10, 10, 30, 30], confidence=1)
    obj["ground_truth"][0]["bbox"] = [11, 11, 31, 500]
    path.write_text(json.dumps(obj) + "\n")
    record = read_records(path)[0]
    det, gt = record.detections[0], record.ground_truth[0]
    assert repr(det) == repr(Detection(Box(10.0, 10.0, 30.0, 30.0), 1, 1.0))
    assert repr(gt.box) == repr(Box(11.0, 11.0, 31.0, 80))


@pytest.mark.parametrize("field, value", [
    ("flags", "x"),
    ("flags", {"nan": "yes"}),
    ("flags", {"inf": 1}),
    ("image_id", ["a"]),
    ("image_id", True),
    ("width", 64.9),
    ("height", True),
    ("width", "64"),
])
def test_record_values_are_checked_not_coerced(tmp_path, field, value):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj[field] = value
    path.write_text(json.dumps(_record().to_json()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(DataError, match=rf":2: '{field}' must be"):
        read_records(path)


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("side", [MAX_RECORD_SIDE + 1, 10**400], ids=["max+1", "1e400"])
def test_record_sides_are_bounded(tmp_path, field, side):
    # a side of 10**400 with a coordinate of 1e400 used to escape as an
    # overflow while scoring
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj[field] = side
    obj["detections"][0]["bbox"] = [0, 0, "BIG", "BIG"]
    line = json.dumps(obj).replace('"BIG"', "1e400")
    path.write_text(json.dumps(_record().to_json()) + "\n" + line + "\n")
    with pytest.raises(DataError, match=rf":2: '{field}' must be at most {MAX_RECORD_SIDE}"):
        read_records(path)


def test_overlong_integer_literal_is_data_error(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["width"] = "DIGITS"
    path.write_text(json.dumps(obj).replace('"DIGITS"', "9" * 5000) + "\n")
    with pytest.raises(DataError, match=":1"):
        read_records(path)


def test_record_accepts_integer_ids_and_missing_flags(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    obj["image_id"] = 7
    del obj["flags"]
    path.write_text(json.dumps(obj) + "\n" + json.dumps(_record(inf=True).to_json()) + "\n")
    first, second = read_records(path)
    assert (first.image_id, first.nan_flag, first.inf_flag) == (7, False, False)
    assert (second.nan_flag, second.inf_flag) == (False, True)


def test_known_lines_are_reused_and_errors_keep_their_location(tmp_path):
    lines = [json.dumps(_record(name).to_json()) + "\n" for name in ("a", "b", "c")]
    orig, corr = tmp_path / "orig.ndjson", tmp_path / "corr.ndjson"
    orig.write_text("".join(lines))
    corr.write_text(lines[0] + json.dumps(_record("b", nan=True).to_json()) + "\n" + lines[2])
    known = {}
    first = read_records(orig, known)
    second = read_records(corr, known)
    assert second[0] is first[0] and second[2] is first[2]
    assert second[1] is not first[1] and second[1] == _record("b", nan=True)
    assert len(known) == 4

    # a bad line after reused ones names its own file and line
    corr.write_text(lines[0] + lines[1] + "{broken\n" + lines[2])
    with pytest.raises(DataError, match=f"^{re.escape(str(corr))}:3: invalid JSON"):
        read_records(corr, known)


def test_ground_truth_without_bbox_rejected(tmp_path):
    path = tmp_path / "r.ndjson"
    obj = _record().to_json()
    del obj["ground_truth"][0]["bbox"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataError, match=":1 gt 0: missing or malformed 'bbox'"):
        read_records(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    with pytest.raises(DataError):
        read_records(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_records(tmp_path / "absent.ndjson")


def test_record_from_trace_round_trips(tmp_path):
    model = reference_model()
    scene = generate_scene(SceneSpec(), seed=0)
    trace = infer(model, scene)
    record = record_from_trace("scene0", scene, trace)
    assert record.width == scene.width
    assert len(record.ground_truth) == len(scene.objects)
    assert record.detections == trace.detections
    path = tmp_path / "trace.ndjson"
    write_records([record], path)
    assert read_records(path)[0] == record
