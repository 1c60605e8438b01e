"""Property tests: the config echo round trip, assignment invariances and
resumed inference against the dense every-tap reference."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dense_reference import dense_infer  # noqa: E402
from odfault.bits import FaultDescriptor, FaultMode, FaultTarget  # noqa: E402
from odfault.campaign import CampaignConfig  # noqa: E402
from odfault.detector import SceneSpec, generate_scene, infer, reference_model, shape_catalog  # noqa: E402
from odfault.geometry import Box, Detection  # noqa: E402
from odfault.matching import CategoryPolicy, assign  # noqa: E402


def _ordered_pair(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(0, hi - lo)).map(
        lambda t: [t[0], t[0] + t[1]])


@st.composite
def _category_policies(draw):
    mode = draw(st.sampled_from(["strict", "clusters", "none"]))
    if mode != "clusters":
        return {"mode": mode}
    labelled = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)),
                             unique_by=lambda t: t[0], max_size=8))
    groups: dict[int, list[int]] = {}
    for label, group in labelled:
        groups.setdefault(group, []).append(label)
    return {"mode": mode, "clusters": list(groups.values())}


@st.composite
def _config_docs(draw):
    m = draw(st.integers(1, 20))
    n = draw(st.integers(m, 30))
    mode = draw(st.sampled_from(["transient", "permanent", "ingest", "simulate_pr"]))
    return {
        "mode": mode,
        "seed": draw(st.integers(0, 2**63)),
        "n_injections": draw(st.integers(1, 10**6)),
        "target": draw(st.sampled_from(["neuron", "weight"])),
        "bit_policy": draw(st.sampled_from(["all_32", "exponent_only", "mantissa_only"])),
        "workers": draw(st.integers(1, 64)),
        "iou_threshold": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "scene": {
            "width": draw(st.integers(32, 128)),
            "height": draw(st.integers(32, 128)),
            "object_count": draw(_ordered_pair(0, 6)),
            "size_range": draw(_ordered_pair(8, 24)),
            "pool": draw(st.integers(1, 1000)),
            "fixed": draw(st.booleans()),
        },
        "sequence": {"n_frames": draw(st.integers(n, 200))},
        "tracker": {"m": m, "n": n, "vicinity_px": draw(st.integers(0, 200)),
                    "fp_coasting": draw(st.booleans())},
        "severity_levels": draw(st.lists(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6)),
        "category_policy": draw(_category_policies()),
        "emit_masks": draw(st.integers(0, 10)),
    }


@settings(max_examples=200, deadline=None)
@given(_config_docs())
def test_echo_round_trips_every_valid_config(doc):
    cfg = CampaignConfig.from_json(doc)
    echoed = json.loads(json.dumps(cfg.echo()))
    assert CampaignConfig.from_json(echoed) == replace(cfg, workers=1)
    assert CampaignConfig.from_json(echoed).echo() == cfg.echo()


_coord = st.floats(0.0, 40.0, allow_nan=False)
_detections = st.lists(
    st.builds(Detection, st.builds(Box, _coord, _coord, _coord, _coord),
              st.integers(0, 2), st.floats(0.0, 1.0)),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(preds=_detections, gts=_detections, exponent=st.integers(0, 12),
       iou_threshold=st.floats(0.05, 1.0),
       policy=st.sampled_from([CategoryPolicy.strict(), CategoryPolicy.none(),
                               CategoryPolicy.from_clusters([{0, 1}])]))
def test_assign_ignores_confidence_rescaling(preds, gts, exponent, iou_threshold, policy):
    # a power-of-two factor rescales exactly, so the confidence order is kept
    scale = 2.0 ** -exponent
    rescaled = [replace(p, confidence=p.confidence * scale) for p in preds]
    assert assign(rescaled, gts, iou_threshold, policy) == assign(preds, gts, iou_threshold, policy)


MODEL = reference_model()


@st.composite
def _faulty_scenes(draw):
    width, height = draw(st.integers(32, 128)), draw(st.integers(32, 128))
    try:
        scene = generate_scene(SceneSpec(width=width, height=height, object_count=(1, 2)),
                               draw(st.integers(0, 2**32 - 1)))
    except RuntimeError:  # the objects did not fit
        hypothesis.assume(False)
    target = draw(st.sampled_from(list(FaultTarget)))
    layer = draw(st.integers(0, len(MODEL.layers) - 1))
    shape = shape_catalog(MODEL, height, width).shapes_for(target)[layer]
    coords = tuple(draw(st.integers(0, extent - 1)) for extent in shape)
    fault = FaultDescriptor(target, layer, coords, draw(st.integers(0, 31)),
                            draw(st.sampled_from(list(FaultMode))))
    return scene, fault


@settings(max_examples=60, deadline=None)
@given(_faulty_scenes())
def test_resumed_inference_matches_dense_reference(case):
    scene, fault = case
    golden = infer(MODEL, scene, keep_activations=True)
    resumed = infer(MODEL, scene, fault=fault, golden=golden)
    reference = dense_infer(MODEL, scene, fault)
    assert resumed.detections == reference.detections
    assert (resumed.nan_seen, resumed.inf_seen) == (reference.nan_seen, reference.inf_seen)
    assert resumed.layer_flags == reference.layer_flags
