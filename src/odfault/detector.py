"""A deterministic desk-scale convolutional detector on synthetic scenes.

Scenes are crisp axis-aligned rectangles whose fill intensity encodes the
category, drawn over a low-amplitude checkerboard background. The detector
is built analytically, not trained, as five conv layers:

1. front: three redundant intensity pass-through channels plus an edge
   response (the matched-filter inputs);
2. stairs: saturating unit steps bracketing every category band, one stair
   pair per redundant intensity copy;
3. indicators: per-copy band membership collapsed from the stair pairs;
4. votes: 2-of-3 majority over the redundant indicators, yielding exact
   {0, 1} per-category occupancy maps (tents);
5. score: a 3x3 box count of the own-category tent with a slightly
   edge-averse term.

The decode head gates cells on the score, groups survivors into connected
components, and emits one box per component with a support-size confidence
sigmoid, then NMS and a detection cap.

All arithmetic is 32-bit float in a fixed accumulation order, so a run is
bit-reproducible. The redundant-vote structure makes every single
mantissa-level perturbation along the band pathway decode-invisible, which
mirrors the mantissa neutrality observed on real networks, while exponent
MSB corruption turns small weights into ~1e38 values (or zero weights into
2.0) and storms the decode with false objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from odfault.bits import FaultDescriptor, FaultTarget, ShapeCatalog, apply_fault
from odfault.geometry import Box, Detection, nms

__all__ = [
    "Scene",
    "SceneSpec",
    "ConvLayer",
    "DetectorModel",
    "InferenceTrace",
    "reference_model",
    "generate_scene",
    "generate_sequence",
    "infer",
    "shape_catalog",
    "CATEGORY_INTENSITIES",
    "BACKGROUND_LEVELS",
]

F32 = np.float32

# Dyadic intensity code: exactly representable, mantissas >= 1.25 so a
# single mantissa flip moves a value by at most ~40% and never lands in a
# foreign intensity band (bands are +-1/16 around each level).
CATEGORY_INTENSITIES = (0.375, 0.625, 0.8125)
BACKGROUND_LEVELS = (0.09375, 0.15625)
BAND_HALF_WIDTH = 0.0625
STAIR_RAMP = 0.03125


@dataclass(frozen=True)
class SceneSpec:
    width: int = 64
    height: int = 64
    object_count: tuple[int, int] = (2, 4)
    size_range: tuple[int, int] = (10, 16)

    def __post_init__(self):
        lo, hi = self.object_count
        slo, shi = self.size_range
        if lo < 0 or hi < lo or slo < 8 or shi < slo:
            raise ValueError(f"invalid scene spec {self}")


@dataclass(frozen=True)
class Scene:
    """Pixel grid plus the ground-truth objects painted into it."""

    pixels: np.ndarray  # (height, width) float32
    objects: tuple[tuple[Box, int, float], ...]  # (box, category, intensity)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def ground_truth(self) -> list[Detection]:
        return [Detection(box, category, 1.0) for box, category, _ in self.objects]


@dataclass(frozen=True)
class ConvLayer:
    weights: np.ndarray  # (out, in, kh, kw) float32
    biases: np.ndarray  # (out,) float32
    activation: str  # "relu" | "relu1" (rectifier clipped at 1)


@dataclass(frozen=True)
class DetectorModel:
    layers: tuple[ConvLayer, ...]


@dataclass(frozen=True)
class InferenceTrace:
    detections: tuple[Detection, ...]
    activations: tuple[np.ndarray, ...]  # post-activation output of every layer
    layer_flags: tuple[tuple[bool, bool], ...]  # per-layer (nan, inf)

    @property
    def nan_seen(self) -> bool:
        return any(nan for nan, _ in self.layer_flags)

    @property
    def inf_seen(self) -> bool:
        return any(inf for _, inf in self.layer_flags)


def _checkerboard(height: int, width: int) -> np.ndarray:
    lo, hi = BACKGROUND_LEVELS
    grid = np.full((height, width), lo, dtype=F32)
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    grid[(rows + cols) % 2 == 1] = F32(hi)
    return grid


def generate_scene(spec: SceneSpec, seed) -> Scene:
    """Deterministic scene: non-interacting rectangles on a checkerboard.

    Objects keep a 5-pixel gap from each other and 2 pixels from the
    border so their decode footprints never touch. Raises after bounded
    placement retries when the request cannot be packed. ``seed`` is an
    int or a numpy SeedSequence.
    """
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n_objects = int(rng.integers(spec.object_count[0], spec.object_count[1] + 1))
        placed: list[tuple[int, int, int, int]] = []  # (r1, c1, r2, c2) inclusive
        categories = []
        ok = True
        for _ in range(n_objects):
            for _attempt in range(80):
                h = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
                w = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
                if spec.height - h - 2 < 2 or spec.width - w - 2 < 2:
                    continue
                r1 = int(rng.integers(2, spec.height - h - 1))
                c1 = int(rng.integers(2, spec.width - w - 1))
                r2, c2 = r1 + h - 1, c1 + w - 1
                if all(
                    r1 > pr2 + 5 or pr1 > r2 + 5 or c1 > pc2 + 5 or pc1 > c2 + 5
                    for pr1, pc1, pr2, pc2 in placed
                ):
                    placed.append((r1, c1, r2, c2))
                    categories.append(int(rng.integers(0, len(CATEGORY_INTENSITIES))))
                    break
            else:
                ok = False
                break
        if ok:
            pixels = _checkerboard(spec.height, spec.width)
            objects = []
            for (r1, c1, r2, c2), category in zip(placed, categories):
                intensity = CATEGORY_INTENSITIES[category]
                pixels[r1:r2 + 1, c1:c2 + 1] = F32(intensity)
                objects.append((Box(c1, r1, c2 + 1, r2 + 1), category, intensity))
            return Scene(pixels, tuple(objects))
    raise RuntimeError(f"could not place {spec.object_count} objects of size {spec.size_range}")


def generate_sequence(seed, n_frames: int = 60, width: int = 64, height: int = 64) -> list[Scene]:
    """Moving-object sequence: lane-bound rectangles bouncing horizontally.

    Objects live in disjoint horizontal lanes (so they never interact) and
    translate a few pixels per frame, giving the persistence tracker real
    motion to follow.
    """
    rng = np.random.default_rng(seed)
    n_objects = int(rng.integers(2, 4))
    lanes = []
    row = 3
    for _ in range(n_objects):
        h = int(rng.integers(8, 12))
        if row + h > height - 3:
            break
        w = int(rng.integers(10, 16))
        if width - w - 1 <= 2:  # no room for the lane's object to start
            break
        category = int(rng.integers(0, len(CATEGORY_INTENSITIES)))
        x = int(rng.integers(2, width - w - 1))
        velocity = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        lanes.append({"row": row, "h": h, "w": w, "cat": category, "x": x, "v": velocity})
        row += h + 6
    if not lanes:
        raise RuntimeError("sequence generation placed no objects")

    frames = []
    for _ in range(n_frames):
        pixels = _checkerboard(height, width)
        objects = []
        for lane in lanes:
            r1, h, w = lane["row"], lane["h"], lane["w"]
            c1 = lane["x"]
            intensity = CATEGORY_INTENSITIES[lane["cat"]]
            pixels[r1:r1 + h, c1:c1 + w] = F32(intensity)
            objects.append((Box(c1, r1, c1 + w, r1 + h), lane["cat"], intensity))
            nxt = c1 + lane["v"]
            if nxt < 2 or nxt + w > width - 2:
                lane["v"] = -lane["v"]
                nxt = c1 + lane["v"]
            lane["x"] = nxt
        frames.append(Scene(pixels, tuple(objects)))
    return frames


def _stair_bias_low(intensity: float) -> float:
    return -32.0 * (intensity - BAND_HALF_WIDTH)


def _stair_bias_high(intensity: float) -> float:
    return -32.0 * (intensity + BAND_HALF_WIDTH - STAIR_RAMP)


N_COPIES = 3  # redundancy of the band pathway; single faults are outvoted


def reference_model() -> DetectorModel:
    """Build the analytic five-layer detector tuned to the scene generator."""
    n_cat = len(CATEGORY_INTENSITIES)
    k = N_COPIES

    # layer 1: redundant intensity pass-through (center taps) + edge response
    w1 = np.zeros((k + 1, 1, 3, 3), dtype=F32)
    for copy in range(k):
        w1[copy, 0, 1, 1] = F32(0.5)
    w1[k, 0] = F32(-0.109375)
    w1[k, 0, 1, 1] = F32(0.875)
    b1 = np.zeros(k + 1, dtype=F32)

    # layer 2: saturating stairs at each band edge, one pair per copy,
    # plus an edge pass-through. Channel 2*(copy*n_cat + c) is the low
    # stair of category c on intensity copy `copy`; +1 is the high stair.
    w2 = np.zeros((2 * n_cat * k + 1, k + 1, 1, 1), dtype=F32)
    b2 = np.zeros(2 * n_cat * k + 1, dtype=F32)
    for copy in range(k):
        for c, intensity in enumerate(CATEGORY_INTENSITIES):
            lo = 2 * (copy * n_cat + c)
            w2[lo, copy, 0, 0] = F32(64.0)
            b2[lo] = F32(_stair_bias_low(intensity))
            w2[lo + 1, copy, 0, 0] = F32(64.0)
            b2[lo + 1] = F32(_stair_bias_high(intensity))
    w2[2 * n_cat * k, k, 0, 0] = F32(0.875)

    # layer 3: per-copy band indicators (low stair and not high stair)
    w3 = np.zeros((n_cat * k + 1, 2 * n_cat * k + 1, 1, 1), dtype=F32)
    b3 = np.zeros(n_cat * k + 1, dtype=F32)
    for copy in range(k):
        for c in range(n_cat):
            row = copy * n_cat + c
            lo = 2 * (copy * n_cat + c)
            w3[row, lo, 0, 0] = F32(2.0)
            w3[row, lo + 1, 0, 0] = F32(-2.0)
            b3[row] = F32(-1.0)
    w3[n_cat * k, 2 * n_cat * k, 0, 0] = F32(0.875)

    # layer 4: 2-of-3 vote across the copies -> exact {0,1} category tents,
    # plus the edge pass-through and a constant occupancy-prior floor (a
    # bias-like stored value, exposed as an injectable surface)
    w4 = np.zeros((n_cat + 2, n_cat * k + 1, 1, 1), dtype=F32)
    b4 = np.zeros(n_cat + 2, dtype=F32)
    for c in range(n_cat):
        for copy in range(k):
            w4[c, copy * n_cat + c, 0, 0] = F32(2.0)
        b4[c] = F32(-3.0)
    w4[n_cat, n_cat * k, 0, 0] = F32(0.875)
    b4[n_cat + 1] = F32(0.4375)

    # layer 5: 3x3 box count of the own-category tent, slightly edge-averse;
    # bias of 1.6 tap-weights makes "at least two covered cells" the rule
    w5 = np.zeros((n_cat, n_cat + 2, 3, 3), dtype=F32)
    b5 = np.full(n_cat, F32(-0.7), dtype=F32)
    for c in range(n_cat):
        w5[c, c] = F32(0.4375)
        w5[c, n_cat, 1, 1] = F32(-0.001953125)

    layers = (
        ConvLayer(w1, b1, "relu"),
        ConvLayer(w2, b2, "relu1"),
        ConvLayer(w3, b3, "relu1"),
        ConvLayer(w4, b4, "relu1"),
        ConvLayer(w5, b5, "relu"),
    )
    return DetectorModel(layers)


def _site_shape(layer: ConvLayer, target: FaultTarget, height: int, width: int) -> tuple[int, ...]:
    """Shape of the activation or weight tensor a ``target`` fault in ``layer`` corrupts."""
    if target == FaultTarget.NEURON:
        return (layer.weights.shape[0], height, width)
    return tuple(layer.weights.shape)


def shape_catalog(model: DetectorModel, height: int = 64, width: int = 64) -> ShapeCatalog:
    """Exact activation and filter tensor shapes for every conv layer.

    Activations are same-padded, so every neuron tensor has the scene's
    ``height`` x ``width`` extent.
    """
    return ShapeCatalog(*(tuple(_site_shape(layer, target, height, width) for layer in model.layers)
                          for target in (FaultTarget.NEURON, FaultTarget.WEIGHT)))


def _accumulate(padded: np.ndarray, weights: np.ndarray, bias, taps, height: int,
                width: int) -> np.ndarray:
    """One output channel: ``bias`` plus ``weights[tap] * input`` over ``taps`` in order."""
    acc = np.full((height, width), bias, dtype=F32)
    # out of place: on one-element arrays numpy's in-place add keeps the
    # second of two NaNs, not the first, and a fault on that NaN sees its sign
    for ic, dy, dx in taps:
        acc = acc + weights[ic, dy, dx] * padded[ic, dy:dy + height, dx:dx + width]
    return acc


def _used_taps(layer: ConvLayer, finite: bool) -> np.ndarray:
    """Mask over ``layer.weights`` of the taps that ``_convolve`` multiplies
    when its input is finite (``finite``) or may hold Inf or NaN."""
    biases = layer.biases
    every_tap = ((biases == 0) & np.signbit(biases)) | np.isnan(biases) | (not finite)
    return (layer.weights != 0) | every_tap[:, None, None, None]


def _convolve(x: np.ndarray, layer: ConvLayer, window=None, finite: bool = False) -> np.ndarray:
    """Same-padded conv in float32 with a fixed accumulation order.

    ``window``, a ``(row0, row1, col0, col1)`` half-open box, restricts the
    output to those pixels. Every output element is accumulated on its own
    over its taps in (input channel, row, column) order, so a part of the
    result is bit-identical to the same part of the full result, except
    which NaN a sum of two NaNs keeps (numpy's choice depends on position).

    Taps whose weight is +-0 are skipped while the input the window reads
    is all finite; ``finite`` says the caller knows ``x`` is, otherwise the
    window is scanned. The tap lists come from the weights passed in, so a
    corrupted weight counts. Adding a +-0 product changes a sum only when
    the sum is -0.0 (to +0.0) or a signalling NaN (quieted). Under
    round-to-nearest ``x + y`` is -0.0 only when both are -0.0, and
    arithmetic never yields a signalling NaN, so only the bias can start a
    sum in either state. A channel whose bias is -0.0 or NaN therefore
    takes every tap, and so does every channel when the input holds Inf or
    NaN, so that 0 * inf = nan propagates exactly.
    """
    c_in, height, width = x.shape
    weights, biases = layer.weights, layer.biases
    c_out, _, kh, kw = weights.shape
    row0, row1, col0, col1 = (0, height, 0, width) if window is None else window
    out_h, out_w = row1 - row0, col1 - col0
    top, left = row0 - kh // 2, col0 - kw // 2
    bottom, right = top + out_h + kh - 1, left + out_w + kw - 1
    if top >= 0 and left >= 0 and bottom <= height and right <= width:
        padded = x[:, top:bottom, left:right]
    else:  # zero padding, only around the window
        padded = np.zeros((c_in, bottom - top, right - left), dtype=F32)
        r0, r1, c0, c1 = max(top, 0), min(bottom, height), max(left, 0), min(right, width)
        padded[:, r0 - top:r1 - top, c0 - left:c1 - left] = x[:, r0:r1, c0:c1]
    used = _used_taps(layer, finite or bool(np.isfinite(padded).all()))
    taps: list[list] = [[] for _ in range(c_out)]
    # np.nonzero walks the mask in C order, the every-tap order
    for k, ic, dy, dx in zip(*(i.tolist() for i in np.nonzero(used))):
        taps[k].append((ic, dy, dx))
    # overflow to inf and 0*inf=nan are expected results of injected faults
    out = np.empty((c_out, out_h, out_w), dtype=F32)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(c_out):
            out[k] = _accumulate(padded, weights[k], biases[k], taps[k], out_h, out_w)
    return out


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, F32(0.0))
    if kind == "relu1":
        return np.minimum(np.maximum(z, F32(0.0)), F32(1.0))
    raise ValueError(f"unknown activation {kind!r}")


def _sigmoid32(v: np.float32) -> np.float32:
    return F32(1.0) / (F32(1.0) + np.exp(-F32(v)))


# Cell gate on the score map: sits far below any genuine response (the
# weakest is ~0.175) yet above anything a denormal-level perturbation of an
# exactly-zero score can produce.
SCORE_GATE = F32(0.0625)
# Decode head: least confidence kept (area 5 and up), NMS overlap, detection cap.
_CONFIDENCE_THRESHOLD = 0.5
_NMS_THRESHOLD = 0.5
_MAX_DETECTIONS = 1000


def _decode(scores: np.ndarray) -> list[Detection]:
    detections: list[Detection] = []
    for category in range(scores.shape[0]):
        occupied = scores[category] > SCORE_GATE  # NaN scores gate to unoccupied
        for area, top, left, bottom, right in _components(occupied):
            conf = _sigmoid32(F32(0.25) * (F32(area) - F32(4.0)))
            if conf > _CONFIDENCE_THRESHOLD:
                box = Box(float(left), float(top), float(right), float(bottom))
                detections.append(Detection(box, category, float(conf)))
    return nms(detections, _NMS_THRESHOLD, _MAX_DETECTIONS)


def _components(mask: np.ndarray) -> list[tuple[int, int, int, int, int]]:
    """4-connected components of a 2-D bool mask as ``(area, top, left,
    bottom, right)`` with exclusive bottom/right, in raster order of each
    component's first pixel.

    The mask is cut into horizontal runs of set pixels; a union-find joins
    runs in adjacent rows whose column ranges share a column, always keeping
    the earlier run as the root, so a component's root is its first run.
    """
    h, w = mask.shape
    stride = w + 2
    padded = np.zeros((h, stride), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    # Flat indices of each run's first pixel and of the pixel after it; the
    # clear border columns keep runs within a row and the keys sorted.
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    if not len(edges):
        return []
    start_keys, end_keys = edges[0::2], edges[1::2]
    # The runs of the row above that share a column with run k are one
    # contiguous index range.
    first = np.searchsorted(end_keys, start_keys - stride, side="right").tolist()
    stop = np.searchsorted(start_keys, end_keys - stride, side="left").tolist()

    parent = list(range(len(first)))
    for k, (lo, hi) in enumerate(zip(first, stop)):
        for m in range(lo, hi):
            a, b = sorted((_root(parent, m), _root(parent, k)))
            parent[b] = parent[k] = a

    boxes: dict[int, list[int]] = {}
    for k, (start, end) in enumerate(zip(start_keys.tolist(), end_keys.tolist())):
        row, left = divmod(start, stride)
        right = end - row * stride
        box = boxes.get(root := _root(parent, k))
        if box is None:
            boxes[root] = [right - left, row, left - 1, row + 1, right - 1]
        else:
            box[0] += right - left
            box[2] = min(box[2], left - 1)
            box[3] = row + 1
            box[4] = max(box[4], right - 1)
    return [tuple(box) for box in boxes.values()]


def _root(parent: list[int], k: int) -> int:
    while parent[k] != k:
        k = parent[k]
    return k


def _check_fault(model: DetectorModel, scene: Scene, fault: FaultDescriptor) -> None:
    if not 0 <= fault.layer_index < len(model.layers):
        raise ValueError(f"fault layer {fault.layer_index} outside 0..{len(model.layers) - 1}")
    shape = _site_shape(model.layers[fault.layer_index], fault.target, scene.height, scene.width)
    if len(fault.tensor_coords) != len(shape) or not all(
        0 <= c < s for c, s in zip(fault.tensor_coords, shape)
    ):
        raise ValueError(f"fault coords {fault.tensor_coords} invalid for shape {shape}")


_FINITE = (False, False)  # the (nan, inf) flags of a layer without Inf or NaN


def _nonfinite(x: np.ndarray) -> tuple[bool, bool]:
    if np.isfinite(x).all():
        return _FINITE
    return bool(np.isnan(x).any()), bool(np.isinf(x).any())


def _finite_input(layer_flags, index: int) -> bool:
    """Whether layer ``index`` reads a layer known to be finite; the scene's
    pixels, the first layer's input, are left to ``_convolve`` to scan."""
    return index > 0 and layer_flags[index - 1] == _FINITE


def infer(
    model: DetectorModel,
    scene: Scene,
    fault: FaultDescriptor | None = None,
    golden: InferenceTrace | None = None,
) -> InferenceTrace:
    """Forward pass with an optional single fault.

    Weight faults corrupt the stored parameter before use (stuck-at modes
    persist across calls because the same descriptor pins the same bit on
    every inference); neuron faults corrupt exactly one activation element
    right after the layer's activation function. NaN/Inf flags are scanned
    over every post-activation tensor, faulty value included.

    A faulty pass always resumes at the fault's layer from the scene's
    fault-free trace, ``golden``, as ``infer(model, scene)`` returns it;
    without ``golden`` the pass builds that trace first. ``golden`` is
    ignored without a fault.
    """
    if fault is not None:
        _check_fault(model, scene, fault)
        return _resume(model, scene, fault, golden or infer(model, scene))

    x = scene.pixels[None, :, :].astype(F32, copy=False)
    layer_flags = []
    activations = []
    for index, layer in enumerate(model.layers):
        x = _activate(_convolve(x, layer, finite=_finite_input(layer_flags, index)), layer.activation)
        layer_flags.append(_nonfinite(x))
        activations.append(x)  # never written after this point
    return InferenceTrace(tuple(_decode(x)), tuple(activations), tuple(layer_flags))


def _changed(part: np.ndarray, golden: np.ndarray, channels: list[int], window, golden_nan: bool):
    """Where ``part``, the recomputed ``channels`` x ``window`` of a layer,
    differs from ``golden`` in any bit: the bounding box of those pixels and
    the channels that hold them, or None. A pixel that is NaN in both is
    unchanged whatever its payload, so ``golden_nan`` says whether to look."""
    row0, row1, col0, col1 = window
    ref = golden[channels, row0:row1, col0:col1]
    changed = part.view(np.uint32) != ref.view(np.uint32)
    if golden_nan:
        changed &= ~(np.isnan(part) & np.isnan(ref))
    rows = np.flatnonzero(changed.any(axis=(0, 2)))
    if not rows.size:
        return None
    cols = np.flatnonzero(changed.any(axis=(0, 1)))
    box = (row0 + int(rows[0]), row0 + int(rows[-1]) + 1, col0 + int(cols[0]), col0 + int(cols[-1]) + 1)
    return box, [c for c, hit in zip(channels, changed.any(axis=(1, 2)).tolist()) if hit]


def _resume(model: DetectorModel, scene: Scene, fault: FaultDescriptor,
            golden: InferenceTrace) -> InferenceTrace:
    """Faulty pass restarted from the golden input of the fault's layer.

    Each layer recomputes only a part of its output, some channels inside a
    window, and the rest of it is golden's. A weight fault changes only
    output channel f of its layer, so its part is channel f over the whole
    scene, from a one-filter layer holding a corrupted copy of filter f;
    later layers read the model as it is. A neuron fault's part is the one
    element it patches. Each part is compared with golden over raw bits,
    except that a NaN in both counts as unchanged; when nothing differs at
    the fault's layer the pass is golden's trace itself, and at a later
    layer the rest of the pass is golden's, detections and NaN/Inf flags
    included.

    Otherwise the next layer's window is the bounding box of the differing
    pixels, dilated by its kernel radius and clipped to the scene, and its
    channels are the cone of the differing ones: those whose tap list
    reads a differing channel. When the input layer holds Inf or NaN, in
    the faulty pass or in golden's, every channel is recomputed instead,
    since a zero weight times Inf is NaN. Outside the cone a channel's tap
    list reads only unchanged input, so its golden output stands bit for
    bit. NaN/Inf is scanned over the part alone when golden's layer is
    finite. Decode runs only when the last layer changed a score's side of
    ``SCORE_GATE``, because decode reads nothing else. The trace holds
    golden's activations with the changed layers in their place.
    """
    if len(golden.activations) != len(model.layers):
        raise ValueError(f"golden trace has {len(golden.activations)} layers, "
                         f"the model {len(model.layers)}")
    index = fault.layer_index
    layer = model.layers[index]
    if fault.target == FaultTarget.WEIGHT:
        x_in = (golden.activations[index - 1] if index
                else scene.pixels[None, :, :].astype(F32, copy=False))
        f, *tap = fault.tensor_coords
        weights = layer.weights[f:f + 1].copy()
        weights[(0, *tap)] = apply_fault(weights[(0, *tap)], fault.bit, fault.mode)
        one_filter = ConvLayer(weights, layer.biases[f:f + 1], layer.activation)
        part = _activate(_convolve(x_in, one_filter, finite=_finite_input(golden.layer_flags, index)),
                         layer.activation)
        window = (0, scene.height, 0, scene.width)
    else:
        f, row, col = fault.tensor_coords
        part = golden.activations[index][f:f + 1, row:row + 1, col:col + 1].copy()
        part[0, 0, 0] = apply_fault(part[0, 0, 0], fault.bit, fault.mode)
        window = (row, row + 1, col, col + 1)
    computed = [f]

    layer_flags = list(golden.layer_flags)
    activations = list(golden.activations)
    while True:
        golden_finite = golden.layer_flags[index] == _FINITE
        found = _changed(part, golden.activations[index], computed, window, not golden_finite)
        if found is None:
            if index == fault.layer_index:
                return golden
            return InferenceTrace(golden.detections, tuple(activations), tuple(layer_flags))
        (row0, row1, col0, col1), changed = found
        x = golden.activations[index].copy()
        x[computed, window[0]:window[1], window[2]:window[3]] = part
        activations[index] = x
        layer_flags[index] = _nonfinite(part if golden_finite else x)
        index += 1
        if index == len(model.layers):
            break
        layer = model.layers[index]
        c_out, _, kh, kw = layer.weights.shape
        window = (max(row0 - kh // 2, 0), min(row1 + kh // 2, scene.height),
                  max(col0 - kw // 2, 0), min(col1 + kw // 2, scene.width))
        finite = layer_flags[index - 1] == _FINITE
        if finite and golden_finite:
            computed = np.flatnonzero(_used_taps(layer, True)[:, changed].any(axis=(1, 2, 3))).tolist()
        else:
            computed = list(range(c_out))
        cone = ConvLayer(layer.weights[computed], layer.biases[computed], layer.activation)
        part = _activate(_convolve(x, cone, window=window, finite=finite), layer.activation)

    gates = [scores[changed, row0:row1, col0:col1] > SCORE_GATE for scores in (x, golden.activations[-1])]
    detections = golden.detections if np.array_equal(*gates) else tuple(_decode(x))
    return InferenceTrace(detections, tuple(activations), tuple(layer_flags))
