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

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from odfault._rng import Stream
from odfault.bits import FaultDescriptor, FaultTarget, ShapeCatalog, apply_fault
from odfault.geometry import Box, Detection, _check_integers, nms

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
    "receptive_field",
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
        _check_integers(self, ("width", "height"), ("object_count", "size_range"))
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

    def ground_truth(self) -> tuple[Detection, ...]:
        return tuple(Detection(box, category, 1.0) for box, category, _ in self.objects)


@dataclass(frozen=True)
class ConvLayer:
    weights: np.ndarray  # (out, in, kh, kw) float32, never written after the layer is built
    biases: np.ndarray  # (out,) float32
    activation: str  # "relu" | "relu1" (rectifier clipped at 1)

    @cached_property
    def taps(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """``taps[k]``: the ``(input channel, row, column)`` taps that output
        channel k multiplies over finite input, in C order, the every-tap order.

        A channel takes its non-zero weights, or every tap when its bias is
        -0.0 or NaN. Skipping a +-0 weight over finite input is exact: adding
        a +-0 product changes a sum only when the sum is -0.0 (to +0.0) or a
        signalling NaN (quieted). Under round-to-nearest ``x + y`` is -0.0
        only when both are -0.0, and arithmetic never yields a signalling
        NaN, so only the bias can start a sum in either state. The lists are
        derived once, on first use, which holds because a layer's weights and
        biases are never written after it is built; a weight fault builds its
        own corrupted layer, so a zero weight turned to 2.0 adds a tap.
        """
        used = (self.weights != 0) | _every_tap(self.biases)[:, None, None, None]
        return tuple(tuple(map(tuple, np.argwhere(channel).tolist())) for channel in used)


def _every_tap(biases: np.ndarray) -> np.ndarray:
    """Which channels take every tap: those whose bias is -0.0 or NaN."""
    return ((biases == 0) & np.signbit(biases)) | np.isnan(biases)


@dataclass(frozen=True)
class DetectorModel:
    layers: tuple[ConvLayer, ...]

    @cached_property
    def twins(self) -> tuple[tuple[list[int], np.ndarray | None], ...]:
        """Per layer ``(leaders, expand)``: over finite input, output channel
        k equals channel ``leaders[expand[k]]`` bit for bit; ``expand`` is
        None when every channel leads its own class.

        Two channels are twins when their biases have equal bits and their
        tap sequences (``ConvLayer.taps``) match tap by tap in weight bits,
        position and the twin class of the input channel read. Twins over
        bit-identical input run the same operations in the same order, so
        they give the same bits. Over Inf or NaN every tap is multiplied,
        and twins' zero weights sit at different input channels, so the
        classes hold only over finite input. The reference model's three
        redundant copies make 20 of its 41 channels twins. Derived once,
        on first use, as the layers' taps are.
        """
        classes = list(range(self.layers[0].weights.shape[1]))  # the scene's channels
        twins = []
        for layer in self.layers:
            weight_bits, bias_bits = layer.weights.view(np.uint32), layer.biases.view(np.uint32)
            keys: dict[tuple, int] = {}
            leaders: list[int] = []
            out_classes = []
            for k, taps in enumerate(layer.taps):
                key = (int(bias_bits[k]),
                       tuple((classes[ic], dy, dx, int(weight_bits[k, ic, dy, dx])) for ic, dy, dx in taps))
                if key not in keys:
                    keys[key] = len(leaders)
                    leaders.append(k)
                out_classes.append(keys[key])
            classes = out_classes
            twins.append((leaders, None if len(leaders) == len(classes) else np.array(classes)))
        return tuple(twins)


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
    int (a numpy integer too), a numpy ``SeedSequence``, or the
    ``_rng.Seed`` a campaign derives; each draws what
    ``np.random.default_rng(seed)`` would (see ``odfault._rng``).
    """
    rng = Stream(seed)
    for _ in range(30):
        n_objects = rng.integers(spec.object_count[0], spec.object_count[1] + 1)
        placed: list[tuple[int, int, int, int]] = []  # (r1, c1, r2, c2) inclusive
        categories = []
        ok = True
        for _ in range(n_objects):
            for _attempt in range(80):
                h = rng.integers(spec.size_range[0], spec.size_range[1] + 1)
                w = rng.integers(spec.size_range[0], spec.size_range[1] + 1)
                if spec.height - h - 2 < 2 or spec.width - w - 2 < 2:
                    continue
                r1 = rng.integers(2, spec.height - h - 1)
                c1 = rng.integers(2, spec.width - w - 1)
                r2, c2 = r1 + h - 1, c1 + w - 1
                if all(
                    r1 > pr2 + 5 or pr1 > r2 + 5 or c1 > pc2 + 5 or pc1 > c2 + 5
                    for pr1, pc1, pr2, pc2 in placed
                ):
                    placed.append((r1, c1, r2, c2))
                    categories.append(rng.integers(0, len(CATEGORY_INTENSITIES)))
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


def generate_sequence(seed, n_frames: int = 60, width: int = 64, height: int = 64) -> Iterator[Scene]:
    """Moving-object sequence: lane-bound rectangles bouncing horizontally.

    Objects live in disjoint horizontal lanes (so they never interact) and
    translate a few pixels per frame, giving the persistence tracker real
    motion to follow. ``seed`` takes the kinds ``generate_scene`` takes.
    Lanes are drawn at the call; the iterator renders each frame when reached.
    """
    rng = Stream(seed)
    n_objects = rng.integers(2, 4)
    lanes = []
    row = 3
    for _ in range(n_objects):
        h = rng.integers(8, 12)
        if row + h > height - 3:
            break
        w = rng.integers(10, 16)
        if width - w - 1 <= 2:  # no room for the lane's object to start
            break
        category = rng.integers(0, len(CATEGORY_INTENSITIES))
        x = rng.integers(2, width - w - 1)
        velocity = (-3, -2, -1, 1, 2, 3)[rng.integers(0, 6)]  # the draw of numpy's choice
        lanes.append({"row": row, "h": h, "w": w, "cat": category, "x": x, "v": velocity})
        row += h + 6
    if not lanes:
        raise RuntimeError("sequence generation placed no objects")

    def frames():
        for _ in range(n_frames):
            pixels = _checkerboard(height, width)
            objects = []
            for lane in lanes:
                r1, c1, h, w = lane["row"], lane["x"], lane["h"], lane["w"]
                intensity = CATEGORY_INTENSITIES[lane["cat"]]
                pixels[r1:r1 + h, c1:c1 + w] = F32(intensity)
                objects.append((Box(c1, r1, c1 + w, r1 + h), lane["cat"], intensity))
                nxt = c1 + lane["v"]
                if nxt < 2 or nxt + w > width - 2:
                    lane["v"] = -lane["v"]
                    nxt = c1 + lane["v"]
                lane["x"] = nxt
            yield Scene(pixels, tuple(objects))
    return frames()


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


def _convolve(x: np.ndarray, layer: ConvLayer, channels=None, window=None, *,
              finite: bool) -> np.ndarray:
    """Same-padded conv in float32 with a fixed accumulation order.

    Only the output ``channels`` given (every channel by default), in their
    order, are computed, and only inside ``window``, a ``(row0, row1, col0,
    col1)`` half-open box. Every output element is accumulated on its own
    over its taps in (input channel, row, column) order, so a part of the
    result is bit-identical to the same part of the full result, except
    which NaN a sum of two NaNs keeps (numpy's choice depends on position).

    Channel k takes ``layer.taps[k]`` when ``finite`` says ``x`` is finite,
    and every tap otherwise, so that 0 * inf = nan propagates.
    """
    c_in, height, width = x.shape
    c_out, _, kh, kw = layer.weights.shape
    channels = range(c_out) if channels is None else channels
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
    taps = layer.taps if finite else (tuple(np.ndindex(c_in, kh, kw)),) * c_out
    # overflow to inf and 0*inf=nan are expected results of injected faults
    out = np.empty((len(channels), out_h, out_w), dtype=F32)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, k in enumerate(channels):
            weights = layer.weights[k]
            acc = np.full((out_h, out_w), layer.biases[k], dtype=F32)
            # out of place: on one-element arrays numpy's in-place add keeps the
            # second of two NaNs, not the first, and a fault on that NaN sees its sign
            for ic, dy, dx in taps[k]:
                acc = acc + weights[ic, dy, dx] * padded[ic, dy:dy + out_h, dx:dx + out_w]
            out[row] = acc
    return out


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation, written into ``z``: every caller passes a fresh array."""
    if kind == "relu":
        return np.maximum(z, F32(0.0), out=z)
    if kind == "relu1":
        return np.minimum(np.maximum(z, F32(0.0), out=z), F32(1.0), out=z)
    raise ValueError(f"unknown activation {kind!r}")


# Cell gate on the score map: sits far below any genuine response (the
# weakest is ~0.175) yet above anything a denormal-level perturbation of an
# exactly-zero score can produce.
SCORE_GATE = F32(0.0625)
# Decode head: least confidence kept (area 5 and up), NMS overlap, detection cap.
_CONFIDENCE_THRESHOLD = 0.5
_NMS_THRESHOLD = 0.5
_MAX_DETECTIONS = 1000
# The confidence of a component of area 0-70: the float32 sigmoid
# 1 / (1 + exp(-(0.25 * (area - 4)))) as numpy computes it with AVX2 or
# AVX-512, each literal that float32 exactly; from area 71 on it rounds to
# 1.0. A table, because numpy's float32 exp follows its SIMD dispatch, so
# its last bit depends on the CPU: area 10 gives 0.8175745010375977 with
# AVX2 and 0.8175744414329529 without.
_CONFIDENCES = (
    0.26894140243530273, 0.32082128524780273, 0.3775406777858734, 0.43782344460487366,
    0.5, 0.562176525592804, 0.622459352016449, 0.6791787147521973,
    0.7310585975646973, 0.7772998809814453, 0.8175745010375977, 0.8519527316093445,
    0.8807970285415649, 0.9046505093574524, 0.9241418242454529, 0.9399133324623108,
    0.9525741338729858, 0.9626730680465698, 0.970687747001648, 0.977022647857666,
    0.9820137619972229, 0.9859364032745361, 0.9890130758285522, 0.9914224743843079,
    0.9933071732521057, 0.9947799444198608, 0.9959298968315125, 0.9968273043632507,
    0.9975274205207825, 0.9980732202529907, 0.998498797416687, 0.9988304972648621,
    0.9990890026092529, 0.9992903470993042, 0.9994471669197083, 0.9995694756507874,
    0.9996646642684937, 0.9997387528419495, 0.9997965693473816, 0.999841570854187,
    0.9998766183853149, 0.9999039173126221, 0.9999251365661621, 0.9999417066574097,
    0.9999545812606812, 0.9999645948410034, 0.9999724626541138, 0.9999785423278809,
    0.9999833106994629, 0.999987006187439, 0.9999898672103882, 0.9999921321868896,
    0.9999938011169434, 0.999995231628418, 0.9999963045120239, 0.9999971389770508,
    0.9999977350234985, 0.9999982118606567, 0.9999985694885254, 0.999998927116394,
    0.9999991655349731, 0.9999994039535522, 0.9999995231628418, 0.9999996423721313,
    0.9999996423721313, 0.9999997615814209, 0.9999997615814209, 0.9999998807907104,
    0.9999998807907104, 0.9999998807907104, 0.9999998807907104,
)


def _decode(scores: np.ndarray) -> list[Detection]:
    detections: list[Detection] = []
    for category in range(scores.shape[0]):
        occupied = scores[category] > SCORE_GATE  # NaN scores gate to unoccupied
        for area, top, left, bottom, right in _components(occupied):
            conf = _CONFIDENCES[area] if area < len(_CONFIDENCES) else 1.0
            if conf > _CONFIDENCE_THRESHOLD:
                box = Box(float(left), float(top), float(right), float(bottom))
                detections.append(Detection(box, category, conf))
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


def _finite_input(x: np.ndarray, layer_flags, index: int) -> bool:
    """Whether ``x``, the input of layer ``index``, is finite: the flags of
    the layer before it, or for the first layer a scan of the scene's pixels."""
    return layer_flags[index - 1] == _FINITE if index else bool(np.isfinite(x).all())


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
    ignored without a fault. A faulty pass that does not decode returns
    golden's ``detections`` object itself; one that decodes returns a new
    tuple, which is golden's object only when both are empty (CPython keeps
    one empty tuple).
    """
    if fault is not None:
        _check_fault(model, scene, fault)
        return _resume(model, scene, fault, golden or infer(model, scene))

    x = scene.pixels[None, :, :].astype(F32, copy=False)
    layer_flags = []
    activations = []
    for index, (layer, (leaders, expand)) in enumerate(zip(model.layers, model.twins)):
        finite = _finite_input(x, layer_flags, index)
        if not finite:  # twins hold over finite input only
            leaders, expand = None, None
        x = _activate(_convolve(x, layer, leaders, finite=finite), layer.activation)
        if expand is not None:  # each twin class was convolved once; copy it to its twins
            x = x[expand]
        layer_flags.append(_nonfinite(x))
        activations.append(x)  # never written after this point
    return InferenceTrace(tuple(_decode(x)), tuple(activations), tuple(layer_flags))


def receptive_field(model: DetectorModel, scene: Scene, fault: FaultDescriptor,
                    golden: InferenceTrace) -> tuple | None:
    """The scene pixels a neuron fault's resumed pass can read, as the key
    ``(row0, row1, col0, col1, raw bytes)``: the pixels within R + R_after
    of the faulted pixel, clipped to the scene, where R is the sum of every
    layer's kernel radius (``kh // 2`` for rows, ``kw // 2`` for columns)
    and R_after the sum over the layers after the fault's. For the
    reference model (radii 1, 0, 0, 0, 1) that is a 7x7 patch for a fault
    in L1-L4 and 5x5 for L5. The clipped bounds are part of the key, since
    patches clipped in different ways can hold equal bytes. None for a
    weight fault, whose one-filter part spans the whole plane, and when
    ``golden`` holds Inf or NaN, since ``_resume`` then takes NaN/Inf flags
    over whole layers.

    For one fault, two scenes of one size with equal keys give passes that
    take the same path through ``_resume`` up to decode, with equal NaN/Inf
    flags. Golden's layer l at pixel p depends only on the scene within the
    summed radii of layers 1..l of p, since sparse taps, every tap and twin copies
    give the same bits over finite input, and zero padding depends on p
    alone. The patched value reads golden at the faulted pixel, within the
    radii of layers 1..L. At a later layer l the changed window lies within
    the radii of layers L+1..l of that pixel; recomputing it reads layer
    l-1 one radius further out, and comparing it with golden reads layer l
    over the window itself, the gate comparison at the last layer
    included. The widest read is that last comparison: golden's last layer,
    within R_after of the pixel, reads the scene within R further out.
    Windows and clipping depend only on the pixel, which is fixed for a
    fault. A pass that decodes is not covered: decode reads the whole
    score map.
    """
    if fault.target != FaultTarget.NEURON or golden.nan_seen or golden.inf_seen:
        return None
    _, row, col = fault.tensor_coords
    kernels = [layer.weights.shape[2:] for layer in model.layers]
    after = kernels[fault.layer_index + 1:]
    rows, cols = (sum(k[axis] // 2 for k in kernels) + sum(k[axis] // 2 for k in after) for axis in (0, 1))
    row0, row1 = max(row - rows, 0), min(row + rows + 1, scene.height)
    col0, col1 = max(col - cols, 0), min(col + cols + 1, scene.width)
    return row0, row1, col0, col1, scene.pixels[row0:row1, col0:col1].tobytes()


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
    output channel f of its layer, so its part is channel f, from a
    one-filter layer holding a corrupted copy of filter f; later layers read
    the model as it is. The pass is golden's trace itself, with no
    convolution, when the fault leaves the weight's bits as they are, or
    when the tap's input channel is zero everywhere, the stored and the
    corrupted weight are both finite and f's bias is neither -0.0 nor NaN:
    the tap then adds a +-0 product before and after the fault, which
    changes no sum, since no sum is -0.0 or a signalling NaN (the
    ``ConvLayer.taps`` argument), whatever the other input channels hold.
    Otherwise the part is channel f over the whole scene. A neuron fault's
    part is the one element it patches. Each part is compared with golden
    over raw bits, except that a NaN in both counts as unchanged; when
    nothing differs at the fault's layer the pass is golden's trace itself,
    and at a later layer the rest of the pass is golden's, detections and
    NaN/Inf flags included.

    Otherwise the next layer's window is the bounding box of the differing
    pixels, dilated by its kernel radius and clipped to the scene, and its
    channels are the cone of the differing ones, computed from the model's
    own layer: those whose ``layer.taps`` read a differing channel. When
    the input layer holds Inf or NaN, in the faulty pass or in golden's,
    every channel is recomputed instead, since a zero weight times Inf is
    NaN. Outside the cone a channel's taps read only unchanged input, so
    its golden output stands bit for bit. NaN/Inf is scanned over the part
    alone when golden's layer is finite. Decode runs only when the last
    layer changed a score's side of ``SCORE_GATE``, because decode reads
    nothing else. The trace holds golden's activations with the changed
    layers in their place.
    """
    if len(golden.activations) != len(model.layers):
        raise ValueError(f"golden trace has {len(golden.activations)} layers, "
                         f"the model {len(model.layers)}")
    index = fault.layer_index
    layer = model.layers[index]
    if fault.target == FaultTarget.WEIGHT:
        x_in = (golden.activations[index - 1] if index
                else scene.pixels[None, :, :].astype(F32, copy=False))
        f, c, dy, dx = fault.tensor_coords
        stored = layer.weights[f, c, dy, dx]
        corrupted = apply_fault(stored, fault.bit, fault.mode)
        if corrupted.view(np.uint32) == stored.view(np.uint32):  # a stuck-at bit already in place
            return golden
        if (not x_in[c].any() and not _every_tap(layer.biases)[f]
                and np.isfinite(stored) and np.isfinite(corrupted)):
            return golden
        weights = layer.weights[f:f + 1].copy()
        weights[0, c, dy, dx] = corrupted
        one_filter = ConvLayer(weights, layer.biases[f:f + 1], layer.activation)
        part = _activate(_convolve(x_in, one_filter, finite=_finite_input(x_in, golden.layer_flags, index)),
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
        finite = _finite_input(x, layer_flags, index)
        if finite and golden_finite:
            computed = [k for k, taps in enumerate(layer.taps) if any(ic in changed for ic, _, _ in taps)]
        else:
            computed = list(range(c_out))
        part = _activate(_convolve(x, layer, computed, window, finite=finite), layer.activation)

    gates = [scores[changed, row0:row1, col0:col1] > SCORE_GATE for scores in (x, golden.activations[-1])]
    detections = golden.detections if np.array_equal(*gates) else tuple(_decode(x))
    return InferenceTrace(detections, tuple(activations), tuple(layer_flags))
