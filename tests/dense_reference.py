"""Dense every-tap forward pass: the test oracle for ``odfault.detector.infer``.

It shares no code with the detector's convolution or golden resume. Every
layer is recomputed over the whole scene, and every tap is multiplied,
zero weights included, in (input channel, row, column) order from a
zero-padded copy of the input, so IEEE special values propagate as in any
dense implementation (0 * inf = nan, -0.0 + 0.0 = +0.0). Only the fault
model (``apply_fault``) and the decode head are the package's own.
"""

from __future__ import annotations

import numpy as np

from odfault.bits import FaultTarget, apply_fault
from odfault.detector import InferenceTrace, _decode

F32 = np.float32


def dense_conv(x: np.ndarray, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    c_in, height, width = x.shape
    c_out, _, kh, kw = weights.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((c_in, height + 2 * ph, width + 2 * pw), dtype=F32)
    padded[:, ph:ph + height, pw:pw + width] = x
    out = np.empty((c_out, height, width), dtype=F32)
    with np.errstate(over="ignore", invalid="ignore"):
        for oc in range(c_out):
            acc = np.full((height, width), biases[oc], dtype=F32)
            for ic in range(c_in):
                for dy in range(kh):
                    for dx in range(kw):
                        acc = acc + weights[oc, ic, dy, dx] * padded[ic, dy:dy + height, dx:dx + width]
            out[oc] = acc
    return out


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    relu = np.maximum(z, F32(0.0))
    return relu if kind == "relu" else np.minimum(relu, F32(1.0))


def dense_infer(model, scene, fault=None) -> InferenceTrace:
    """Full faulty (or fault-free) pass."""
    x = scene.pixels[None, :, :].astype(F32)
    flags = []
    activations = []
    for index, layer in enumerate(model.layers):
        weights = layer.weights
        at_fault = fault is not None and fault.layer_index == index
        if at_fault and fault.target == FaultTarget.WEIGHT:
            weights = weights.copy()
            weights[fault.tensor_coords] = apply_fault(weights[fault.tensor_coords],
                                                       fault.bit, fault.mode)
        x = _activate(dense_conv(x, weights, layer.biases), layer.activation)
        if at_fault and fault.target == FaultTarget.NEURON:
            x[fault.tensor_coords] = apply_fault(x[fault.tensor_coords], fault.bit, fault.mode)
        flags.append((bool(np.isnan(x).any()), bool(np.isinf(x).any())))
        activations.append(x)
    return InferenceTrace(
        detections=tuple(_decode(x)),
        activations=tuple(activations),
        layer_flags=tuple(flags),
    )
