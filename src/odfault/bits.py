"""Bit-exact fault models for IEEE-754 single precision values.

Transient single-bit flips and permanent stuck-at-0/1 faults are applied
directly to the raw 32-bit pattern of a value, never to its decoded numeric
form, so NaN payloads and signed zeros survive corruption unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "FP32",
    "FaultMode",
    "FaultDescriptor",
    "ShapeCatalog",
    "apply_fault_bits",
    "apply_fault",
    "classify_value",
    "sample_fault",
    "BIT_POLICIES",
    "rescale_rate",
    "EXPONENT_RESCALE_FACTOR",
]


class FP32:
    """Bit layout of IEEE-754 single precision.

    Bit indices count from the LSB: bit 31 is the sign, bits 30..23 the
    exponent, bits 22..0 the mantissa.
    """

    width = 32
    exponent_high = 30
    exponent_low = 23
    exponent_mask = 0x7F800000
    mantissa_mask = 0x007FFFFF

    @staticmethod
    def to_bits(value) -> int:
        """Raw bit pattern of ``value`` as a float32."""
        return int(np.float32(value).view(np.uint32))

    @staticmethod
    def from_bits(pattern: int) -> np.float32:
        if not 0 <= pattern < (1 << FP32.width):
            raise ValueError(f"pattern {pattern:#x} out of range for fp32")
        return np.uint32(pattern).view(np.float32)


# Fraction of 32-bit positions that lie in the exponent field.
EXPONENT_RESCALE_FACTOR = (FP32.exponent_high - FP32.exponent_low + 1) / FP32.width


class FaultMode(str, Enum):
    """How a bit is corrupted.

    A transient flip lives for exactly one inference; the stuck-at modes
    pin the bit for every inference of a campaign.
    """

    TRANSIENT_FLIP = "transient_flip"
    STUCK_AT_0 = "stuck_at_0"
    STUCK_AT_1 = "stuck_at_1"


class FaultTarget(str, Enum):
    NEURON = "neuron"
    WEIGHT = "weight"


@dataclass(frozen=True)
class FaultDescriptor:
    """Where and what to corrupt: one bit of one tensor element.

    ``layer_index`` refers to a convolutional layer; ``tensor_coords`` is
    ``(channel, row, col)`` for neuron targets and
    ``(filter, channel, row, col)`` for weight targets.
    """

    target: FaultTarget
    layer_index: int
    tensor_coords: tuple[int, ...]
    bit: int
    mode: FaultMode

    def to_json(self) -> dict:
        return {
            "target": self.target.value,
            "layer": self.layer_index,
            "coords": list(self.tensor_coords),
            "bit": self.bit,
            "mode": self.mode.value,
        }


@dataclass(frozen=True)
class ShapeCatalog:
    """Per-layer tensor shapes of a model's injectable surfaces.

    Entry ``i`` describes convolutional layer ``i``: ``neuron_shapes[i]``
    is the activation tensor shape ``(channels, height, width)`` and
    ``weight_shapes[i]`` the filter tensor shape
    ``(filters, channels, kh, kw)``.
    """

    neuron_shapes: tuple[tuple[int, ...], ...]
    weight_shapes: tuple[tuple[int, ...], ...]

    def shapes_for(self, target: FaultTarget) -> tuple[tuple[int, ...], ...]:
        if target == FaultTarget.NEURON:
            return self.neuron_shapes
        return self.weight_shapes


def apply_fault_bits(pattern: int, bit: int, mode: FaultMode) -> int:
    """Corrupt one bit of a raw pattern; all other bits are untouched."""
    if not 0 <= bit < FP32.width:
        raise ValueError(f"bit index {bit} out of range for fp32")
    if not 0 <= pattern < (1 << FP32.width):
        raise ValueError(f"pattern {pattern:#x} out of range for fp32")
    mask = 1 << bit
    if mode == FaultMode.TRANSIENT_FLIP:
        return pattern ^ mask
    if mode == FaultMode.STUCK_AT_0:
        return pattern & ~mask
    if mode == FaultMode.STUCK_AT_1:
        return pattern | mask
    raise ValueError(f"unknown fault mode {mode!r}")


def apply_fault(value, bit: int, mode: FaultMode) -> np.float32:
    """Return ``value`` with one bit corrupted.

    The result is the exact reinterpretation of the modified pattern:
    NaN and Inf outcomes are returned as-is, never sanitized.
    """
    return FP32.from_bits(apply_fault_bits(FP32.to_bits(value), bit, mode))


def classify_value(value) -> str:
    """Classify a value as ``regular``, ``inf`` or ``nan``.

    Inf means all exponent bits set with a zero mantissa, NaN the same with
    a nonzero mantissa. Zeros and subnormals are regular.
    """
    pattern = FP32.to_bits(value)
    if (pattern & FP32.exponent_mask) != FP32.exponent_mask:
        return "regular"
    return "inf" if (pattern & FP32.mantissa_mask) == 0 else "nan"


BIT_POLICIES = ("all_32", "exponent_only", "mantissa_only")


def sample_fault(
    catalog: ShapeCatalog,
    target: FaultTarget,
    bit_policy: str,
    seed,
    mode: FaultMode = FaultMode.TRANSIENT_FLIP,
) -> FaultDescriptor:
    """Draw a uniform random fault location: layer, coordinates, bit.

    The layer is sampled uniformly first, then coordinates within that
    layer's tensor, then a bit position from the policy. Deterministic
    for a fixed seed (an int or a numpy SeedSequence).
    """
    if bit_policy not in BIT_POLICIES:
        raise ValueError(f"unknown bit policy {bit_policy!r}")
    target = FaultTarget(target)
    shapes = catalog.shapes_for(target)
    if not shapes:
        raise ValueError(f"shape catalog has no {target.value} entries")
    rng = np.random.default_rng(seed)
    layer = int(rng.integers(0, len(shapes)))
    coords = tuple(int(rng.integers(0, extent)) for extent in shapes[layer])
    if bit_policy == "all_32":
        bit = int(rng.integers(0, FP32.width))
    elif bit_policy == "exponent_only":
        bit = int(rng.integers(FP32.exponent_low, FP32.exponent_high + 1))
    else:
        bit = int(rng.integers(0, FP32.exponent_low))
    return FaultDescriptor(target, layer, coords, bit, FaultMode(mode))


def rescale_rate(rate_exponent_only: float) -> float:
    """Rescale a rate measured under exponent-only sampling to all-32-bit odds.

    Exponent-only campaigns run 8 of 32 candidate bit positions, so a
    uniform 32-bit sampler would hit them with probability 8/32. The
    additional observation that mantissa flips and 1->0 flips are inert is
    deliberately not folded into this factor; 8/32 is the documented,
    conservative scaling.
    """
    if not 0.0 <= rate_exponent_only <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    return rate_exponent_only * EXPONENT_RESCALE_FACTOR
