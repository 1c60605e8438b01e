"""Bit-level fault model checked against an independent struct-based decoder."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from scipy import stats

from odfault.bits import (
    FP32,
    FaultMode,
    FaultTarget,
    ShapeCatalog,
    apply_fault,
    apply_fault_bits,
    classify_value,
    rescale_rate,
    sample_fault,
)

FLIP = FaultMode.TRANSIENT_FLIP
SA0 = FaultMode.STUCK_AT_0
SA1 = FaultMode.STUCK_AT_1


# Independent oracle: struct-based pattern <-> float conversion, stdlib math
# classification. Shares no code with odfault.bits.
def oracle_decode(pattern: int) -> float:
    return struct.unpack("<f", struct.pack("<I", pattern))[0]


def oracle_encode(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def oracle_classify(pattern: int) -> str:
    value = oracle_decode(pattern)
    if math.isinf(value):
        return "inf"
    if math.isnan(value):
        return "nan"
    return "regular"


def test_sign_bit_flip_negates():
    assert apply_fault(1.0, 31, FLIP) == -1.0


def test_exponent_msb_flip_of_one_is_inf():
    # 0x3F800000 -> 0x7F800000
    result = apply_fault(1.0, 30, FLIP)
    assert np.isinf(result) and result > 0
    assert FP32.to_bits(result) == 0x7F800000


def test_lowest_exponent_bit_flip_halves_one():
    assert apply_fault(1.0, 23, FLIP) == 0.5


def test_stuck_at_0_on_exponent_msb_of_minus_two():
    # -2.0 is 0xC0000000 with bit 30 set; clearing it leaves 0x80000000 = -0.0
    result = apply_fault(-2.0, 30, SA0)
    assert FP32.to_bits(result) == 0x80000000
    assert result == 0.0 and np.signbit(result)


def test_stuck_at_modes_set_and_clear():
    assert apply_fault(1.0, 31, SA1) == -1.0
    assert apply_fault(-1.0, 31, SA0) == 1.0
    assert apply_fault(1.0, 31, SA0) == 1.0
    assert apply_fault(-1.0, 31, SA1) == -1.0


def test_bit_index_out_of_range():
    with pytest.raises(ValueError):
        apply_fault(1.0, 32, FLIP)
    with pytest.raises(ValueError):
        apply_fault(1.0, -1, FLIP)


def test_agrees_with_struct_decoder_on_random_patterns():
    rng = np.random.default_rng(1234)
    patterns = rng.integers(0, 1 << 32, size=20000, dtype=np.uint64)
    bits = rng.integers(0, 32, size=20000)
    for pattern, bit in zip(patterns.tolist(), bits.tolist()):
        flipped = apply_fault_bits(pattern, bit, FLIP)
        assert flipped == pattern ^ (1 << bit)
        got = apply_fault(FP32.from_bits(pattern), bit, FLIP)
        assert FP32.to_bits(got) == flipped
        # value-level agreement with the struct decoder (NaN compares by bits above)
        expected_value = oracle_decode(flipped)
        if not math.isnan(expected_value):
            assert float(got) == expected_value
            assert bool(np.signbit(got)) == bool(flipped >> 31)


def test_involution_and_idempotence_with_nan_payloads():
    rng = np.random.default_rng(99)
    patterns = rng.integers(0, 1 << 32, size=5000, dtype=np.uint64).tolist()
    # force some NaN payloads and special values into the sample
    patterns += [0x7F800001, 0xFFC00123, 0x7FC00000, 0x00000000, 0x80000000]
    for pattern in patterns:
        for bit in (0, 7, 22, 23, 30, 31):
            assert apply_fault_bits(apply_fault_bits(pattern, bit, FLIP), bit, FLIP) == pattern
            once_sa1 = apply_fault_bits(pattern, bit, SA1)
            assert apply_fault_bits(once_sa1, bit, SA1) == once_sa1
            once_sa0 = apply_fault_bits(pattern, bit, SA0)
            assert apply_fault_bits(once_sa0, bit, SA0) == once_sa0


def test_locality_at_most_one_bit_changes():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        pattern = int(rng.integers(0, 1 << 32))
        bit = int(rng.integers(0, 32))
        mode = (FLIP, SA0, SA1)[int(rng.integers(0, 3))]
        delta = pattern ^ apply_fault_bits(pattern, bit, mode)
        assert delta & ~(1 << bit) == 0


def test_classify_value_examples():
    assert classify_value(3.75) == "regular"
    assert classify_value(apply_fault(1.0, 30, FLIP)) == "inf"
    assert classify_value(FP32.from_bits(0x7F800001)) == "nan"
    assert classify_value(0.0) == "regular"
    assert classify_value(FP32.from_bits(0x00000001)) == "regular"  # subnormal


def test_classify_agrees_with_math_oracle():
    rng = np.random.default_rng(31337)
    patterns = rng.integers(0, 1 << 32, size=100000, dtype=np.uint64).tolist()
    for pattern in patterns:
        assert classify_value(FP32.from_bits(pattern)) == oracle_classify(pattern)


CATALOG = ShapeCatalog(
    neuron_shapes=((4, 16, 16), (8, 8, 8)),
    weight_shapes=((4, 1, 3, 3), (8, 4, 3, 3)),
)


def test_sample_fault_deterministic():
    a = sample_fault(CATALOG, FaultTarget.NEURON, "all_32", seed=7)
    b = sample_fault(CATALOG, FaultTarget.NEURON, "all_32", seed=7)
    assert a == b


def test_sample_fault_coords_within_shape():
    for seed in range(200):
        d = sample_fault(CATALOG, FaultTarget.WEIGHT, "all_32", seed=seed)
        shape = CATALOG.weight_shapes[d.layer_index]
        assert len(d.tensor_coords) == len(shape)
        assert all(0 <= c < s for c, s in zip(d.tensor_coords, shape))


def test_sample_fault_exponent_only_policy():
    for seed in range(300):
        d = sample_fault(CATALOG, FaultTarget.NEURON, "exponent_only", seed=seed)
        assert 23 <= d.bit <= 30


def test_sample_fault_mantissa_only_policy():
    for seed in range(300):
        d = sample_fault(CATALOG, FaultTarget.NEURON, "mantissa_only", seed=seed)
        assert 0 <= d.bit <= 22


def test_sample_fault_bit_uniformity():
    counts = np.zeros(32, dtype=int)
    for seed in range(10000):
        counts[sample_fault(CATALOG, FaultTarget.NEURON, "all_32", seed=seed).bit] += 1
    _, p = stats.chisquare(counts)
    assert p > 1e-3


def test_sample_fault_empty_catalog():
    empty = ShapeCatalog(neuron_shapes=(), weight_shapes=())
    with pytest.raises(ValueError):
        sample_fault(empty, FaultTarget.NEURON, "all_32", seed=0)


def test_rescale_rate():
    assert rescale_rate(0.96) == pytest.approx(0.24)
    assert rescale_rate(0.0) == 0.0
    assert rescale_rate(1.0) == 0.25
    with pytest.raises(ValueError):
        rescale_rate(1.5)
