"""Anatomy of single-bit corruption in 32-bit floats.

Walks one value through flips at every bit position, shows how stuck-at
modes differ from transient flips, and why exponent-only campaigns get
rescaled by 8/32 when quoting probabilities for uniform 32-bit sampling.
"""

import numpy as np

from odfault.bits import (
    FP32,
    FaultMode,
    apply_fault,
    classify_value,
    rescale_rate,
)


def describe(value, bit, mode):
    result = apply_fault(value, bit, mode)
    kind = classify_value(result)
    band = "sign" if bit == 31 else ("exponent" if bit >= 23 else "mantissa")
    print(f"  bit {bit:2d} ({band:8s}) {mode.value:14s}: "
          f"{float(value):+.6g} -> {float(result):+.6g}  [{kind}]")


def main():
    value = np.float32(1.0)
    print(f"corrupting {float(value)} (pattern {FP32.to_bits(value):#010x})")
    for bit in (31, 30, 29, 26, 23, 22, 12, 0):
        describe(value, bit, FaultMode.TRANSIENT_FLIP)

    print("\nstuck-at modes pin the bit instead of toggling it:")
    describe(np.float32(-2.0), 30, FaultMode.STUCK_AT_0)   # -2.0 -> -0.0
    describe(np.float32(0.5), 30, FaultMode.STUCK_AT_1)    # 0.5 -> 8.5e37
    describe(np.float32(-2.0), 31, FaultMode.STUCK_AT_1)   # already set: no-op

    print("\nthe same flip on a value with all exponent bits set makes NaN:")
    nan_source = FP32.from_bits(0x7F7FFFFF)  # float32 max
    describe(nan_source, 23, FaultMode.STUCK_AT_1)

    print("\nan exponent MSB flip scales a value below 1 in magnitude by 2**128;")
    print("from 1 up to 2 it sets every exponent bit, giving inf or NaN:")
    for x in (0.01, -0.3, 1.5):
        describe(np.float32(x), 30, FaultMode.TRANSIENT_FLIP)

    print("\nexponent-only campaign rates quoted for uniform 32-bit sampling:")
    for rate in (0.96, 0.12):
        print(f"  measured {rate:.2f} under exponent-only -> {rescale_rate(rate):.4f} rescaled")


if __name__ == "__main__":
    main()
