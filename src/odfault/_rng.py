"""NumPy's seeded integer stream, reproduced bit for bit in pure Python.

Scenes, frame sequences and faults draw from the stream that
``np.random.default_rng(seed).integers(low, high)`` gives for an int64
result and ``size=None``, so a campaign loads no ``numpy.random`` and no
NumPy release can move its scenes or faults:

- ``Seed`` mixes non-negative integer entropy as ``SeedSequence`` does:
  each int becomes its little-endian 32-bit words, hashed into a pool of 4
  words, which ``generate_state`` hashes out again;
- ``Stream`` is PCG64 (a 128-bit LCG that steps, then gives its XSL-RR
  output) seeded from 8 such words, with NumPy's buffered upper 32-bit
  half: a 32-bit draw takes the half that an earlier one left, if any,
  and otherwise keeps the upper half of a fresh 64-bit output;
- ``Stream.integers`` is NumPy's bounded draw: none for a one-value
  range, Lemire's method on 32-bit words for a span below ``2**32 - 1``
  (span = high - low - 1), the raw 32-bit word at exactly ``2**32 - 1``,
  and Lemire's method on 64-bit words above.
"""

from __future__ import annotations

from operator import index

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants; its pool holds 4 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """Little-endian 32-bit words of an int, or of each int in a sequence, in order."""
    if isinstance(entropy, (tuple, list)):
        return [word for item in entropy for word in _words(item)]
    value = index(entropy)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(value: int, const: list[int]) -> int:
    value ^= const[0]
    const[0] = (const[0] * _MULT_A) & _MASK32
    value = (value * const[0]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


class Seed:
    """Non-negative integer entropy (an int or a tuple of ints), as
    ``np.random.SeedSequence(entropy)`` takes it."""

    __slots__ = ("entropy",)

    def __init__(self, entropy: int | tuple):
        self.entropy = entropy

    def generate_state(self, n_words: int) -> list[int]:
        """The first ``n_words`` 32-bit words ``SeedSequence.generate_state`` gives."""
        words = _words(self.entropy)
        const = [_INIT_A]
        pool = [_hash(words[i] if i < len(words) else 0, const) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hash(pool[src], const))
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hash(word, const))
        state, const = [], _INIT_B
        for i in range(n_words):
            value = pool[i % _POOL_SIZE] ^ const
            const = (const * _MULT_B) & _MASK32
            value = (value * const) & _MASK32
            state.append(value ^ (value >> 16))
        return state


class Stream:
    """The draws of ``np.random.default_rng(seed)``.

    ``seed`` is an int (a NumPy integer too), or an object with a
    ``generate_state(n_words)`` method, such as ``Seed`` or a
    ``np.random.SeedSequence``, which then supplies the state.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed):
        source = seed if hasattr(seed, "generate_state") else Seed(index(seed))
        w = [int(word) for word in source.generate_state(8)]
        # four little-endian 64-bit words: the state, then the increment, high word first
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        sequence = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (sequence << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + state) & _MASK128
        self._next64()
        self._half = None  # the upper half of a 64-bit output, kept for the next 32-bit draw

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            word, self._half = self._half, None
            return word
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def integers(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``, as ``Generator.integers(low, high)`` draws it."""
        low, high = index(low), index(high)
        span = high - low - 1
        if span < 0:
            raise ValueError(f"low >= high: {low} >= {high}")
        if span > _MASK64:
            raise ValueError(f"range [{low}, {high}) exceeds 64 bits")
        if span == 0:
            return low
        if span == _MASK32:
            return low + self._next32()
        if span == _MASK64:
            return low + self._next64()
        # Lemire: scale a word by the range; redraw only in the biased low sliver
        bits, mask, draw = (32, _MASK32, self._next32) if span < _MASK32 else (64, _MASK64, self._next64)
        count = span + 1
        scaled = draw() * count
        if scaled & mask < count:
            threshold = (mask - span) % count
            while scaled & mask < threshold:
                scaled = draw() * count
        return low + (scaled >> bits)
