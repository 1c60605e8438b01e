"""NumPy's own stream: the test oracle for ``odfault._rng``.

``NumpyStream`` takes every seed kind the samplers take and draws with
``np.random.default_rng``, as the samplers did before ``_rng`` existed; a
test patches it in for ``Stream`` to get the numpy-driven result.
"""

from __future__ import annotations

import numpy as np

from odfault._rng import Seed

# every branch of the bounded draw: no draw, 32-bit Lemire (2 up to 2**31),
# the raw 32-bit word (2**32), 64-bit Lemire (2**32 - 1 and above: a span of
# 2**32 - 2 is still 32-bit, 2**32 + 1 the first 64-bit one)
SPANS = (1, 2, 6, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63)


def numpy_seed(seed):
    """The numpy seed for a sampler's ``seed``: a ``Seed``'s entropy as a SeedSequence."""
    return np.random.SeedSequence(seed.entropy) if isinstance(seed, Seed) else seed


class NumpyStream:
    def __init__(self, seed):
        self._rng = np.random.default_rng(numpy_seed(seed))

    def integers(self, low, high):
        return int(self._rng.integers(low, high))
