"""The in-house stream (``odfault._rng``) against numpy as the oracle.

Every draw equals ``np.random.default_rng(np.random.SeedSequence(entropy))
.integers(low, high)`` for int, tuple, multi-word and longer-than-pool
entropies, over ranges of every branch of the bounded draw, with 32-bit
and 64-bit ranges interleaved so that the carried upper half of a 64-bit
output crosses calls. The three samplers give what a numpy-driven stream
(``rng_reference.NumpyStream``) gives for an int, a numpy integer, a numpy
``SeedSequence`` and a campaign's derived seed. Runs without Hypothesis."""

from __future__ import annotations

import random

import numpy as np
import pytest

from odfault import bits, detector
from odfault._rng import Seed, Stream
from odfault.bits import BIT_POLICIES, FaultTarget, sample_fault
from odfault.campaign import _derive_seed
from odfault.detector import SceneSpec, generate_scene, generate_sequence, reference_model, shape_catalog
from rng_reference import SPANS, NumpyStream, numpy_seed

_ENTROPIES = [
    0, 1, 2**32 - 1, 2**32, 2**70 + 12345,  # one word, and two and three words
    (), (5,), (7, 0, 3), (2**64 - 1, 2**33),
    (1, 2, 3, 4, 5, 6), (2**200 + 1, 9),  # more words than the pool of 4
]


def _draws(pattern_seed: int, n: int = 120):
    """(low, high) pairs: the spans in interleaved orders, then at random,
    from lows of either sign that keep ``high`` within int64."""
    rng = random.Random(pattern_seed)
    spans = [SPANS[(i * stride) % len(SPANS)] for stride in (3, 5) for i in range(2 * len(SPANS))]
    spans += [rng.choice(SPANS) if rng.random() < 0.5 else rng.randrange(1, 2**64)
              for _ in range(n - len(spans))]
    draws = []
    for span in spans:
        low = rng.choice([0, -3, 17, -2**62])
        low = max(min(low, 2**63 - span), -2**63)
        draws.append((low, low + span))
    return draws


@pytest.mark.parametrize("entropy", _ENTROPIES)
def test_seed_state_matches_seed_sequence(entropy):
    assert Seed(entropy).generate_state(8) == np.random.SeedSequence(entropy).generate_state(8).tolist()


@pytest.mark.parametrize("entropy", _ENTROPIES)
def test_stream_matches_numpy_draw_for_draw(entropy):
    ours = Stream(Seed(entropy))
    oracle = np.random.default_rng(np.random.SeedSequence(entropy))
    for low, high in _draws(_ENTROPIES.index(entropy)):
        assert ours.integers(low, high) == int(oracle.integers(low, high)), (low, high)


def test_carried_half_survives_a_64_bit_draw():
    # a 32-bit draw keeps the upper half of its 64-bit output; a 64-bit
    # draw leaves that half alone, and the next 32-bit draw takes it
    for seed in range(50):
        ours, oracle = Stream(seed), np.random.default_rng(seed)
        for low, high in ((0, 6), (0, 2**40), (0, 2**32), (0, 2**63), (0, 2), (0, 2**31), (0, 2**32 + 1)):
            assert ours.integers(low, high) == int(oracle.integers(low, high))


@pytest.mark.parametrize("seed", [0, 3, 2**64 + 1, np.int64(7), np.uint8(200)])
def test_int_seeds_match_default_rng(seed):
    ours, oracle = Stream(seed), np.random.default_rng(seed)
    assert [ours.integers(0, 2**33) for _ in range(40)] == \
        [int(oracle.integers(0, 2**33)) for _ in range(40)]


def test_stream_rejects_what_numpy_rejects():
    with pytest.raises(ValueError):
        Stream(-1)
    with pytest.raises(ValueError):
        Stream(Seed((1, -2)))
    with pytest.raises(TypeError):
        Stream(1.5)
    with pytest.raises(ValueError):
        Stream(0).integers(4, 4)


def test_velocity_is_the_draw_of_numpy_choice():
    # generate_sequence indexes its velocities by integers(0, 6), the draw
    # numpy's choice makes; the streams stay in step after it
    velocities = (-3, -2, -1, 1, 2, 3)
    for seed in range(200):
        chosen, indexed = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert int(chosen.choice(list(velocities))) == velocities[int(indexed.integers(0, 6))]
            assert int(chosen.integers(0, 2**40)) == int(indexed.integers(0, 2**40))


_SAMPLER_SEEDS = [
    0, 5, 2**40, np.int64(7),
    np.random.SeedSequence((3, 1, 4)), np.random.SeedSequence(9, spawn_key=(1,)),
    _derive_seed(11, 0, 2), _derive_seed(11, 1, 2), _derive_seed(2**33, 2, 0),
]
_SPECS = [SceneSpec(), SceneSpec(width=40, height=48, object_count=(1, 6), size_range=(8, 12))]
_MODEL = reference_model()


def _scene_key(scene):
    return scene.pixels.tobytes(), scene.objects


def _samples(seed):
    """Everything the three samplers make from ``seed``."""
    catalog = shape_catalog(_MODEL, 64, 64)
    return (
        [_scene_key(generate_scene(spec, seed)) for spec in _SPECS],
        [_scene_key(frame) for frame in generate_sequence(seed, n_frames=8, width=48, height=40)],
        [sample_fault(catalog, target, policy, seed) for target in FaultTarget for policy in BIT_POLICIES],
    )


@pytest.mark.parametrize("seed", _SAMPLER_SEEDS)
def test_samplers_match_the_numpy_driven_stream(seed, monkeypatch):
    ours = _samples(seed)
    monkeypatch.setattr(detector, "Stream", NumpyStream)
    monkeypatch.setattr(bits, "Stream", NumpyStream)
    assert ours == _samples(seed)


def test_derived_seed_is_the_seed_sequence_of_its_entropy():
    seed = _derive_seed(4, 1, 9)
    assert seed.entropy == (4, 1, 9)
    assert seed.generate_state(8) == numpy_seed(seed).generate_state(8).tolist()
