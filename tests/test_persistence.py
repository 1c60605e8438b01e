"""M/N tracker against literal hand fixtures and a shift-based oracle."""

from __future__ import annotations

import numpy as np
import pytest

from odfault.persistence import (
    TrackerConfig,
    occupancy_series,
    sdc_at_severity,
    track,
)


# Independent oracle: per-pixel window counts via explicit frame loops and
# Chebyshev dilation via row/column shifts.
def oracle_track(blobs, m, n, vicinity, coasting):
    frames = len(blobs)
    shape = blobs[0].shape
    out = []
    for t in range(frames):
        if t < n - 1:
            out.append(np.zeros(shape, dtype=bool))
            continue
        window = blobs[t - n + 1: t + 1]
        counts = np.zeros(shape, dtype=int)
        for w in window:
            counts = counts + w.astype(int)
        strong = counts >= m
        near = np.zeros(shape, dtype=bool)
        for dy in range(-vicinity, vicinity + 1):
            for dx in range(-vicinity, vicinity + 1):
                shifted = np.zeros(shape, dtype=bool)
                ys_src = slice(max(0, -dy), min(shape[0], shape[0] - dy))
                xs_src = slice(max(0, -dx), min(shape[1], shape[1] - dx))
                ys_dst = slice(max(0, dy), min(shape[0], shape[0] + dy))
                xs_dst = slice(max(0, dx), min(shape[1], shape[1] + dx))
                shifted[ys_dst, xs_dst] = strong[ys_src, xs_src]
                near |= shifted
        persistent = blobs[t] & near
        if coasting:
            persistent |= ~blobs[t] & strong
        out.append(persistent)
    return out


def _frames_from_strings(rows_per_frame):
    return [np.array([[c == "#" for c in row] for row in frame]) for frame in rows_per_frame]


def test_hand_fixture_static_blob_with_dropout():
    # 6 frames, 1x5 strip, m=2, n=3, no vicinity. Pixel 0 occupied in every
    # frame, pixel 2 occupied in frames 0,1,3,4 (dropout at 2 and 5),
    # pixel 4 occupied only in frame 3.
    frames = _frames_from_strings([
        ["#.#.."],
        ["#.#.."],
        ["#...."],
        ["#.#.#"],
        ["#.#.."],
        ["#...."],
    ])
    cfg = TrackerConfig(m=2, n=3, vicinity_px=0, coasting=True)
    got = track(frames, cfg)
    # warm-up: frames 0 and 1 empty
    assert not got[0].any() and not got[1].any()
    # frame 2: counts over frames 0-2: pixel0=3, pixel2=2 -> strong; pixel2
    # unoccupied now -> coasting keeps it
    assert got[2].tolist() == [[True, False, True, False, False]]
    # frame 3: counts over 1-3: pixel0=3, pixel2=2 (frames 1,3), pixel4=1
    assert got[3].tolist() == [[True, False, True, False, False]]
    # frame 4: counts over 2-4: pixel0=3, pixel2=2, pixel4=1
    assert got[4].tolist() == [[True, False, True, False, False]]
    # frame 5: counts over 3-5: pixel0=3, pixel2=2 but unoccupied -> coasting
    assert got[5].tolist() == [[True, False, True, False, False]]

    # same sequence without coasting: dropouts disappear from the mask
    got_nc = track(frames, TrackerConfig(m=2, n=3, vicinity_px=0, coasting=False))
    assert got_nc[2].tolist() == [[True, False, False, False, False]]
    assert got_nc[3].tolist() == [[True, False, True, False, False]]
    assert got_nc[5].tolist() == [[True, False, False, False, False]]


def test_hand_fixture_vicinity_rescues_moving_pixel():
    # 1x8 strip, m=2, n=3, vicinity 2: a blob hops right one pixel per
    # frame, so each pixel alone never reaches m, but neighbors do.
    frames = _frames_from_strings([
        ["##......"],
        [".##....."],
        ["..##...."],
        ["...##..."],
    ])
    cfg = TrackerConfig(m=2, n=3, vicinity_px=2, coasting=False)
    got = track(frames, cfg)
    # frame 2: counts over 0-2: p1=2,p2=2 strong; occupied now: p2,p3;
    # p3 rescued by vicinity (p1,p2 within 2)
    assert got[2].tolist() == [[False, False, True, True, False, False, False, False]]
    # frame 3: counts over 1-3: p2=2,p3=2 strong; occupied p3,p4; p4 rescued
    assert got[3].tolist() == [[False, False, False, True, True, False, False, False]]
    # without vicinity, only the own-count pixels that are occupied remain
    got_nv = track(frames, TrackerConfig(m=2, n=3, vicinity_px=0, coasting=False))
    assert got_nv[2].tolist() == [[False, False, True, False, False, False, False, False]]


def test_spec_rule_examples():
    rng = np.random.default_rng(0)
    shape = (1, 70)
    # static pixel occupied 12 of last 15 -> persistent under 10/15
    frames = [np.zeros(shape, dtype=bool) for _ in range(15)]
    for t in range(15):
        if t not in (2, 7, 11):
            frames[t][0, 10] = True
    cfg = TrackerConfig(m=10, n=15, vicinity_px=0, coasting=True)
    assert track(frames, cfg)[14][0, 10]

    # pixel occupied 9/15 with a strong neighbor 30 px away -> persistent
    # dynamic under vicinity 50, not persistent without vicinity
    frames = [np.zeros(shape, dtype=bool) for _ in range(15)]
    for t in range(15):
        if t >= 6:
            frames[t][0, 60] = True          # own count 9, occupied now
        if t >= 4:
            frames[t][0, 30] = True          # neighbor count 11
    with_vicinity = track(frames, TrackerConfig(m=10, n=15, vicinity_px=50, coasting=False))
    assert with_vicinity[14][0, 60]
    without = track(frames, TrackerConfig(m=10, n=15, vicinity_px=0, coasting=False))
    assert not without[14][0, 60]
    assert without[14][0, 30]

    # FN-style (no coasting): pixel unoccupied in the current frame is never
    # persistent there
    frames = [np.zeros(shape, dtype=bool) for _ in range(15)]
    for t in range(14):
        frames[t][0, 5] = True
    out = track(frames, TrackerConfig(m=10, n=15, vicinity_px=50, coasting=False))
    assert not out[14][0, 5]
    out_coast = track(frames, TrackerConfig(m=10, n=15, vicinity_px=50, coasting=True))
    assert out_coast[14][0, 5]


def _random_sequence(rng, frames=20, shape=(12, 18), p=0.3):
    return [rng.random(shape) < p for _ in range(frames)]


def test_matches_shift_oracle_on_random_sequences():
    rng = np.random.default_rng(44)
    for coasting in (True, False):
        for vicinity in (0, 1, 3):
            blobs = _random_sequence(rng)
            cfg = TrackerConfig(m=3, n=5, vicinity_px=vicinity, coasting=coasting)
            got = track(blobs, cfg)
            expected = oracle_track(blobs, 3, 5, vicinity, coasting)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)


def _sparse_sequence(rng, n, frames=40, shape=(12, 18)):
    """Short bursts of blobs at 5-50% density between empty stretches of
    n + 1 to 2n + 1 frames, so that many windows of n frames hold no set
    pixel; a burst may start at frame 0, inside the warm-up."""
    blobs = []
    while len(blobs) < frames:
        if blobs or rng.random() < 0.5:
            blobs += [np.zeros(shape, dtype=bool)] * int(rng.integers(n + 1, 2 * n + 2))
        p = rng.uniform(0.05, 0.5)
        blobs += [rng.random(shape) < p for _ in range(int(rng.integers(1, n + 2)))]
    return blobs[:frames]


def test_matches_shift_oracle_on_sparse_sequences():
    rng = np.random.default_rng(45)
    n = 5
    for coasting in (True, False):
        for vicinity in (0, 1, 3):
            for m in (1, 2, 4):
                blobs = _sparse_sequence(rng, n)
                got = track(blobs, TrackerConfig(m=m, n=n, vicinity_px=vicinity, coasting=coasting))
                expected = oracle_track(blobs, m, n, vicinity, coasting)
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    assert np.array_equal(g, e)
                # some window past the warm-up holds no set pixel
                assert any(not any(b.any() for b in blobs[t - n + 1:t + 1])
                           for t in range(n - 1, len(blobs)))


def test_empty_windows_share_one_read_only_mask():
    n, t = 5, 8
    shape = (6, 7)
    blobs = [np.zeros(shape, dtype=bool) for _ in range(20)]
    blobs[1][0, 0] = True  # inside the warm-up: counted, but no mask before frame n - 1
    blobs[t][2, 3] = True
    out = track(blobs, TrackerConfig(m=1, n=n, vicinity_px=0, coasting=True))
    empty = out[0]
    assert not empty.flags.writeable and not empty.any() and empty.shape == shape
    assert all(out[i] is empty for i in range(n - 1))  # warm-up
    # frame 1's pixel persists, coasting, while a window holds it: frames n-1 and n
    assert [np.argwhere(out[i]).tolist() for i in (n - 1, n)] == [[[0, 0]]] * 2
    assert all(out[i] is empty for i in range(n + 1, t))
    # frame t's pixel persists through frame t + n - 1, the last window that holds it
    for i in range(t, t + n):
        assert out[i] is not empty and np.argwhere(out[i]).tolist() == [[2, 3]]
    assert all(out[i] is empty for i in range(t + n, len(blobs)))


def test_vicinity_past_the_larger_side_spans_the_mask():
    # radii from side - 1, which already spans an axis, to past int64
    rng = np.random.default_rng(46)
    blobs = _random_sequence(rng, frames=10, shape=(12, 12), p=0.1)
    expected = oracle_track(blobs, 2, 4, 11, True)
    for vicinity in (11, 12, 10**20):
        got = track(blobs, TrackerConfig(m=2, n=4, vicinity_px=vicinity, coasting=True))
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    assert any(e.any() for e in expected)


def test_monotonicity_in_m():
    rng = np.random.default_rng(9)
    blobs = _random_sequence(rng, frames=25, p=0.5)
    loose = track(blobs, TrackerConfig(m=3, n=6, vicinity_px=2, coasting=True))
    strict = track(blobs, TrackerConfig(m=5, n=6, vicinity_px=2, coasting=True))
    for lo, hi in zip(strict, loose):
        assert not (lo & ~hi).any()  # strict set is a subset


def test_monotonicity_in_vicinity():
    rng = np.random.default_rng(10)
    blobs = _random_sequence(rng, frames=25, p=0.4)
    small = track(blobs, TrackerConfig(m=3, n=6, vicinity_px=1, coasting=False))
    large = track(blobs, TrackerConfig(m=3, n=6, vicinity_px=4, coasting=False))
    for s, l in zip(small, large):
        assert not (s & ~l).any()


def test_no_coasting_is_subset_of_current_occupancy():
    rng = np.random.default_rng(11)
    blobs = _random_sequence(rng, frames=25, p=0.5)
    out = track(blobs, TrackerConfig(m=3, n=6, vicinity_px=3, coasting=False))
    for mask, blob in zip(out, blobs):
        assert not (mask & ~blob).any()


def test_warm_up_frames_empty_and_length_validation():
    blobs = [np.ones((4, 4), dtype=bool)] * 15
    out = track(blobs, TrackerConfig())
    assert all(not m.any() for m in out[:14])
    assert out[14].all()
    with pytest.raises(ValueError):
        track(blobs[:10], TrackerConfig())
    with pytest.raises(ValueError):
        track([np.ones((4, 4), dtype=bool)] * 14 + [np.ones((5, 4), dtype=bool)], TrackerConfig())


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(m=0, n=15)
    with pytest.raises(ValueError):
        TrackerConfig(m=16, n=15)
    with pytest.raises(ValueError):
        TrackerConfig(vicinity_px=-1)


def test_occupancy_series_constant_blob():
    shape = (10, 10)
    blobs = [np.zeros(shape, dtype=bool) for _ in range(15)]
    for b in blobs:
        b[0:5, 0:5] = True
    out = track(blobs, TrackerConfig(m=10, n=15, vicinity_px=0, coasting=True))
    series = occupancy_series(out, image_area=100)
    assert series[:14] == [0.0] * 14
    assert series[14] == pytest.approx(0.25)


def test_occupancy_series_blob_appearing_mid_sequence():
    shape = (16, 16)
    m, n = 3, 5
    blobs = []
    for t in range(20):
        frame = np.zeros(shape, dtype=bool)
        if t >= 5:
            frame[2:6, 2:6] = True
        blobs.append(frame)
    out = track(blobs, TrackerConfig(m=m, n=n, vicinity_px=0, coasting=False))
    series = occupancy_series(out, image_area=256)
    # zeros until the blob has m frames of history (first at t = 5 + m - 1)
    first_hit = 5 + m - 1
    assert all(v == 0.0 for v in series[:first_hit])
    assert all(v == pytest.approx(16 / 256) for v in series[first_hit:])


def test_occupancy_series_reference_normalization():
    shape = (8, 8)
    blobs = [np.zeros(shape, dtype=bool) for _ in range(6)]
    for b in blobs:
        b[0:2, 0:2] = True
    out = track(blobs, TrackerConfig(m=2, n=3, vicinity_px=0, coasting=False))
    refs = [np.zeros(shape, dtype=bool) for _ in range(6)]
    for r in refs[:5]:
        r[0:4, 0:4] = True
    series = occupancy_series(out, reference_blobs=refs)
    assert series[2] == pytest.approx(4 / 16)
    assert series[5] is None  # empty reference frame
    with pytest.raises(ValueError):
        occupancy_series(out, image_area=64, reference_blobs=refs)
    with pytest.raises(ValueError):
        occupancy_series(out)


def test_sdc_at_severity_levels():
    assert sdc_at_severity([0.25] * 10, [0, 0.15]) == {0: True, 0.15: True}
    assert sdc_at_severity([0.0] * 10, [0]) == {0: False}
    assert sdc_at_severity([0.10] * 10, [0.15]) == {0.15: False}
    # None frames are skipped in the average
    assert sdc_at_severity([None, 0.3, None, 0.3], [0, 0.25]) == {0: True, 0.25: True}
    assert sdc_at_severity([None, None], [0, 0.1]) == {0: False, 0.1: False}


def test_sdc_at_severity_antitone():
    rng = np.random.default_rng(17)
    for _ in range(30):
        series = rng.uniform(0, 0.4, 20).tolist()
        levels = [0, 0.05, 0.1, 0.15, 0.3]
        flags = sdc_at_severity(series, levels)
        values = [flags[l] for l in levels]
        assert values == sorted(values, reverse=True)
