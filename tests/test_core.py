"""Core types: window slicing and the Gaussian splat kernel."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evalign import (CameraIntrinsics, Events, EventWindow, slice_windows,
                     slice_windows_count)
from evalign.core import SPLAT_SIGMA, _splat
from evalign.errors import ValidationError
from evalign.likelihood import NBParams, _nb_log_density


def make_stream(ts):
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    return Events(np.full(n, 5.0), np.full(n, 5.0), ts,
                  np.ones(n, dtype=np.int8))


class TestSliceWindows:
    def test_one_second_stream_gives_20_windows(self):
        # fixed dt of 0.05 s = 20 Hz
        ts = np.linspace(0.0, 1.0, 2001)[:-1]  # events in [0, 1)
        windows = slice_windows(make_stream(ts), dt=0.05)
        assert len(windows) == 20

    def test_empty_stream(self):
        assert slice_windows(Events(*np.empty((4, 0))), dt=0.05) == []

    def test_seven_events_split_five_two(self):
        ts = [0.00, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
        windows = slice_windows(make_stream(ts), dt=0.05)
        assert len(windows) == 2
        assert len(windows[0]) == 5
        assert len(windows[1]) == 2

    def test_unsorted_stream_rejected(self):
        with pytest.raises(ValidationError):
            slice_windows(make_stream([0.2, 0.1]), dt=0.05)

    @settings(max_examples=200, deadline=None)
    @given(offset=st.floats(0.0, 1e3), dt=st.floats(0.01, 0.3),
           rel=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=300),
           end_on_lattice=st.booleans())
    # 3 * 0.1 / 0.1 rounds above 3: only the tolerance keeps it closed
    @example(offset=0.0, dt=0.1, rel=[0.25], end_on_lattice=True)
    # 0.060000000000000005 / 0.01 rounds to 6.0, and 6 * 0.01 is 0.06
    @example(offset=0.05, dt=0.01, rel=[0.01], end_on_lattice=True)
    def test_partition_exactly_once(self, offset, dt, rel, end_on_lattice):
        ts = np.sort(offset + np.asarray(rel))
        if end_on_lattice:
            # the first lattice point at or after the last event
            k = math.ceil(ts[-1] / dt)
            while k * dt < ts[-1]:
                k += 1
            ts = np.append(ts, k * dt)
        windows = slice_windows(make_stream(ts), dt)
        # every event exactly once, in order
        assert np.array_equal(
            np.concatenate([w.events.t for w in windows]), ts)
        k0 = math.floor(ts[0] / dt)
        assert len(windows) == max(1, math.ceil(ts[-1] / dt - 1e-9) - k0)
        for k, w in enumerate(windows, start=k0):
            assert w.t_start == k * dt
            assert w.t_end == (k + 1) * dt
        assert all(a.t_end == b.t_start for a, b in zip(windows, windows[1:]))
        assert len(windows[0]) and len(windows[-1])
        if end_on_lattice and k0 * dt < ts[-1]:
            # a last event on a boundary closes the window below it
            assert windows[-1].t_end == ts[-1]

    def test_derotated_is_keyword_only(self):
        # a stale fourth positional argument (the old t_ref) must not land
        # in the derotated flag
        with pytest.raises(TypeError):
            EventWindow(make_stream([0.01]), 0.0, 0.05, 0.0)

    def test_fixed_count_chunks(self):
        ts = np.linspace(0.0, 1.0, 95)
        windows = slice_windows_count(make_stream(ts), 30)
        assert [len(w) for w in windows] == [30, 30, 30, 5]
        assert windows[0].t_start == ts[0]
        assert windows[0].t_end == ts[29]


def gaussian_taps(u):
    """floor(u) and the four normalised taps exp(-d^2 / 2 sigma^2) at the
    distances d from u to floor(u) - 1 ... floor(u) + 2."""
    u0 = math.floor(u)
    taps = [math.exp(-(u0 + k - u) ** 2 / (2.0 * SPLAT_SIGMA ** 2))
            for k in range(-1, 3)]
    return u0, [t / sum(taps) for t in taps]


def brute_force_splat(positions, width, height):
    """Independent per-event accumulation oracle (plain loops)."""
    img = np.zeros((height, width))
    dropped = 0.0
    for x, y in positions:
        x0, tx = gaussian_taps(x)
        y0, ty = gaussian_taps(y)
        for j in range(4):
            for i in range(4):
                xi, yi, w = x0 + i - 1, y0 + j - 1, ty[j] * tx[i]
                if 0 <= xi < width and 0 <= yi < height:
                    img[yi, xi] += w
                else:
                    dropped += w
    return img, dropped


def splat_one(pos, width=32, height=32):
    """Count image of one (N, 2) position set."""
    return _splat(np.asarray(pos, dtype=float)[None], width, height)[0]


class TestAccumulate:
    def test_integer_position(self):
        # the centre pixel takes the largest share, its neighbours at
        # distance 1 share alike, and the taps at distance 2 lie on one side
        img = splat_one([[10.0, 10.0]])
        _, taps = gaussian_taps(10.0)
        assert img[10, 10] == pytest.approx(taps[1] ** 2, abs=1e-15)
        assert img[10, 10] == img.max()
        assert img[10, 9] == pytest.approx(img[10, 11], abs=1e-15)
        assert img[9, 10] == pytest.approx(img[11, 10], abs=1e-15)
        assert img[10, 12] > 0 and img[10, 8] == 0
        assert img.sum() == pytest.approx(1.0, abs=1e-15)

    def test_half_pixel_splits_evenly(self):
        # (x=10.5, y=10) splits evenly between columns 10 and 11, and
        # between 9 and 12
        img = splat_one([[10.5, 10.0]])
        np.testing.assert_allclose(img[:, 10], img[:, 11], atol=1e-15)
        np.testing.assert_allclose(img[:, 9], img[:, 12], atol=1e-15)
        assert img[:, 10].sum() == pytest.approx(img[:, 10:12].sum() / 2)
        assert img.sum() == pytest.approx(1.0, abs=1e-15)

    def test_mass_conservation_1000_events(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(1.0, 29.0, size=(1000, 2))
        img = splat_one(pos)
        expected, dropped = brute_force_splat(pos, 32, 32)
        assert dropped == 0.0
        assert img.sum() == pytest.approx(1000.0, rel=1e-12)
        np.testing.assert_allclose(img, expected, atol=1e-12)

    def test_out_of_bounds_mass_tallied(self):
        # the mass the kernel drops is what it leaves off the canvas: the
        # right half of the first event, all of the second
        pos = np.array([[31.5, 5.0], [-4.0, 2.0], [10.0, 10.0]])
        img = splat_one(pos)
        expected, dropped = brute_force_splat(pos, 32, 32)
        np.testing.assert_allclose(img, expected, atol=1e-12)
        assert len(pos) - img.sum() == pytest.approx(dropped)
        assert dropped == pytest.approx(1.5)

    def test_batches_match_brute_force(self):
        """B > 1 batches whose rows lie inside the canvas, straddle its
        edges or sit on integer positions, and an empty batch."""
        rng = np.random.default_rng(5)
        w, h = 24, 17
        inside = rng.uniform(1.0, [w - 2, h - 2], size=(3, 40, 2))
        straddle = rng.uniform(-2.5, [w + 1.5, h + 1.5], size=(2, 40, 2))
        # one batch per canvas edge, each crossing that edge alone; past
        # the right or bottom edge only the top one or two taps leave the
        # canvas
        edges = [rng.uniform(lo, hi, size=(2, 40, 2)) for lo, hi in (
            ([-1.0, 1.0], [1.0, h - 2]), ([w - 2, 1.0], [w, h - 2]),
            ([1.0, -1.0], [w - 2, 1.0]), ([1.0, h - 2], [w - 2, h]))]
        on_lattice = rng.integers(-1, [w + 1, h + 1], size=(2, 40, 2))
        for batch in (inside, np.concatenate((inside, straddle)), *edges,
                      np.concatenate((on_lattice.astype(float), inside))):
            out = _splat(batch, w, h)
            assert out.shape == (batch.shape[0], h, w)
            for row, img in zip(batch, out):
                expected, _ = brute_force_splat(row, w, h)
                np.testing.assert_allclose(img, expected, atol=1e-12)
        # in-canvas rows come out bit for bit the same with and without
        # the in-bounds mask (forced here by the straddling rows)
        mixed = _splat(np.concatenate((inside, straddle)), w, h)
        assert np.array_equal(mixed[:3], _splat(inside, w, h))
        assert np.array_equal(_splat(np.empty((3, 0, 2)), w, h),
                              np.zeros((3, h, w)))

    def test_out_buffer_matches_allocating_call(self, bincount_splat):
        """out= fills the given zeroed buffer with the allocating call's
        counts, bit for bit, on the unmasked and the masked path, and
        both equal the weighted-bincount splat."""
        rng = np.random.default_rng(6)
        w, h = 24, 17
        inside = rng.uniform(1.0, [w - 2, h - 2], size=(3, 40, 2))
        straddle = rng.uniform(-2.5, [w + 1.5, h + 1.5], size=(2, 40, 2))
        for batch, on_canvas in ((inside, True), (inside, False),
                                 (straddle, False)):
            alloc = _splat(batch, w, h, on_canvas=on_canvas)
            out = np.zeros(batch.shape[0] * h * w)
            got = _splat(batch, w, h, on_canvas=on_canvas, out=out)
            assert np.shares_memory(got, out)
            assert got.shape == alloc.shape == (batch.shape[0], h, w)
            assert got.tobytes() == alloc.tobytes()
            assert alloc.tobytes() == bincount_splat(batch, w, h).tobytes()

    @pytest.mark.parametrize("out", [np.zeros(2 * 5 * 4 - 1),
                                     np.zeros(2 * 5 * 4 + 1),
                                     np.zeros((2 * 5, 4)),
                                     np.zeros(2 * 5 * 4, dtype=np.float32)])
    def test_out_buffer_of_wrong_size_rejected(self, out):
        with pytest.raises(ValueError, match="flat float64 buffer of 40"):
            _splat(np.ones((2, 3, 2)), 4, 5, out=out)

    def test_splat_touches_at_most_sixteen_pixels(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            pos = rng.uniform(2.0, 29.0, size=(1, 2))
            assert np.count_nonzero(splat_one(pos)) <= 16

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-4.0, 28.0), y=st.floats(-4.0, 20.0))
    def test_each_event_keeps_its_in_bounds_mass(self, x, y):
        """One event's splat carries exactly the mass of its taps that
        land on the canvas: all of it when all 16 do."""
        img = _splat(np.array([[[x, y]]]), 24, 17)[0]
        _, dropped = brute_force_splat([(x, y)], 24, 17)
        assert img.sum() == pytest.approx(1.0 - dropped, abs=1e-12)
        if 1 <= math.floor(x) <= 24 - 3 and 1 <= math.floor(y) <= 17 - 3:
            assert img.sum() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), spread=st.floats(0.0, 3.0),
           q=st.floats(0.5, 0.99), u=st.floats(0.0, 1.0),
           v=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_lattice_bias_is_bounded(self, n, spread, q, u, v, seed):
        """Moving an event cluster by a sub-pixel shift changes its NB
        score by at most 0.06 nats per event: the kernel barely prefers
        pixel centres. A bilinear kernel's range reaches about one nat
        per event."""
        pos = np.random.default_rng(seed).uniform(-spread, spread, (n, 2))
        batch = np.stack((pos, pos + [u, v])) + 12.0
        params = NBParams(0.25, q)
        scores = [float((_nb_log_density(img[img > 0], params)
                         - _nb_log_density(0.0, params)).sum())
                  for img in _splat(batch, 24, 24)]
        assert abs(scores[1] - scores[0]) <= 0.06 * n


class TestCameraIntrinsics:
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        kw = dict(fx=200.0, fy=200.0, cx=95.5, cy=59.5, width=192,
                  height=120)
        kw[field] = value
        with pytest.raises(ValidationError, match="finite"):
            CameraIntrinsics(**kw)


class TestEventsValidation:
    def test_polarity_checked(self):
        with pytest.raises(ValidationError):
            Events(np.array([1.0]), np.array([1.0]), np.array([0.1]),
                   np.array([2], dtype=np.int8)).validate()

    @pytest.mark.parametrize("field", ["x", "y", "t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        arrays = {"x": np.array([1.0, 2.0]), "y": np.array([1.0, 2.0]),
                  "t": np.array([0.1, 0.2])}
        arrays[field][1] = value
        with pytest.raises(ValidationError, match="finite"):
            Events(**arrays, p=np.array([1, 1], dtype=np.int8))
