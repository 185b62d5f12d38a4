import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from evblab import coincidence
from evblab.coincidence import (
    CoincidenceConfig,
    CoincidenceHistogram,
    MatchResult,
    PixelPairHistogram,
    PolarBinning,
    accidental_estimate,
    bin_polar,
    find_coincidences,
    pooled_centroids,
    roi_centroids,
    roi_images,
    split_rois,
)
from evblab.errors import ConfigurationError, FormatError
from evblab.eventsim import EVENT_DTYPE, CameraGeometry, NoiseModel, Rect, default_manifest, generate_setting_events
from evblab.polarimetry import setting_from_label
from evblab.qplate_state import QPlateParams, evb_state

GEO = CameraGeometry()


def make_events(signal_times=(), idler_times=(), other=()):
    """Synthetic stream: signal events at ROI-signal center, idler likewise."""
    sx, sy = 29, 29
    ix, iy = 97, 29
    rows = [(sx, sy, t) for t in signal_times] + [(ix, iy, t) for t in idler_times]
    rows += [(0, 0, t) for t in other]
    rows.sort(key=lambda r: r[2])
    ev = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for k, (x, y, t) in enumerate(rows):
        ev[k] = (x, y, t)
    return ev


# ---------------------------------------------------------------------------
# Brute-force oracles

def brute_force_pairs(ts, ti, window, multi):
    """O(n^2) reference matcher implementing the same policies."""
    out = []
    if multi:
        for a, t in enumerate(ts):
            for b, u in enumerate(ti):
                if abs(int(t) - int(u)) <= window:
                    out.append((a, b))
        return out
    used = set()
    for a, t in enumerate(ts):
        best, best_d = -1, None
        for b, u in enumerate(ti):
            if b in used:
                continue
            d = abs(int(t) - int(u))
            if d <= window and (best < 0 or d < best_d):
                best, best_d = b, d
        if best >= 0:
            used.add(best)
            out.append((a, best))
    return out


def greedy_reference(ts, ti, window):
    """Greedy matching as one loop over every signal, the reference for the
    clustered matcher: signals in time order, each to its nearest unused
    idler in the window, ties to the earlier idler.  Returns (signal, idler)
    index lists."""
    lo = np.searchsorted(ti, ts - window, side="left").tolist()
    hi = np.searchsorted(ti, ts + window, side="right").tolist()
    ts_l = ts.tolist()
    ti_l = ti.tolist()
    used = bytearray(len(ti_l))
    out_s, out_i = [], []
    for k, t in enumerate(ts_l):
        best = -1
        best_d = 0
        for j in range(lo[k], hi[k]):
            if used[j]:
                continue
            d = abs(ti_l[j] - t)
            if best < 0 or d < best_d:
                best, best_d = j, d
        if best >= 0:
            used[best] = 1
            out_s.append(k)
            out_i.append(best)
    return out_s, out_i


def contended_reference(ts, ti, window):
    """The signals whose candidate range shares an idler with another
    signal's range: the ones greedy matching must resolve in order."""
    lo = np.searchsorted(ti, ts - window, side="left").tolist()
    hi = np.searchsorted(ti, ts + window, side="right").tolist()
    ranges = [set(range(a, b)) for a, b in zip(lo, hi)]
    return sum(any(r & other for j, other in enumerate(ranges) if j != k)
               for k, r in enumerate(ranges))


def random_stream(rng, n_max=2000):
    n_s = int(rng.integers(0, n_max // 2))
    n_i = int(rng.integers(0, n_max // 2))
    span = int(rng.choice([10**3, 10**5, 10**7]))
    ts = np.sort(rng.integers(0, span, n_s))
    ti = np.sort(rng.integers(0, span, n_i))
    return ts, ti


def pixel_per_record(roi, times):
    """Records at ``times``, record k at pixel k of ``roi`` (at most its size)."""
    k = np.arange(len(times))
    ev = np.zeros(len(times), dtype=EVENT_DTYPE)
    ev["x"], ev["y"], ev["t"] = roi.x0 + k % roi.width, roi.y0 + k // roi.width, times
    return ev


def matched_indices(ts, ti, window, multi):
    """find_coincidences' pairs as (signal, idler) indices into ts and ti:
    record k of each side hits ROI pixel k, so a pair's pixels are its indices."""
    ev = np.concatenate([pixel_per_record(GEO.roi_signal, ts),
                         pixel_per_record(GEO.roi_idler, ti)])
    res = find_coincidences(ev[np.argsort(ev["t"], kind="stable")], GEO,
                            CoincidenceConfig(window=window, allow_multi_match=multi))
    return res.pix_s.tolist(), res.pix_i.tolist()


def run_matcher(ts, ti, window, multi):
    """find_coincidences' pairs as sorted (signal time, idler time) pairs."""
    s, i = matched_indices(ts, ti, window, multi)
    return sorted(zip(np.asarray(ts)[s].tolist(), np.asarray(ti)[i].tolist()))


def oracle_pairs_as_times(ts, ti, window, multi):
    return sorted(
        (int(ts[a]), int(ti[b])) for a, b in brute_force_pairs(ts, ti, window, multi)
    )


# ---------------------------------------------------------------------------
# Matching

def test_single_pair_example():
    got = run_matcher([100, 500], [105, 900], 10, multi=False)
    assert got == [(100, 105)]


def test_nearest_in_time_example():
    # idler candidates at distance 5 and 4: the nearer one wins
    got = run_matcher([100], [95, 104], 10, multi=False)
    assert got == [(100, 104)]


def test_tie_breaks_toward_earlier_idler():
    got = run_matcher([100], [95, 105], 10, multi=False)
    assert got == [(100, 95)]


def test_empty_streams():
    res = find_coincidences(make_events(), GEO, CoincidenceConfig())
    assert res.n_pairs == 0
    assert res.n_singles == 0


def test_multi_match_emits_all_pairs():
    got = run_matcher([100, 101], [100, 105], 10, multi=True)
    assert got == [(100, 100), (100, 105), (101, 100), (101, 105)]


def test_unsorted_stream_rejected():
    ev = make_events([100, 50])
    ev["t"] = [100, 50]
    with pytest.raises(FormatError):
        find_coincidences(ev, GEO, CoincidenceConfig())


def test_outside_roi_counted_and_skipped():
    ev = make_events([100], [105], other=[10, 20, 30])
    res = find_coincidences(ev, GEO, CoincidenceConfig())
    assert res.skipped_outside_roi == 3
    assert res.n_pairs == 1


@pytest.mark.parametrize("window", [0.5, 1, 2.5, 10, 100])
@pytest.mark.parametrize("multi", [False, True])
def test_matches_brute_force_on_random_streams(window, multi):
    rng = np.random.default_rng(int(1000 + window + multi))
    for _ in range(30):
        ts, ti = random_stream(rng)
        got = run_matcher(ts, ti, window, multi)
        want = oracle_pairs_as_times(ts, ti, window, multi)
        assert got == want


dense_times = st.lists(st.integers(0, 60), max_size=40).map(sorted)


@given(ts=dense_times, ti=dense_times, window=st.sampled_from([0.5, 1, 2.5, 10]))
@settings(max_examples=300)
def test_match_indices_equal_references_on_dense_streams(ts, ti, window):
    # dense streams with repeated times: most signals compete for idlers
    ts, ti = np.array(ts, dtype=np.int64), np.array(ti, dtype=np.int64)
    assert matched_indices(ts, ti, window, multi=False) == greedy_reference(ts, ti, window)
    want = brute_force_pairs(ts, ti, window, multi=True)
    assert list(zip(*matched_indices(ts, ti, window, multi=True))) == want
    offset = 10 * math.ceil(window)
    ev = make_events(ts, ti)
    for multi in (False, True):
        cfg = CoincidenceConfig(window=window, allow_multi_match=multi)
        want = brute_force_pairs(ts, ti + offset, window, multi)
        assert accidental_estimate(ev, GEO, cfg, offset=offset) == len(want)


@pytest.mark.parametrize("base", [1000, 2**60 + 1])
@pytest.mark.parametrize("window", [1, 2.5, 10])
@pytest.mark.parametrize("multi", [False, True])
def test_window_bound_is_inclusive_and_exact(base, window, multi):
    # |dt| == floor(window) pairs, one ns more does not, also where float64
    # can no longer tell neighbouring ns apart (above 2**53)
    edge = math.floor(window)
    for dt in (edge, -edge):
        assert run_matcher([base], [base + dt], window, multi) == [(base, base + dt)]
    for dt in (edge + 1, -edge - 1):
        assert run_matcher([base], [base + dt], window, multi) == []


def test_contended_signals_counted():
    cfg = CoincidenceConfig(window=10)
    # 100 and 102 share idler 101's window; 500 competes with nobody
    res = find_coincidences(make_events([100, 102, 500], [101, 104, 505]), GEO, cfg)
    assert res.n_pairs == 3
    assert res.n_contended == 2
    lone = find_coincidences(make_events([100, 500], [101, 505]), GEO, cfg)
    assert lone.n_contended == 0
    multi = CoincidenceConfig(window=10, allow_multi_match=True)
    assert find_coincidences(make_events([100, 102], [101]), GEO, multi).n_contended == 0


def assert_rounds_equal_reference(ts, ti, window):
    sig, idl, n_contended = coincidence._match_greedy(ts, ti, window)
    assert (sig.tolist(), idl.tolist()) == greedy_reference(ts, ti, window)
    assert n_contended == contended_reference(ts, ti, window)


def test_rounds_resolve_a_chain_of_signals_in_order():
    # 12 signals 1 ns apart compete for 12 idlers: one cluster, 12 rounds
    ts = np.arange(100, 112, dtype=np.int64)
    ti = np.arange(103, 115, dtype=np.int64)
    assert_rounds_equal_reference(ts, ti, 10)
    assert coincidence._match_greedy(ts, ti, 10)[2] == 12
    # fewer idlers than signals: the last signals of the chain find all taken
    assert_rounds_equal_reference(ts, ti[:5], 10)


clustered_times = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 25)), max_size=60,
).map(lambda pairs: sorted(1000 * c + dt for c, dt in pairs))


@given(ts=clustered_times, ti=clustered_times, window=st.sampled_from([1, 2.5, 4, 10]))
@settings(max_examples=300)
def test_rounds_equal_greedy_reference_on_clustered_streams(ts, ti, window):
    # a few dense bursts far apart: clusters of many signals, all matched in rounds
    assert_rounds_equal_reference(np.array(ts, dtype=np.int64), np.array(ti, dtype=np.int64),
                                  window)


@pytest.mark.parametrize("base", [1000, 2**60])
def test_window_bounds_equal_two_searches(base):
    # windows of up to 7 idlers end within the 8 steps; 8, 9 and 50 go on to
    # the search.  Idlers sit on both edges of each window and just outside.
    window = 100
    sizes = [0, 1, 7, 8, 9, 50]
    ts = base + 10_000 * np.arange(1, 7, dtype=np.int64)
    ti = []
    for t, n in zip(ts.tolist(), sizes):
        ti += [t - window - 1, t + window + 1]
        ti += (t + np.linspace(-window, window, n).astype(np.int64)).tolist()
    ti = np.array(sorted(ti), dtype=np.int64)
    lo, hi = coincidence._window_bounds(ts, ti, window)
    assert np.array_equal(lo, np.searchsorted(ti, ts - window, side="left"))
    assert np.array_equal(hi, np.searchsorted(ti, ts + window, side="right"))
    assert (hi - lo).tolist() == sizes
    # no idlers at all, or none after the last window
    assert [b.tolist() for b in coincidence._window_bounds(ts, ti[:0], window)] == [[0] * 6] * 2
    lo, hi = coincidence._window_bounds(ts, ti[:-1], window)
    assert (hi[-1], hi[-1] - lo[-1]) == (len(ti) - 1, 50)


def test_config_and_binning_require_finite_values():
    with pytest.raises(ValueError, match="coincidence window must be positive and finite"):
        CoincidenceConfig(window=math.inf)
    with pytest.raises(ValueError, match="r_max must be positive and finite"):
        PolarBinning(r_max=math.inf)


def test_split_rejects_times_at_2_62():
    ev = make_events([5, 2**62 - 1])
    assert len(split_rois(ev, GEO).t_s) == 2
    for late in (2**62, 2**63 + 5):
        ev["t"][1] = late
        with pytest.raises(FormatError, match="reaches 2\\*\\*62 ns"):
            split_rois(ev, GEO)


# ---------------------------------------------------------------------------
# Polar binning

def polar_reference(x, y, centroid, binning):
    """The direct per-photon formula: (r, theta-bin)."""
    dx = x.astype(float) - centroid[0]
    dy = y.astype(float) - centroid[1]
    r = np.hypot(dx, dy)
    theta = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    tbin = np.minimum((theta / (2.0 * math.pi) * binning.n_theta).astype(np.int64),
                      binning.n_theta - 1)
    return r, tbin


def roi_pixels(roi, xy):
    """The ROI pixel indices of pixels (x, y), narrowed as find_coincidences
    narrows them."""
    x, y = np.asarray(xy).T
    assert roi.contains(x, y).all()
    return roi.pixel_index(x, y).astype(np.min_scalar_type(roi.width * roi.height - 1))


def pairs_at(xy_s, xy_i, roi_s=GEO.roi_signal, roi_i=GEO.roi_idler):
    """MatchResult of photon pairs at the given signal and idler pixels, from a
    stream of only these pairs."""
    n = len(xy_s)
    return MatchResult(roi_pixels(roi_s, xy_s), roi_pixels(roi_i, xy_i), roi_s, roi_i,
                       n, n, 2 * n)


def assert_bins_match_formula(xy_s, xy_i, binning, rois=(GEO.roi_signal, GEO.roi_idler)):
    """bin_polar on pairs at pixels xy_s and xy_i of the ROIs, and each photon's
    polar cell, equal the per-photon formula."""
    result = pairs_at(xy_s, xy_i, *rois)
    got = bin_polar(result, binning, "HV")
    reference = []
    for xy, roi, pix, centroid in ((xy_s, result.roi_s, result.pix_s, binning.centroid_s),
                                   (xy_i, result.roi_i, result.pix_i, binning.centroid_i)):
        x, y = np.asarray(xy).reshape(-1, 2).T
        r, tbin = polar_reference(x, y, centroid, binning)
        cells = np.where(r <= binning.r_max, tbin, binning.n_theta)
        assert np.array_equal(coincidence._polar_codes(pix, roi, centroid, binning), cells)
        reference.append((r, tbin))
    (r_s, tb_s), (r_i, tb_i) = reference
    keep = (r_s <= binning.r_max) & (r_i <= binning.r_max)
    assert np.array_equal(got.counts_theta.ravel(), np.bincount(
        tb_s[keep] * binning.n_theta + tb_i[keep], minlength=binning.n_theta**2))
    assert got.dropped_by_radius == int(len(keep) - keep.sum())


@pytest.mark.parametrize("seed", range(4))
def test_bin_polar_equals_formula_on_random_lattice_pairs(seed):
    rng = np.random.default_rng(seed)
    n = 5000
    xy_s = rng.integers(10, 50, (n, 2))
    xy_i = np.column_stack([rng.integers(78, 118, n), rng.integers(10, 50, n)])
    centroid_s = tuple(rng.uniform(25, 35, 2))
    centroid_i = tuple(rng.uniform(92, 102, 2))
    for n_theta, r_max in ((16, 20.0), (40, 12.5), (7, 100.0)):
        binning = PolarBinning(n_theta=n_theta, r_max=r_max,
                               centroid_s=centroid_s, centroid_i=centroid_i)
        assert_bins_match_formula(xy_s, xy_i, binning)


def test_bin_polar_equals_formula_on_bin_edges_and_r_max():
    # integer centroids: pixels on the axes and diagonals sit on theta-bin
    # edges for n_theta 8 and 16; (3, 4), (0, 5) and (5, 0) sit on r_max = 5
    offsets = [(dx, dy) for dx in range(-6, 7) for dy in range(-6, 7)]
    xy_s = [(30 + dx, 30 + dy) for dx, dy in offsets]
    xy_i = [(98 + dy, 30 + dx) for dx, dy in offsets]
    for n_theta in (8, 16):
        binning = PolarBinning(n_theta=n_theta, r_max=5.0,
                               centroid_s=(30.0, 30.0), centroid_i=(98.0, 30.0))
        assert_bins_match_formula(xy_s, xy_i, binning)


def test_bin_polar_far_apart_pairs_use_formula_per_photon(monkeypatch):
    # two photons per ROI, 60000 px apart: the ROI holds 3.6e9 pixels, so
    # the formula must run on the photons, not on a pixel table
    sizes = []
    formula = coincidence._polar_formula

    def spy(dx, dy, binning):
        sizes.append(len(dx))
        return formula(dx, dy, binning)

    monkeypatch.setattr(coincidence, "_polar_formula", spy)
    roi = Rect(0, 0, 60001, 60001)
    binning = PolarBinning(n_theta=16, r_max=1e5,
                           centroid_s=(30000.0, 30000.0), centroid_i=(30000.0, 30000.0))
    assert_bins_match_formula([(0, 0), (60000, 60000)], [(1, 60000), (60000, 1)], binning,
                              (roi, roi))
    assert max(sizes) == 2


def lattice_pairs(draw, n):
    """A random ROI of either size class, as a pixel table either pays off
    for n pairs or not, and n random pixels in it."""
    small = draw(st.booleans())
    width, height = (draw(st.integers(1, 30)) if small else draw(st.integers(260, 2000))
                     for _ in range(2))
    roi = Rect(draw(st.integers(0, 2**16 - width)), draw(st.integers(0, 2**16 - height)),
               width, height)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy = np.column_stack([rng.integers(roi.x0, roi.x0 + width, n),
                          rng.integers(roi.y0, roi.y0 + height, n)])
    # integer centroids put pixels on bin edges and on r_max exactly
    centroid = tuple(draw(st.one_of(
        st.integers(-5, w + 5).map(float),
        st.floats(-5, w + 5, allow_nan=False))) + o for w, o in ((width, roi.x0), (height, roi.y0)))
    return roi, xy, centroid


@given(data=st.data(), n=st.integers(0, 1200), n_theta=st.integers(1, 64),
       r_max=st.one_of(st.integers(1, 40).map(float), st.floats(0.1, 3000)))
@settings(max_examples=100)
def test_bin_polar_equals_formula_on_random_rois(data, n, n_theta, r_max):
    # the per-pixel table (ROI at most n pixels) and the per-photon formula
    # (larger ROIs, above 65536 pixels and so uint32 indices among them)
    roi_s, xy_s, centroid_s = lattice_pairs(data.draw, n)
    roi_i, xy_i, centroid_i = lattice_pairs(data.draw, n)
    binning = PolarBinning(n_theta=n_theta, r_max=r_max,
                           centroid_s=centroid_s, centroid_i=centroid_i)
    assert_bins_match_formula(xy_s, xy_i, binning, (roi_s, roi_i))


def test_bin_polar_table_on_a_roi_above_uint16(monkeypatch):
    # a 300x300 ROI (uint32 pixel indices) with more pairs than pixels takes
    # the table: the formula runs once per ROI pixel, not per photon
    sizes = []
    formula = coincidence._polar_formula

    def spy(dx, dy, binning):
        sizes.append(len(dx))
        return formula(dx, dy, binning)

    monkeypatch.setattr(coincidence, "_polar_formula", spy)
    rng = np.random.default_rng(29)
    roi_s, roi_i = Rect(65000, 100, 300, 300), Rect(0, 40000, 300, 300)
    n = 100_000
    xy_s = np.column_stack([rng.integers(65000, 65300, n), rng.integers(100, 400, n)])
    xy_i = np.column_stack([rng.integers(0, 300, n), rng.integers(40000, 40300, n)])
    assert pairs_at(xy_s, xy_i, roi_s, roi_i).pix_s.dtype == np.uint32
    binning = PolarBinning(n_theta=24, r_max=140.0,
                           centroid_s=(65150.3, 249.5), centroid_i=(150.0, 40150.0))
    assert_bins_match_formula(xy_s, xy_i, binning, (roi_s, roi_i))
    assert sizes == [90_000, 90_000] * 2


def test_bin_polar_example_bins():
    # theta_s ~ 0.1 -> bin 0; theta_i ~ 3.2 -> bin floor(3.2 / (2 pi / 16)) = 8
    ev = np.zeros(2, dtype=EVENT_DTYPE)
    geo = CameraGeometry(width=4096, height=4096,
                         roi_signal=Rect(0, 0, 2000, 2000),
                         roi_idler=Rect(2001, 0, 2000, 2000))
    # signal pixel at angle 0.1 about (1000, 1000), radius ~1000
    ev[0] = (1000 + 995, 1000 + 100, 50)
    # idler pixel at angle ~3.2 about (3001, 1000)
    ev[1] = (3001 - 998, 1000 - 58, 55)
    binning = PolarBinning(n_theta=16, r_max=1500.0,
                           centroid_s=(1000.0, 1000.0), centroid_i=(3001.0, 1000.0))
    res = find_coincidences(ev, geo, CoincidenceConfig())
    hist = bin_polar(res, binning, "HH")
    assert hist.counts_theta[0, 8] == 1
    assert hist.counts_theta.sum() == 1


def test_bin_polar_empty():
    res = find_coincidences(make_events(), GEO, CoincidenceConfig())
    binning = PolarBinning(centroid_s=(29.5, 29.5), centroid_i=(97.5, 29.5))
    hist = bin_polar(res, binning, "HH")
    assert hist.counts_theta.sum() == 0


def test_bin_polar_requires_centroids():
    res = find_coincidences(make_events([1], [2]), GEO, CoincidenceConfig())
    with pytest.raises(ConfigurationError):
        bin_polar(res, PolarBinning(), "HH")


def test_bin_polar_radius_cut_counted():
    ev = make_events([100], [101])  # both at ROI centers, r ~ 0.7 px
    res = find_coincidences(ev, GEO, CoincidenceConfig())
    binning = PolarBinning(r_max=0.1, centroid_s=(29.5, 29.5), centroid_i=(97.5, 29.5))
    hist = bin_polar(res, binning, "HH")
    assert hist.total_pairs == 0
    assert hist.dropped_by_radius == 1


def test_conservation_identity_on_pipeline_run():
    man = default_manifest(QPlateParams(0.5), QPlateParams(1.0), n_pairs=20_000,
                           rng_seed=3, noise=NoiseModel(efficiency=0.8, dark_rate=2.0))
    state = evb_state(man.qplate_s, man.qplate_i)
    rng = np.random.default_rng(5)
    events, _ = generate_setting_events(state, setting_from_label("HV"), man, rng)
    res = find_coincidences(events, man.geometry, CoincidenceConfig())
    cs, ci = pooled_centroids([events], man.geometry)
    binning = PolarBinning(centroid_s=cs, centroid_i=ci)
    hist = bin_polar(res, binning, "HV")
    assert (
        2 * hist.total_pairs
        + 2 * hist.dropped_by_radius
        + hist.total_singles
        + hist.skipped_outside_roi
        == hist.total_events
    )
    assert hist.total_events == len(events)
    assert hist.counts_theta.sum() == hist.total_pairs


def test_match_result_holds_4_bytes_per_pair():
    # a pair is its two uint16 ROI pixels (ROIs of at most 65536 pixels): the
    # result holds no record rows and no copy of the records
    man = default_manifest(QPlateParams(0.5), QPlateParams(1.0), n_pairs=150_000, rng_seed=3,
                           geometry=CameraGeometry(width=600, height=300,
                                                   roi_signal=Rect(0, 0, 256, 256),
                                                   roi_idler=Rect(300, 0, 256, 256)))
    events, _ = generate_setting_events(evb_state(man.qplate_s, man.qplate_i),
                                        setting_from_label("HH"), man, np.random.default_rng(5))
    res = find_coincidences(events, man.geometry, CoincidenceConfig())
    assert len(events) > 2**16 and res.n_pairs > 30_000
    arrays = {k: v for k, v in vars(res).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["pix_i", "pix_s"]
    assert sum(v.nbytes for v in arrays.values()) == 4 * res.n_pairs


def test_histogram_dict_round_trip():
    man = default_manifest(QPlateParams(0.5), QPlateParams(0.5), n_pairs=3000, rng_seed=7)
    state = evb_state(man.qplate_s, man.qplate_i)
    events, _ = generate_setting_events(state, setting_from_label("HV"), man,
                                        np.random.default_rng(2))
    res = find_coincidences(events, man.geometry, CoincidenceConfig())
    cs, ci = pooled_centroids([events], man.geometry)
    binning = PolarBinning(centroid_s=cs, centroid_i=ci)
    hist = bin_polar(res, binning, "HV")
    back = CoincidenceHistogram.from_dict(json.loads(json.dumps(hist.to_dict())))
    assert back.setting == "HV"
    assert np.array_equal(back.counts_theta, hist.counts_theta)
    assert back.binning == hist.binning
    counts = ("total_pairs", "total_singles", "dropped_by_radius",
              "skipped_outside_roi", "total_events")
    for name in counts:
        assert getattr(back, name) == getattr(hist, name), name
    # the run has pairs, singles and events, so the round trip is not of zeros
    assert hist.total_pairs > 0 and hist.total_singles > 0 and hist.total_events > 0


def test_histogram_from_dict_rejects_a_map_of_the_wrong_shape():
    binning = PolarBinning(n_theta=4, centroid_s=(29.5, 29.5), centroid_i=(97.5, 29.5))
    d = CoincidenceHistogram(setting="AR", binning=binning, counts_theta=np.ones((4, 4)),
                             total_pairs=16).to_dict()
    for counts in (np.ones((3, 3)), np.ones((4, 5)), np.ones(16)):
        d["counts_theta"] = counts.tolist()
        with pytest.raises(FormatError, match=re.escape(
                f"setting AR: counts_theta has shape {counts.shape}")):
            CoincidenceHistogram.from_dict(d)


# ---------------------------------------------------------------------------
# Centroids

def test_centroids_from_symmetric_events():
    rng = np.random.default_rng(11)
    n = 20_000
    ev = np.zeros(2 * n, dtype=EVENT_DTYPE)
    ang = rng.uniform(0, 2 * math.pi, n)
    ev["x"][:n] = np.rint(29.5 + 8 * np.cos(ang))
    ev["y"][:n] = np.rint(29.5 + 8 * np.sin(ang))
    ev["x"][n:] = np.rint(97.5 + 8 * np.cos(ang))
    ev["y"][n:] = np.rint(29.5 + 8 * np.sin(ang))
    ev["t"] = np.arange(2 * n)
    ev = ev[np.argsort(ev["t"], kind="stable")]
    (cs, ci) = pooled_centroids([ev], GEO)
    assert cs[0] == pytest.approx(29.5, abs=0.1)
    assert ci[0] == pytest.approx(97.5, abs=0.1)
    np.testing.assert_allclose(pooled_centroids([ev, ev], GEO), (cs, ci), atol=1e-9)


def centroids_reference(event_arrays, geometry):
    """ROI centroids from each array's ROI masks and masked coordinate sums."""
    sums = np.zeros((2, 2))
    counts = np.zeros(2)
    rois = (geometry.roi_signal, geometry.roi_idler)
    for events in event_arrays:
        for j, roi in enumerate(rois):
            m = roi.contains(events["x"], events["y"])
            sums[j] += events["x"][m].sum(), events["y"][m].sum()
            counts[j] += m.sum()
    return tuple(roi.center() if counts[j] == 0 else (sums[j, 0] / counts[j], sums[j, 1] / counts[j])
                 for j, roi in enumerate(rois))


def test_pooled_centroids_equal_masked_sums():
    rng = np.random.default_rng(19)
    arrays = []
    for n in (0, 1, 500, 20_000):
        ev = np.zeros(n, dtype=EVENT_DTYPE)
        ev["x"] = rng.integers(0, 2 * GEO.width, n)  # about half of them off the camera
        ev["y"] = rng.integers(0, 2 * GEO.height, n)
        arrays.append(ev)
    edge = np.zeros(4, dtype=EVENT_DTYPE)
    edge["x"] = [65535, 0, GEO.width, GEO.width - 1]
    edge["y"] = [0, 65535, GEO.height - 1, GEO.height]
    arrays.append(edge)
    # integer sums are exact, so the centroids agree to the last bit
    assert pooled_centroids(iter(arrays), GEO) == centroids_reference(arrays, GEO)
    signal_only = [a[GEO.roi_signal.contains(a["x"], a["y"])] for a in arrays]
    cs, ci = pooled_centroids(signal_only, GEO)
    assert (cs, ci) == centroids_reference(signal_only, GEO)
    assert ci == GEO.roi_idler.center()


# a small camera whose records fall on either ROI, between them or off the camera
SMALL = CameraGeometry(width=12, height=7, roi_signal=Rect(1, 1, 4, 3),
                       roi_idler=Rect(7, 2, 3, 5), waist_px=1.0)


def coordinate(side):
    return st.integers(0, side + 2) | st.just(65535)


@given(arrays=st.lists(st.lists(st.tuples(coordinate(SMALL.width), coordinate(SMALL.height)),
                                max_size=60), max_size=5),
       empty=st.sampled_from([None, 0, 1]))
@settings(max_examples=300)
def test_pooled_centroids_equal_summed_split_images(arrays, empty):
    # the camera image's ROI slices and the splits' pixel counts give one set of
    # centroids, float for float; ``empty`` drops every record of that ROI
    rois = (SMALL.roi_signal, SMALL.roi_idler)
    runs = []
    for points in arrays:
        ev = np.zeros(len(points), dtype=EVENT_DTYPE)
        if points:
            ev["x"], ev["y"] = np.array(points).T
        if empty is not None:
            ev = ev[~rois[empty].contains(ev["x"], ev["y"])]
        runs.append(ev)
    images = [np.zeros(r.width * r.height, np.int64) for r in rois]
    for ev in runs:
        for total, image in zip(images, roi_images(split_rois(ev, SMALL), SMALL)):
            total += image
    centroids = pooled_centroids(iter(runs), SMALL)
    assert centroids == roi_centroids(images, SMALL)
    if empty is not None:
        assert centroids[empty] == rois[empty].center()


@pytest.mark.parametrize("width,height", [(16, 16), (257, 1), (256, 256), (257, 256),
                                          (65536, 1), (1, 65536)])
def test_split_pixel_indices_are_exact_in_the_narrow_type(width, height):
    # ROI areas on both sides of 256 and 65536, widths up to the sensor limit
    x0, y0 = min(300, 65536 - width), min(200, 65536 - height)
    roi = Rect(x0, y0, width, height)
    geo = CameraGeometry(width=x0 + width, height=y0 + height, roi_signal=roi,
                         roi_idler=Rect(0, 0, 1, 1), waist_px=1.0)
    rng = np.random.default_rng(width * height)
    x = np.r_[x0, x0 + width - 1, x0, x0 + width - 1,
              rng.integers(max(x0 - 2, 0), x0 + width, 2000), 0]
    y = np.r_[y0, y0, y0 + height - 1, y0 + height - 1,
              rng.integers(max(y0 - 2, 0), y0 + height, 2000), 0]
    ev = np.zeros(len(x), dtype=EVENT_DTYPE)
    ev["x"], ev["y"], ev["t"] = x, y, np.arange(len(x))
    split = split_rois(ev, geo)
    inside = roi.contains(x, y)
    expect = roi.pixel_index(x[inside], y[inside]).astype(np.min_scalar_type(width * height - 1))
    assert inside[:4].all()
    assert split.pix_s.dtype == expect.dtype and np.array_equal(split.pix_s, expect)
    assert split.t_s.dtype == np.int64 and np.array_equal(split.t_s, np.flatnonzero(inside))
    assert split.pix_i.dtype == np.uint8 and np.array_equal(split.pix_i, [0])


def test_split_streams_match_like_records():
    rng = np.random.default_rng(23)
    ts, ti = random_stream(rng, n_max=4000)
    ev = make_events(ts, ti, other=rng.integers(0, 10**7, 300))
    split = split_rois(ev, GEO)
    for cfg in (CoincidenceConfig(window=10), CoincidenceConfig(window=10, allow_multi_match=True)):
        b = find_coincidences(split, GEO, cfg)
        assert_same_match(find_coincidences(ev, GEO, cfg), b)
        assert b.skipped_outside_roi == 300
        assert accidental_estimate(ev, GEO, cfg, 1e6) == accidental_estimate(split, GEO, cfg, 1e6)


def assert_same_match(a: MatchResult, b: MatchResult):
    for name in ("pix_s", "pix_i"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) and x.dtype == y.dtype, name
    assert (a.roi_s, a.roi_i) == (b.roi_s, b.roi_i) == (GEO.roi_signal, GEO.roi_idler)
    assert (a.n_signal_events, a.n_idler_events, a.skipped_outside_roi, a.total_events,
            a.n_contended) == (b.n_signal_events, b.n_idler_events,
                               b.skipped_outside_roi, b.total_events, b.n_contended)


# ---------------------------------------------------------------------------
# Time slices: a record array is matched in slices on EVBLAB_THREADS
# workers, a split whole, and the two agree

def records_at(times, kinds):
    """Records at sorted ``times``: kind "s" and "i" on distinct pixels of the
    signal and idler ROI, in time order, and "o" off both ROIs."""
    kinds = np.array(list(kinds))
    ev = np.zeros(len(times), dtype=EVENT_DTYPE)
    ev["t"] = times
    for kind, roi in (("s", GEO.roi_signal), ("i", GEO.roi_idler)):
        k = np.flatnonzero(kinds == kind)
        ev["x"][k] = roi.x0 + np.arange(len(k)) % roi.width
        ev["y"][k] = roi.y0 + np.arange(len(k)) // roi.width
    return ev


def assert_slices_match_whole(ev, window, multi):
    cfg = CoincidenceConfig(window=window, allow_multi_match=multi)
    assert_same_match(find_coincidences(ev, GEO, cfg),
                      find_coincidences(split_rois(ev, GEO), GEO, cfg))


@st.composite
def sliced_streams(draw):
    # records a few ns apart, ties included, some gaps wider than the window
    n = draw(st.integers(0, 150))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(0, 4), st.integers(0, 25)),
                          min_size=n, max_size=n))
    kinds = draw(st.text("ssiio", min_size=n, max_size=n))
    base = draw(st.sampled_from([0, 1000, 2**60]))
    return records_at(base + np.cumsum(steps, dtype=np.int64), kinds)


@given(ev=sliced_streams(), window=st.sampled_from([0.5, 1, 2.5, 4, 10.7]),
       multi=st.booleans())
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_time_slices_match_like_the_whole_stream(threads, ev, window, multi):
    assert_slices_match_whole(ev, window, multi)


def chain_records(times):
    """Signals and idlers alternating at ``times``, so that greedy matching
    resolves long clusters in rounds."""
    return records_at(times, "si" * (len(times) // 2) + "s" * (len(times) % 2))


@pytest.mark.parametrize("multi", [False, True])
def test_a_gap_of_floor_window_is_not_cut(threads, multi):
    # the one mid-stream gap of 2 ns joins signal 29 and idler 31 at window 2.5
    times = np.concatenate([np.arange(30), np.arange(31, 51)])
    ev = records_at(times, "o" * 29 + "si" + "o" * 19)
    assert coincidence._time_cuts(times, 2, threads) == [0, 50]
    assert find_coincidences(ev, GEO, CoincidenceConfig(window=2.5, allow_multi_match=multi)
                             ).n_pairs == 1
    assert_slices_match_whole(ev, 2.5, multi)


@pytest.mark.parametrize("multi", [False, True])
def test_a_gap_beyond_floor_window_is_cut(threads, multi):
    times = np.concatenate([np.arange(30), np.arange(33, 53)])
    ev = chain_records(times)
    assert coincidence._time_cuts(times, 2, threads) == ([0, 50] if threads == 1 else [0, 30, 50])
    assert_slices_match_whole(ev, 2.5, multi)
    # without a gap there is one slice
    times = np.arange(0, 100, 2)
    assert coincidence._time_cuts(times, 2, threads) == [0, 50]
    assert_slices_match_whole(chain_records(times), 2.5, multi)


def test_disorder_at_the_cut_is_rejected(threads):
    # sorted, the stream is cut after record 29; record 30 is earlier than it
    times = np.concatenate([np.arange(30), [28], np.arange(34, 53)])
    with pytest.raises(FormatError, match="not sorted"):
        find_coincidences(chain_records(times), GEO, CoincidenceConfig(window=2.5))


# ---------------------------------------------------------------------------
# Accidentals

def test_accidental_estimate_requires_large_offset():
    ev = make_events([100], [105])
    with pytest.raises(ValueError):
        accidental_estimate(ev, GEO, CoincidenceConfig(window=10), offset=50)
    # up to 2**62 ns, beyond which the shifted int64 idler times could overflow
    assert accidental_estimate(ev, GEO, CoincidenceConfig(window=10), offset=2**62) == 0
    with pytest.raises(ValueError, match="exceeds 2"):
        accidental_estimate(ev, GEO, CoincidenceConfig(window=1e16), offset=1e19)


def test_accidentals_vanish_for_true_pairs():
    # clean pair events at low rate: shifting kills all coincidences
    # (offset chosen off the event grid period to avoid self-aliasing)
    times = np.arange(100, 10_000_000, 100_000)
    ev = make_events(times, times + 2)
    cfg = CoincidenceConfig(window=10)
    res = find_coincidences(ev, GEO, cfg)
    assert res.n_pairs == len(times)
    assert accidental_estimate(ev, GEO, cfg, offset=1_234_567) <= 2


def test_accidentals_statistically_match_dark_coincidences():
    # uncorrelated streams: the shifted estimate and the direct count are
    # both accidental; their difference stays within 3 sigma
    rng = np.random.default_rng(13)
    span = int(1e9)
    n = 20_000
    ts = np.sort(rng.integers(0, span, n))
    ti = np.sort(rng.integers(0, span, n))
    ev = make_events(ts, ti)
    cfg = CoincidenceConfig(window=100, allow_multi_match=True)
    direct = find_coincidences(ev, GEO, cfg).n_pairs
    shifted = accidental_estimate(ev, GEO, cfg, offset=1e7)
    mean = n * n * 200 / span
    assert abs(direct - shifted) < 3 * math.sqrt(2 * mean) + 3


def test_accidentals_scale_quadratically_with_rate():
    rng = np.random.default_rng(17)
    span = int(1e9)
    cfg = CoincidenceConfig(window=100, allow_multi_match=True)

    def acc(n):
        ts = np.sort(rng.integers(0, span, n))
        ti = np.sort(rng.integers(0, span, n))
        return accidental_estimate(make_events(ts, ti), GEO, cfg, offset=1e7)

    lo = np.mean([acc(10_000) for _ in range(4)])
    hi = np.mean([acc(20_000) for _ in range(4)])
    # doubling both rates quadruples the accidental rate
    assert hi / lo == pytest.approx(4.0, rel=0.35)


# ---------------------------------------------------------------------------
# Pixel-pair histogram

def test_pixel_pair_histogram_counts():
    hist = PixelPairHistogram(GEO)
    assert hist.addressable_pairs == 1600 * 1600
    ev = make_events([100, 200], [101, 201])
    res = find_coincidences(ev, GEO, CoincidenceConfig())
    hist.accumulate(res)
    assert hist.total == 2
    assert hist.count((29, 29), (97, 29)) == 2


def test_pixel_pair_histogram_rejects_outside_roi():
    hist = PixelPairHistogram(GEO)
    with pytest.raises(ValueError):
        hist.count((0, 0), (97, 29))


def test_pixel_pair_histogram_rejects_results_of_other_rois():
    # pixel indices are ROI-relative: under a signal ROI moved by one column,
    # the same photon has another index, so such a result cannot be added
    moved = CameraGeometry(roi_signal=Rect(11, 10, 40, 40))
    res = find_coincidences(make_events([100], [101]), moved, CoincidenceConfig())
    assert res.n_pairs == 1
    hist = PixelPairHistogram(GEO)
    with pytest.raises(ValueError, match="ROIs .* are not the histogram's"):
        hist.accumulate(res)
    assert hist.total == 0


# ---------------------------------------------------------------------------
# Throughput

def _timed_match(n_events, seed):
    import time

    rng = np.random.default_rng(seed)
    n = n_events // 2
    span = 200 * n_events  # constant event density across sizes
    ts = np.sort(rng.integers(0, span, n))
    ti = np.sort(rng.integers(0, span, n))
    ev = make_events(ts, ti)
    cfg = CoincidenceConfig(window=10)
    t0 = time.perf_counter()
    res = find_coincidences(ev, GEO, cfg)
    dt = time.perf_counter() - t0
    assert res.n_pairs >= 0
    return dt


def test_throughput_scales_linearly():
    # regression guard: 100x the events must cost at most ~2x of linear
    _timed_match(10**5, 0)  # warm-up
    t_small = min(_timed_match(10**5, s) for s in (1, 2, 3))
    t_large = _timed_match(10**7, 4)
    assert t_large < 2.0 * 100 * max(t_small, 5e-3), (t_small, t_large)
