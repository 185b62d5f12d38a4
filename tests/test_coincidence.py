import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evblab import coincidence
from evblab.coincidence import (
    CoincidenceConfig,
    MatchResult,
    PixelPairHistogram,
    PolarBinning,
    accidental_estimate,
    bin_polar,
    find_coincidences,
    pooled_centroids,
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
        ev[k] = (x, y, t, 100, 0)
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


def random_stream(rng, n_max=2000):
    n_s = int(rng.integers(0, n_max // 2))
    n_i = int(rng.integers(0, n_max // 2))
    span = int(rng.choice([10**3, 10**5, 10**7]))
    ts = np.sort(rng.integers(0, span, n_s))
    ti = np.sort(rng.integers(0, span, n_i))
    return ts, ti


def run_matcher(ts, ti, window, multi):
    ev = make_events(ts, ti)
    res = find_coincidences(ev, GEO, CoincidenceConfig(window=window, allow_multi_match=multi))
    # map back to per-stream indices via times (times may repeat; compare as
    # sorted multisets of time pairs)
    return sorted(zip(res.signal["t"].tolist(), res.idler["t"].tolist()))


def matched_indices(ts, ti, window, multi):
    """find_coincidences' pairs as (signal, idler) indices into ts and ti;
    each event carries its index in its own stream in the tot field."""
    ev = np.zeros(len(ts) + len(ti), dtype=EVENT_DTYPE)
    ev["x"], ev["y"] = 29, 29
    ev["x"][len(ts):] = 97
    ev["t"] = np.concatenate([ts, ti])
    ev["tot"] = np.concatenate([np.arange(len(ts)), np.arange(len(ti))])
    ev = ev[np.argsort(ev["t"], kind="stable")]
    res = find_coincidences(ev, GEO, CoincidenceConfig(window=window, allow_multi_match=multi))
    return res.signal["tot"].tolist(), res.idler["tot"].tolist()


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
@settings(max_examples=300, deadline=None)
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


# ---------------------------------------------------------------------------
# Polar binning

def polar_reference(x, y, centroid, binning):
    """The direct per-photon formula: (r, r-bin, theta-bin)."""
    dx = x.astype(float) - centroid[0]
    dy = y.astype(float) - centroid[1]
    r = np.hypot(dx, dy)
    theta = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    tbin = np.minimum((theta / (2.0 * math.pi) * binning.n_theta).astype(np.int64),
                      binning.n_theta - 1)
    rbin = np.minimum((r / binning.r_max * binning.n_r).astype(np.int64), binning.n_r - 1)
    return r, rbin, tbin


def pairs_at(xy_s, xy_i):
    """MatchResult of photon pairs at the given signal and idler pixels."""
    sig = np.zeros(len(xy_s), dtype=EVENT_DTYPE)
    idl = np.zeros(len(xy_i), dtype=EVENT_DTYPE)
    sig["x"], sig["y"] = np.asarray(xy_s).T
    idl["x"], idl["y"] = np.asarray(xy_i).T
    return MatchResult(sig, idl, len(sig), len(idl), 0, len(sig) + len(idl))


def assert_bins_match_formula(result, binning):
    got = bin_polar(result, binning, "HV")
    r_s, rb_s, tb_s = polar_reference(result.signal["x"], result.signal["y"],
                                      binning.centroid_s, binning)
    r_i, rb_i, tb_i = polar_reference(result.idler["x"], result.idler["y"],
                                      binning.centroid_i, binning)
    keep = (r_s <= binning.r_max) & (r_i <= binning.r_max)
    assert np.array_equal(got.counts_theta.ravel(), np.bincount(
        tb_s[keep] * binning.n_theta + tb_i[keep], minlength=binning.n_theta**2))
    assert np.array_equal(got.counts_r.ravel(), np.bincount(
        rb_s[keep] * binning.n_r + rb_i[keep], minlength=binning.n_r**2))
    assert got.dropped_by_radius == int(len(keep) - keep.sum())
    for photons, centroid in ((result.signal, binning.centroid_s),
                              (result.idler, binning.centroid_i)):
        got_cols = coincidence._polar_bins(photons["x"], photons["y"], centroid, binning)
        for g, w in zip(got_cols, polar_reference(photons["x"], photons["y"], centroid, binning)):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("seed", range(4))
def test_bin_polar_equals_formula_on_random_lattice_pairs(seed):
    rng = np.random.default_rng(seed)
    n = 5000
    xy_s = rng.integers(10, 50, (n, 2))
    xy_i = np.column_stack([rng.integers(78, 118, n), rng.integers(10, 50, n)])
    centroid_s = tuple(rng.uniform(25, 35, 2))
    centroid_i = tuple(rng.uniform(92, 102, 2))
    for n_theta, n_r, r_max in ((16, 5, 20.0), (40, 3, 12.5), (7, 1, 100.0)):
        binning = PolarBinning(n_theta=n_theta, n_r=n_r, r_max=r_max,
                               centroid_s=centroid_s, centroid_i=centroid_i)
        assert_bins_match_formula(pairs_at(xy_s, xy_i), binning)


def test_bin_polar_equals_formula_on_bin_edges_and_r_max():
    # integer centroids: pixels on the axes and diagonals sit on theta-bin
    # edges for n_theta 8 and 16; (3, 4), (0, 5) and (5, 0) sit on r_max = 5
    offsets = [(dx, dy) for dx in range(-6, 7) for dy in range(-6, 7)]
    xy_s = [(30 + dx, 30 + dy) for dx, dy in offsets]
    xy_i = [(98 + dy, 30 + dx) for dx, dy in offsets]
    for n_theta in (8, 16):
        binning = PolarBinning(n_theta=n_theta, n_r=5, r_max=5.0,
                               centroid_s=(30.0, 30.0), centroid_i=(98.0, 30.0))
        assert_bins_match_formula(pairs_at(xy_s, xy_i), binning)


def test_bin_polar_far_apart_pairs_use_formula_per_photon(monkeypatch):
    # two photons per ROI, 60000 px apart: the bounding box holds 3.6e9
    # pixels, so the formula must run on the photons, not on a pixel table
    sizes = []
    formula = coincidence._polar_formula

    def spy(dx, dy, binning):
        sizes.append(len(dx))
        return formula(dx, dy, binning)

    monkeypatch.setattr(coincidence, "_polar_formula", spy)
    result = pairs_at([(0, 0), (60000, 60000)], [(1, 60000), (60000, 1)])
    binning = PolarBinning(n_theta=16, n_r=5, r_max=1e5,
                           centroid_s=(30000.0, 30000.0), centroid_i=(30000.0, 30000.0))
    assert_bins_match_formula(result, binning)
    assert max(sizes) == 2


def test_bin_polar_example_bins():
    # theta_s ~ 0.1 -> bin 0; theta_i ~ 3.2 -> bin floor(3.2 / (2 pi / 16)) = 8
    ev = np.zeros(2, dtype=EVENT_DTYPE)
    geo = CameraGeometry(width=4096, height=4096,
                         roi_signal=Rect(0, 0, 2000, 2000),
                         roi_idler=Rect(2001, 0, 2000, 2000))
    # signal pixel at angle 0.1 about (1000, 1000), radius ~1000
    ev[0] = (1000 + 995, 1000 + 100, 50, 10, 0)
    # idler pixel at angle ~3.2 about (3001, 1000)
    ev[1] = (3001 - 998, 1000 - 58, 55, 10, 0)
    binning = PolarBinning(n_theta=16, n_r=5, r_max=1500.0,
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
    assert hist.counts_r.sum() == 0


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
    assert hist.counts_r.sum() == hist.total_pairs


def test_histogram_dict_round_trip():
    from evblab.coincidence import CoincidenceHistogram

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
    assert np.array_equal(back.counts_r, hist.counts_r)
    assert back.binning == hist.binning
    counts = ("total_pairs", "total_singles", "dropped_by_radius",
              "skipped_outside_roi", "total_events")
    for name in counts:
        assert getattr(back, name) == getattr(hist, name), name
    # the run has pairs, singles and events, so the round trip is not of zeros
    assert hist.total_pairs > 0 and hist.total_singles > 0 and hist.total_events > 0


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


def test_split_streams_match_like_records():
    rng = np.random.default_rng(23)
    ts, ti = random_stream(rng, n_max=4000)
    ev = make_events(ts, ti, other=rng.integers(0, 10**7, 300))
    split = split_rois(ev, GEO)
    for cfg in (CoincidenceConfig(window=10), CoincidenceConfig(window=10, allow_multi_match=True)):
        a, b = find_coincidences(ev, GEO, cfg), find_coincidences(split, GEO, cfg)
        assert np.array_equal(a.signal, b.signal) and np.array_equal(a.idler, b.idler)
        assert (a.n_signal_events, a.n_idler_events, a.skipped_outside_roi, a.total_events,
                a.n_contended) == (b.n_signal_events, b.n_idler_events,
                                   b.skipped_outside_roi, b.total_events, b.n_contended)
        assert b.skipped_outside_roi == 300
        assert accidental_estimate(ev, GEO, cfg, 1e6) == accidental_estimate(split, GEO, cfg, 1e6)


# ---------------------------------------------------------------------------
# Accidentals

def test_accidental_estimate_requires_large_offset():
    ev = make_events([100], [105])
    with pytest.raises(ValueError):
        accidental_estimate(ev, GEO, CoincidenceConfig(window=10), offset=50)


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
