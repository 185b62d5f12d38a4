import math

import numpy as np
import pytest

from evblab.coincidence import (
    CoincidenceConfig,
    PixelPairHistogram,
    PolarBinning,
    accidental_estimate,
    bin_polar,
    find_coincidences,
    pooled_centroids,
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


@pytest.mark.parametrize("window", [1, 10, 100])
@pytest.mark.parametrize("multi", [False, True])
def test_matches_brute_force_on_random_streams(window, multi):
    rng = np.random.default_rng(1000 + window + multi)
    for _ in range(30):
        ts, ti = random_stream(rng)
        got = run_matcher(ts, ti, window, multi)
        want = oracle_pairs_as_times(ts, ti, window, multi)
        assert got == want


# ---------------------------------------------------------------------------
# Polar binning

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
    binning = PolarBinning(store_full=True, centroid_s=cs, centroid_i=ci)
    hist = bin_polar(res, binning, "HV")
    back = CoincidenceHistogram.from_dict(hist.to_dict())
    assert np.array_equal(back.counts_theta, hist.counts_theta)
    assert np.array_equal(back.counts_full, hist.counts_full)
    assert back.total_pairs == hist.total_pairs
    assert back.binning.centroid_s == pytest.approx(hist.binning.centroid_s)


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
