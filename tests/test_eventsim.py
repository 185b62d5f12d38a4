import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import chi2_contingency, chisquare, kstest

import evblab.eventsim as es
from evblab.coincidence import PolarBinning
from evblab.errors import FormatError, SamplingError
from evblab.eventsim import (
    EVENT_DTYPE,
    CameraGeometry,
    NoiseModel,
    PairPositionSampler,
    Rect,
    RunManifest,
    default_manifest,
    generate_run,
    generate_setting_events,
    intensity_sampler,
    projected_sampler,
    read_events,
    write_events,
)
from evblab.polarimetry import (
    expected_histogram,
    pass_probability,
    setting_from_label,
    standard_set,
)
from evblab.lgmodes import radial_amplitudes
from evblab.qplate_state import JONES, QPlateParams, evb_state


def plates(qs, qi, delta=math.pi, waist=10.0):
    return QPlateParams(qs, delta, waist), QPlateParams(qi, delta, waist)


def small_manifest(n_pairs=2000, seed=1, **noise_kwargs):
    return default_manifest(
        *plates(0.5, 0.5),
        n_pairs=n_pairs,
        rng_seed=seed,
        noise=NoiseModel(**noise_kwargs),
    )


# ---------------------------------------------------------------------------
# Binary format

def test_event_record_layout():
    assert EVENT_DTYPE.itemsize == 12
    names = EVENT_DTYPE.names
    assert names == ("x", "y", "t")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ev = np.zeros(57, dtype=EVENT_DTYPE)
    ev["x"] = rng.integers(0, 1 << 16, 57)
    ev["y"] = rng.integers(0, 1 << 16, 57)
    ev["t"] = np.sort(rng.integers(0, 1 << 62, 57).astype(np.uint64))
    path = tmp_path / "x.evb"
    write_events(path, ev)
    back = read_events(path)
    assert np.array_equal(back, ev)
    raw = path.read_bytes()
    assert raw[:4] == b"EVB1"
    assert raw[4:6] == (2).to_bytes(2, "little")
    assert len(raw) == 16 + 57 * 12


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.evb"
    write_events(path, np.zeros(3, dtype=EVENT_DTYPE))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        read_events(path)
    assert "EVB1" in str(err.value)


def test_read_rejects_truncation_and_version(tmp_path):
    path = tmp_path / "short.evb"
    write_events(path, np.zeros(5, dtype=EVENT_DTYPE))
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(FormatError):
        read_events(path)
    path2 = tmp_path / "ver.evb"
    write_events(path2, np.zeros(1, dtype=EVENT_DTYPE))
    raw = bytearray(path2.read_bytes())
    raw[4] = 99
    path2.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_events(path2)


def test_read_rejects_version_1(tmp_path):
    # a header of the 16-byte-record format, with no records: the one reader
    # refuses it by its version, whatever the size checks would say
    path = tmp_path / "v1.evb"
    header = np.zeros(1, dtype=es.HEADER_DTYPE)
    header["magic"], header["version"] = b"EVB1", 1
    path.write_bytes(header.tobytes())
    assert path.stat().st_size == 16
    with pytest.raises(FormatError, match="unsupported format version 1$"):
        read_events(path)


def test_read_rejects_trailing_bytes(tmp_path):
    # a partial record after the promised ones is a malformed file, not padding
    path = tmp_path / "long.evb"
    write_events(path, np.zeros(5, dtype=EVENT_DTYPE))
    path.write_bytes(path.read_bytes() + bytes(5))
    with pytest.raises(FormatError, match=f"{path.name}: header promises 5 records"):
        read_events(path)


# ---------------------------------------------------------------------------
# Geometry / noise / manifest

def test_geometry_validation():
    with pytest.raises(ValueError):
        CameraGeometry(roi_signal=Rect(0, 0, 40, 40), roi_idler=Rect(20, 20, 40, 40))
    with pytest.raises(ValueError):
        CameraGeometry(width=30, height=30)
    geo = CameraGeometry()
    assert geo.centroid_s == geo.roi_signal.center()


def test_geometry_rejects_sides_beyond_uint16():
    # records hold x and y as uint16: past 65536 px an idler photon at x 65530+
    # would wrap onto the signal side, so such a sensor is refused
    roi_s, roi_i = Rect(0, 0, 40, 40), Rect(65530, 0, 40, 40)
    with pytest.raises(ValueError, match="sensor sides must be at most 65536 pixels, got 70000 x 64"):
        CameraGeometry(width=70_000, height=64, roi_signal=roi_s, roi_idler=roi_i)
    with pytest.raises(ValueError, match="got 128 x 65537"):
        CameraGeometry(width=128, height=65_537)
    edge = CameraGeometry(width=2**16, height=2**16, roi_signal=Rect(0, 0, 2**16, 100),
                          roi_idler=Rect(0, 2**16 - 100, 100, 100))
    assert edge.roi_signal.pixel_index(2**16 - 1, 99) == 2**16 * 100 - 1


def test_noise_validation():
    for bad in (dict(efficiency=1.5), dict(dark_rate=-1),
                dict(jitter_sigma=-0.1), dict(werner_p=2.0)):
        with pytest.raises(ValueError):
            NoiseModel(**bad)
    # NaN fails every comparison, so a bare `x < 0` test would let it through
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"dark rate must be finite .*, got {value}"):
            NoiseModel(dark_rate=value)
        with pytest.raises(ValueError, match=f"jitter must be finite .*, got {value}"):
            NoiseModel(jitter_sigma=value)


def test_manifest_round_trip():
    man = small_manifest()
    back = RunManifest.from_json(man.to_json())
    assert back.settings == man.settings
    assert back.rng_seed == man.rng_seed
    assert back.qplate_s == man.qplate_s
    assert back.geometry == man.geometry
    assert back.noise == man.noise


def test_manifest_validation():
    man = small_manifest()
    with pytest.raises(ValueError):
        RunManifest(
            geometry=man.geometry,
            settings={"HH": "a.evb", "HV": "a.evb"},
            pair_rate=10.0, duration=1.0, noise=NoiseModel(),
            rng_seed=0, qplate_s=man.qplate_s, qplate_i=man.qplate_i,
        )
    for duration in (0.0, math.inf):  # an infinite one would overflow the pair count
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            RunManifest(
                geometry=man.geometry, settings={"HH": "a.evb"},
                pair_rate=10.0, duration=duration, noise=NoiseModel(),
                rng_seed=0, qplate_s=man.qplate_s, qplate_i=man.qplate_i,
            )


@pytest.mark.parametrize("duration,jitter,ok", [
    (4.6e9, 0.0, True), (4.7e9, 0.0, False),  # 2**62 ns is 4.61e9 s
    (1.0, 4.6e17, True), (1.0, 4.62e17, False),  # ten jitter widths count
    (2e11, 1.0, False), (10.0, 1e30, False),
])
def test_manifest_rejects_event_times_beyond_int64(duration, jitter, ok):
    # uint64 event times used to wrap or saturate silently past the cap
    man = small_manifest()

    def manifest():
        return RunManifest(
            geometry=man.geometry, settings={"HH": "a.evb"}, pair_rate=10.0,
            duration=duration, noise=NoiseModel(jitter_sigma=jitter),
            rng_seed=0, qplate_s=man.qplate_s, qplate_i=man.qplate_i,
        )

    if ok:
        manifest()
        return
    message = f"duration {duration:g} s plus 10 jitter widths of {jitter:g} ns) reaches 2**62 ns"
    with pytest.raises(ValueError, match=re.escape(message)):
        manifest()


# ---------------------------------------------------------------------------
# Pair detection

def test_setting_events_share_time_at_unit_efficiency():
    man = small_manifest(n_pairs=200, seed=2, efficiency=1.0, jitter_sigma=0.0)
    state = evb_state(man.qplate_s, man.qplate_i)
    rng = np.random.default_rng(2)
    events, stats = generate_setting_events(state, setting_from_label("HV"), man, rng)
    assert stats["passed_entangled"] > 20
    assert len(events) == 2 * stats["passed_entangled"]
    # time-sorted: the two photons of each pair sit next to each other
    np.testing.assert_array_equal(events["t"][0::2], events["t"][1::2])


def test_setting_events_zero_efficiency_yields_nothing():
    man = small_manifest(n_pairs=200, seed=3, efficiency=0.0)
    state = evb_state(man.qplate_s, man.qplate_i)
    rng = np.random.default_rng(3)
    events, stats = generate_setting_events(state, setting_from_label("HV"), man, rng)
    assert stats["passed_entangled"] > 20
    assert len(events) == 0


def test_sampled_angles_follow_sine_squared_law():
    # 1e5 accepted pairs of the tuned half-charge state in HH: the relative
    # angle follows sin^2, chi-square p-value must clear 0.01
    state = evb_state(*plates(0.5, 0.5))
    rng = np.random.default_rng(4)
    sampler = projected_sampler(state, setting_from_label("HH"))
    _, th_s, _, th_i = sampler.sample(100_000, rng)
    xi = np.mod(th_s - th_i, 2 * math.pi)
    counts, edges = np.histogram(xi, bins=32, range=(0, 2 * math.pi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    # exact bin probabilities of the sin^2 law
    width = 2 * math.pi / 32
    probs = np.array([
        (width / 2 - (math.sin(2 * (c + width / 2)) - math.sin(2 * (c - width / 2))) / 4)
        / math.pi
        for c in centers
    ])
    _, p = chisquare(counts, probs * counts.sum())
    assert p > 0.01


def test_sampled_radii_follow_mode_intensity():
    # radial distribution of the converted idler (|l| = 2) matches the gamma law
    state = evb_state(*plates(0.5, 1.0))
    rng = np.random.default_rng(5)
    sampler = projected_sampler(state, setting_from_label("HV"))
    _, _, r_i, _ = sampler.sample(50_000, rng)
    u = 2 * r_i**2 / state.waist_i**2
    counts, edges = np.histogram(u, bins=30, range=(0, 12))
    from scipy.stats import gamma as gamma_dist

    probs = np.diff(gamma_dist.cdf(edges, a=3.0))
    probs = probs / probs.sum()
    _, p = chisquare(counts, probs * counts.sum())
    assert p > 0.01


def relative_angle_oracle(state, setting, r_edges, xi_edges):
    """Probability of each (idler radius bin, relative-angle bin) cell, with
    xi = theta_s - theta_i mod 2 pi, from the unmerged target integrated
    numerically.  Put theta_i = theta_s - xi: integrating theta_s keeps the
    term pairs of equal l_s + l_i, and leaves exp(-i (l_i,k - l_i,l) xi)."""
    c = np.array([t.amp * np.vdot(setting.proj_s, JONES[t.pol_s])
                  * np.vdot(setting.proj_i, JONES[t.pol_i]) for t in state.terms])

    def radial_integral(ell_a, ell_b, waist, lo, hi):
        ells = [abs(ell_a), abs(ell_b)]
        return quad(lambda r: np.prod(radial_amplitudes(ells, waist, r)) * r, lo, hi,
                    limit=200)[0]

    mass = np.zeros((len(r_edges) - 1, len(xi_edges) - 1))
    for k, tk in enumerate(state.terms):
        for l, tl in enumerate(state.terms):
            if tk.ell_s + tk.ell_i != tl.ell_s + tl.ell_i:
                continue
            o_s = radial_integral(tk.ell_s, tl.ell_s, state.waist_s, 0.0, np.inf)
            o_i = np.array([radial_integral(tk.ell_i, tl.ell_i, state.waist_i, lo, hi)
                            for lo, hi in zip(r_edges[:-1], r_edges[1:])])
            d = tk.ell_i - tl.ell_i
            e = (np.diff(xi_edges) if d == 0
                 else np.diff(np.exp(-1j * d * xi_edges)) / (-1j * d))
            mass += (c[k] * np.conj(c[l]) * o_s * np.outer(o_i, e)).real
    return mass / mass.sum()


def test_joint_radius_relative_angle_law_with_radial_visibility():
    # delta = pi/2: l = 0 and +-1 terms interfere in one group, so the angle
    # acceptance depends on the radii (three radial classes in HH); 2e5 draws
    # binned by (r_i, theta_s - theta_i) against the integrated target
    state = evb_state(*plates(0.5, 0.5, delta=math.pi / 2))
    setting = setting_from_label("HH")
    sampler = projected_sampler(state, setting)
    assert len(sampler._classes) > 1 and sampler.envelope > 1
    r_edges = np.array([0.0, 0.5, 0.8, 1.1, 1.5, np.inf]) * state.waist_i
    xi_edges = np.linspace(0.0, 2 * math.pi, 9)
    _, th_s, r_i, th_i = sampler.sample(200_000, np.random.default_rng(43))
    counts, _, _ = np.histogram2d(r_i, np.mod(th_s - th_i, 2 * math.pi),
                                  bins=(r_edges, xi_edges))
    probs = relative_angle_oracle(state, setting, r_edges, xi_edges)
    _, p = chisquare(counts.ravel(), probs.ravel() * counts.sum())
    assert p > 0.01


def test_split_equal_mode_term_merges_to_same_sampler_and_draws():
    # a term given as two equal-mode halves is the unsplit term: same merged
    # coefficients and modes, and the same draws from the same seed
    c = np.array([0.3 + 0.4j, -0.5j, 0.2, 0.1 - 0.3j])
    ell_s, ell_i, groups = [1, -1, 0, 2], [2, -2, 0, 0], [0, 0, 1, 0]
    whole = PairPositionSampler(c, ell_s, ell_i, groups, 10.0, 12.0)
    split = PairPositionSampler(np.r_[c[0] / 2, c[1:], c[0] / 2], ell_s + [1], ell_i + [2],
                                groups + [0], 10.0, 12.0)
    for name in ("coeffs", "ell_s", "ell_i", "groups", "weights"):
        np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))
    assert split.envelope == whole.envelope == 3
    for a, b in zip(whole.sample(5000, np.random.default_rng(3)),
                    split.sample(5000, np.random.default_rng(3))):
        np.testing.assert_array_equal(a, b)


def test_vanishing_density_radius_accepts_at_mean_rate():
    # at r_s = 0 every signal mode vanishes (P = 0): the angles are accepted
    # at the mean rate 1/envelope there, so such a radius cannot stall sample
    sampler = PairPositionSampler([1.0, 1j], [1, -2], [0, 0], [0, 0], 10.0, 10.0)
    th = np.linspace(0.0, 6.0, 7)
    a = sampler._amplitudes(np.zeros(7), np.ones(7))
    np.testing.assert_array_equal(sampler._angle_ratio(a, th, th), np.full(7, 0.5))


def test_angle_draws_per_pair_at_envelope():
    # criterion-6 plates: HH has envelope 2, so each pair takes a geometric
    # number of angle draws with mean 2 and variance 2; HL has envelope 1
    man = default_manifest(*plates(0.5, 1.0, waist=20.0), n_pairs=40_000, rng_seed=47,
                           noise=NoiseModel(jitter_sigma=0.0))
    state = evb_state(man.qplate_s, man.qplate_i)
    rng = np.random.default_rng(47)
    _, hh = generate_setting_events(state, setting_from_label("HH"), man, rng)
    n = hh["passed_entangled"]
    assert abs(hh["angle_draws"] - 2 * n) < 5 * math.sqrt(2 * n)
    _, hl = generate_setting_events(state, setting_from_label("HL"), man, rng)
    assert hl["angle_draws"] == hl["passed_entangled"] > 0


def test_rejection_budget_enforced(monkeypatch):
    state = evb_state(*plates(0.5, 0.5))
    monkeypatch.setattr(es, "MAX_ATTEMPT_FACTOR", 0)
    sampler = projected_sampler(state, setting_from_label("HH"))
    with pytest.raises(SamplingError):
        sampler.sample(10, np.random.default_rng(0))


def density_ratio_reference(sampler, r_s, th_s, r_i, th_i):
    """The accept ratio from the full target: every term's complex mode
    product, the squared modulus of each group's coherent sum, divided by
    envelope * sum_k |c_k|^2 |phi_k|^2.  NaN where that vanishes: the
    proposal never draws such a point."""

    def modes(ells, waist, r, theta):
        return (radial_amplitudes(np.abs(ells), waist, r)
                * np.exp(1j * np.multiply.outer(np.asarray(ells, dtype=float), theta)))

    fields = (modes(sampler.ell_s, sampler.waist_s, r_s, th_s)
              * modes(sampler.ell_i, sampler.waist_i, r_i, th_i))
    target = np.zeros(r_s.shape)
    for g in np.unique(sampler.groups):
        sel = sampler.groups == g
        target += np.abs((sampler.coeffs[sel, None] * fields[sel]).sum(axis=0)) ** 2
    proposal = (sampler.weights[:, None] * np.abs(fields) ** 2).sum(axis=0)
    out = np.full_like(target, np.nan)
    ok = proposal > 0
    out[ok] = target[ok] / (sampler.envelope * proposal[ok])
    return out


term = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),           # l_s, l_i, group
    st.floats(0.05, 1.0), st.floats(0.0, 2 * math.pi),                  # |c|, arg c
)
radius = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))  # in waists
points = st.lists(st.tuples(radius, st.floats(0.0, 2 * math.pi), radius,
                            st.floats(0.0, 2 * math.pi)), min_size=1, max_size=40)


@given(terms=st.lists(term, min_size=1, max_size=8), copies=st.lists(
           st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
       waists=st.tuples(st.sampled_from([1.0, 10.0, 20.0]), st.sampled_from([1.0, 7.5, 20.0])),
       pts=points)
@settings(max_examples=300)
def test_density_ratio_matches_full_target(terms, copies, waists, pts):
    # copies give term b the modes and group of term a: equal-mode pairs
    terms = [list(t) for t in terms]
    for a, b in copies:
        if a < len(terms) and b < len(terms):
            terms[b][:3] = terms[a][:3]
    ell_s, ell_i, groups, mag, arg = (np.array(c) for c in zip(*terms))
    try:
        sampler = PairPositionSampler(mag * np.exp(1j * arg), ell_s, ell_i, groups, *waists)
    except ValueError:  # equal-mode terms that cancel exactly
        return
    r_s, th_s, r_i, th_i = (np.array(c) for c in zip(*pts))
    r_s, r_i = r_s * waists[0], r_i * waists[1]
    ratio = sampler._angle_ratio(sampler._amplitudes(r_s, r_i), th_s, th_i)
    want = density_ratio_reference(sampler, r_s, th_s, r_i, th_i)
    drawn = np.isfinite(want)
    # ratios lie in [0, 1]: 1e-12 relative to that scale
    np.testing.assert_allclose(ratio[drawn], want[drawn], rtol=1e-12, atol=1e-12)
    assert np.all((ratio >= 0.0) & (ratio <= 1.0 + 1e-12))


def test_singleton_groups_accept_everything_without_modes(monkeypatch):
    # the Werner branch's intensity sampler: one term per sector
    sampler = intensity_sampler(evb_state(*plates(0.5, 1.0)))
    assert sampler.envelope == 1
    monkeypatch.setattr(es, "radial_amplitudes", None)  # any mode evaluation fails
    r = np.linspace(0.0, 30.0, 7)
    np.testing.assert_array_equal(sampler._angle_ratio(sampler._amplitudes(r, r), r, r),
                                  np.ones(7))


def test_sampler_rejects_empty_projection():
    # the polarization singlet (idle plates) passes HH with probability zero
    with pytest.raises(ValueError):
        projected_sampler(evb_state(*plates(0.5, 0.5, delta=0.0)), setting_from_label("HH"))


def test_detect_photons_float32_directions_move_few_pixels():
    # against the float64 formula: the same draws, the same records and
    # times, and a pixel off by one in about 1 coordinate in 10^6
    geo = CameraGeometry()
    noise = NoiseModel(efficiency=0.9, jitter_sigma=1.0)
    src = np.random.default_rng(5)
    n = 10**6
    r = np.sqrt(-np.log(1.0 - src.random(n)) * (geo.waist_px ** 2 / 2.0))
    theta = src.random(n) * (2.0 * math.pi)
    t_true = np.sort(src.uniform(0.0, 1e9, n))
    rng = np.random.default_rng(7)
    x, y, t = es._detect_photons(r, theta, geo.centroid_s, t_true, noise, geo, rng)

    ref = np.random.default_rng(7)
    keep = ref.random(n) < noise.efficiency
    t_ref = t_true + ref.normal(0.0, noise.jitter_sigma, size=n)
    x_ref = np.rint(geo.centroid_s[0] + r * np.cos(theta))
    y_ref = np.rint(geo.centroid_s[1] + r * np.sin(theta))
    keep &= (x_ref >= 0) & (x_ref < geo.width) & (y_ref >= 0) & (y_ref < geo.height)
    assert rng.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(t, np.maximum(np.rint(t_ref[keep]), 0.0).astype(np.uint64))
    moved = np.concatenate([x.astype(np.int64) - x_ref[keep], y.astype(np.int64) - y_ref[keep]])
    assert np.count_nonzero(moved) <= 1e-5 * len(moved)
    assert set(np.abs(moved[moved != 0]).tolist()) <= {1}


# ---------------------------------------------------------------------------
# Full runs

def test_generate_run_deterministic(tmp_path):
    man = small_manifest(n_pairs=1500, seed=9, jitter_sigma=1.0, dark_rate=5.0)
    generate_run(man, tmp_path / "a")
    generate_run(man, tmp_path / "b")
    for fname in man.settings.values():
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_text() == (
        tmp_path / "b" / "manifest.json"
    ).read_text()


def test_generate_run_thread_count_invariance(tmp_path, threads):
    # at any worker count, each file holds its setting's serial synthesis
    # from that setting's child of the manifest seed
    man = small_manifest(n_pairs=800, seed=11)
    generate_run(man, tmp_path)
    state = evb_state(man.qplate_s, man.qplate_i)
    children = np.random.SeedSequence(man.rng_seed).spawn(len(man.settings))
    for child, (label, fname) in zip(children, man.settings.items()):
        events, _ = generate_setting_events(state, setting_from_label(label), man,
                                            np.random.default_rng(child))
        write_events(tmp_path / "serial.evb", events)
        assert (tmp_path / fname).read_bytes() == (tmp_path / "serial.evb").read_bytes()


def test_generated_files_time_sorted(tmp_path):
    man = small_manifest(n_pairs=1000, seed=13, jitter_sigma=2.0, dark_rate=20.0)
    generate_run(man, tmp_path)
    for fname in man.settings.values():
        ev = read_events(tmp_path / fname)
        t = ev["t"].astype(np.int64)
        assert np.all(np.diff(t) >= 0)


def test_record_times_are_uniform_and_carry_no_position():
    # times are drawn sorted and positions in draw order: on a setting with
    # both branches, jitter and dark counts the record times are still
    # uniform over the run, and the first half of the records in time lands
    # on the same pixel blocks (8 x 8) as the second half.  Only the signal
    # half of the sensor is tested, where no two records share a pair.
    man = small_manifest(n_pairs=40_000, seed=61, efficiency=0.9, jitter_sigma=2.0,
                         dark_rate=0.5, werner_p=0.7)
    geo = man.geometry
    state = evb_state(man.qplate_s, man.qplate_i)
    events, stats = generate_setting_events(state, setting_from_label("HH"), man,
                                            np.random.default_rng(61))
    assert stats["passed_entangled"] > 5000 and stats["passed_white"] > 1000
    events = events[events["x"] < geo.width // 2]
    assert kstest(events["t"].astype(float), "uniform",
                  args=(0.0, man.duration * 1e9)).pvalue > 0.01
    blocks = (events["y"] // 8).astype(np.int64) * (geo.width // 8) + events["x"] // 8
    half = len(events) // 2
    table = np.stack([np.bincount(b, minlength=geo.width * geo.height // 64)
                      for b in (blocks[:half], blocks[half:])])
    assert chi2_contingency(table[:, table.sum(axis=0) >= 10]).pvalue > 0.01


def test_event_counts_track_pass_probability():
    # unit efficiency, no darks: events = 2 * Binomial(N, P_pass)
    man = small_manifest(n_pairs=40_000, seed=17, jitter_sigma=0.0)
    state = evb_state(man.qplate_s, man.qplate_i)
    rng = np.random.default_rng(0)
    for label in ("HH", "RL", "HV"):
        setting = setting_from_label(label)
        events, stats = generate_setting_events(state, setting, man, rng)
        p = pass_probability(state, setting)
        mean = 2 * man.n_source_pairs * p
        sigma = 2 * math.sqrt(man.n_source_pairs * p * (1 - p))
        assert abs(len(events) - mean) < 5 * sigma + 10
        assert stats["pass_probability"] == pytest.approx(p, abs=1e-12)


def test_dark_count_statistics(tmp_path):
    # pure dark run: Poisson mean within 5 sigma
    man = default_manifest(*plates(0.5, 0.5), n_pairs=1, rng_seed=23,
                           noise=NoiseModel(efficiency=0.0, dark_rate=3.0))
    generate_run(man, tmp_path)
    geo = man.geometry
    mean = 3.0 * man.duration * geo.width * geo.height
    for fname in list(man.settings.values())[:4]:
        n = len(read_events(tmp_path / fname))
        assert abs(n - mean) < 5 * math.sqrt(mean)


def test_werner_branch_binomially_consistent():
    man = small_manifest(n_pairs=30_000, seed=29, werner_p=0.7)
    state = evb_state(man.qplate_s, man.qplate_i)
    rng = np.random.default_rng(1)
    events, stats = generate_setting_events(
        state, setting_from_label("HV"), man, rng
    )
    n = man.n_source_pairs
    white = stats["white_branch"]
    sigma = math.sqrt(n * 0.7 * 0.3)
    assert abs(white - 0.3 * n) < 5 * sigma


def test_marginal_distribution_matches_expected_histogram():
    # accepted-pair angular histograms converge to the analytic expectation:
    # flattened-CDF Kolmogorov-Smirnov distance below 0.02 at 1e6 samples
    # for every setting of the standard set
    state = evb_state(*plates(0.5, 1.0))
    n = 1_000_000
    binning = PolarBinning(n_theta=16, r_max=50.0, centroid_s=(0, 0), centroid_i=(0, 0))
    rng = np.random.default_rng(31)
    for setting in standard_set().settings:
        sampler = projected_sampler(state, setting)
        _, th_s, _, th_i = sampler.sample(n, rng)
        tb_s = np.minimum((th_s / (2 * math.pi) * 16).astype(int), 15)
        tb_i = np.minimum((th_i / (2 * math.pi) * 16).astype(int), 15)
        emp = np.bincount(tb_s * 16 + tb_i, minlength=256) / n
        h = expected_histogram(state, setting, binning, 1.0)
        exp = (h.counts_theta / h.counts_theta.sum()).ravel()
        ks = np.max(np.abs(np.cumsum(emp - exp)))
        assert ks < 0.02, f"{setting.label}: KS {ks:.4f}"


def test_intensity_sampler_mixture():
    # unconditioned positions: signal arm of the tuned (1/2, 1) state is an
    # equal mixture peaked at the |l|=1 radius
    state = evb_state(*plates(0.5, 1.0))
    rng = np.random.default_rng(37)
    r_s, _, r_i, _ = intensity_sampler(state).sample(50_000, rng)
    u = 2 * r_s**2 / state.waist_s**2
    from scipy.stats import gamma as gamma_dist

    counts, edges = np.histogram(u, bins=25, range=(0, 10))
    probs = np.diff(gamma_dist.cdf(edges, a=2.0))
    _, p = chisquare(counts, probs / probs.sum() * counts.sum())
    assert p > 0.01
