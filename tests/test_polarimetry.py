import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from evblab.coincidence import PolarBinning
from evblab.lgmodes import radial_amplitudes
from evblab.polarimetry import (
    MeasurementSetting,
    expected_histogram,
    pass_probability,
    set_from_labels,
    setting_from_label,
    standard_set,
)
from evblab.qplate_state import (
    CIRC_TO_LIN,
    JONES,
    QPlateParams,
    bin_states,
    evb_state,
    local_spinor,
)
from evblab.tomography import forward_probabilities

W = 1.0


def plates(qs, qi, delta=math.pi):
    return QPlateParams(qs, delta, W), QPlateParams(qi, delta, W)


def singlet():
    """The polarization singlet: idle plates (delta = 0) on both arms."""
    return evb_state(*plates(0.5, 0.5, delta=0.0))


# ---------------------------------------------------------------------------
# Measurement sets

def test_standard_set_layout():
    tset = standard_set()
    assert len(tset.settings) == 16
    assert tset.labels[0] == "HH"
    assert tset.labels[-1] == "RL"
    # row-major product {H,V,A,R} x {H,V,A,L}
    assert tset.labels[:4] == ("HH", "HV", "HA", "HL")
    assert tset.labels[4] == "VH"


def test_inversion_map_inverts_probability_map():
    # the pseudo-inverse of the probabilities' map takes them back to the
    # matrix, for the standard set and the {H,V,A,L} x {H,V,A,R} one
    for tset in (standard_set(), set_from_labels(a + b for a in "HVAL" for b in "HVAR")):
        np.testing.assert_allclose(tset.inversion_map @ tset.probability_map, np.eye(16),
                                   rtol=0, atol=1e-12)
        for a in (tset.kets, tset.probability_map, tset.projector_map, tset.inversion_map):
            assert not a.flags.writeable


def test_custom_set_from_labels():
    # alternate analyzer choice seen in practice: {H,V,A,L} x {H,V,A,R}
    labels = [a + b for a in "HVAL" for b in "HVAR"]
    tset = set_from_labels(labels)
    assert tset.labels == tuple(labels)


def test_incomplete_set_rejected():
    labels = ["HH"] * 16
    with pytest.raises(ValueError):
        set_from_labels(labels)
    with pytest.raises(ValueError):
        set_from_labels(["HH", "HV"])


def test_setting_label_validation():
    with pytest.raises(ValueError):
        setting_from_label("HX")
    with pytest.raises(ValueError):
        MeasurementSetting("H", JONES["H"], JONES["H"])
    with pytest.raises(ValueError):
        MeasurementSetting("HH", JONES["H"] * 2.0, JONES["H"])


# ---------------------------------------------------------------------------
# Densities

def coincidence_density(state, setting, r_s, theta_s, r_i, theta_i):
    """Oracle: |<setting|psi(x)>|^2 from the local spinor, per r dr dtheta on
    each arm."""
    amp = local_spinor(state, r_s, theta_s, r_i, theta_i) @ CIRC_TO_LIN.T @ np.kron(
        setting.proj_s, setting.proj_i).conj()
    return float(abs(amp) ** 2)


def test_epr_density_hh_zero_hv_half_gaussian():
    state = singlet()
    hh = setting_from_label("HH")
    hv = setting_from_label("HV")
    f2 = np.prod(radial_amplitudes([0], W, [0.4, 0.9])) ** 2
    assert coincidence_density(state, hh, 0.4, 0.1, 0.9, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert coincidence_density(state, hv, 0.4, 0.1, 0.9, 2.0) == pytest.approx(
        f2 / 2, abs=1e-12
    )


def test_tuned_hh_density_sine_law():
    # |<HH|psi>|^2 = F^2 sin^2(th_s - th_i) / 2 for two half-charge plates
    state = evb_state(*plates(0.5, 0.5))
    hh = setting_from_label("HH")
    rng = np.random.default_rng(2)
    for _ in range(50):
        rs, ri = rng.uniform(0.1, 2.5, 2)
        ts, ti = rng.uniform(0, 2 * math.pi, 2)
        f2 = np.prod(radial_amplitudes([1], W, [rs, ri])) ** 2
        want = f2 * math.sin(ts - ti) ** 2 / 2
        assert coincidence_density(state, hh, rs, ts, ri, ti) == pytest.approx(
            want, abs=1e-12
        )


def test_projector_completeness_pointwise():
    state = evb_state(*plates(0.5, 1.0, delta=math.pi / 2))
    rng = np.random.default_rng(3)
    # each analyzer with its complement, from the orthogonal pairs of JONES
    complement = {"H": "V", "V": "H", "A": "D", "D": "A", "L": "R", "R": "L"}
    for a, b in ("HH", "AR", "RL", "DV"):
        quad = [
            setting_from_label(ps + pi)
            for ps in (a, complement[a])
            for pi in (b, complement[b])
        ]
        rs, ri = rng.uniform(0.1, 2.0, 2)
        ts, ti = rng.uniform(0, 2 * math.pi, 2)
        total = sum(coincidence_density(state, q, rs, ts, ri, ti) for q in quad)
        norm = np.sum(np.abs(local_spinor(state, rs, ts, ri, ti)) ** 2)
        assert total == pytest.approx(norm, abs=1e-12)


def test_density_positive_and_basis_invariant():
    state = evb_state(*plates(-0.5, 1.0, delta=math.pi / 2))
    rng = np.random.default_rng(4)
    for label in ("HH", "VA", "RL", "AL"):
        s = setting_from_label(label)
        proj_circ = np.array(
            [np.vdot(JONES[c], s.proj_s) for c in "LR"]
        )
        proj_circ_i = np.array(
            [np.vdot(JONES[c], s.proj_i) for c in "LR"]
        )
        for _ in range(20):
            rs, ri = rng.uniform(0.05, 2.0, 2)
            ts, ti = rng.uniform(0, 2 * math.pi, 2)
            d = coincidence_density(state, s, rs, ts, ri, ti)
            assert d >= 0
            v_circ = local_spinor(state, rs, ts, ri, ti)
            amp = np.kron(proj_circ, proj_circ_i).conj() @ v_circ
            assert d == pytest.approx(abs(amp) ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# Expected histograms

def binning(n_theta=16, r_max=5.0):
    return PolarBinning(n_theta=n_theta, r_max=r_max,
                        centroid_s=(0.0, 0.0), centroid_i=(0.0, 0.0))


def test_expected_histogram_zero_pairs():
    state = singlet()
    h = expected_histogram(state, setting_from_label("HV"), binning(), 0)
    assert np.all(h.counts_theta == 0)


def test_expected_histogram_epr_hv_covers_half():
    # single bin covering effectively all space: expect n_pairs / 2
    state = singlet()
    b = PolarBinning(n_theta=1, r_max=8.0,
                     centroid_s=(0.0, 0.0), centroid_i=(0.0, 0.0))
    h = expected_histogram(state, setting_from_label("HV"), b, 1000)
    assert h.counts_theta[0, 0] == pytest.approx(500.0, abs=1e-3)


def test_expected_histogram_matches_quadrature_oracle():
    # Tuned half-charge pair measured in HH: the density factorizes as
    # F1(rs)^2 F1(ri)^2 sin^2(ts - ti) / 2, so the bin integral equals the
    # product of independent 1D quadratures.
    state = evb_state(*plates(0.5, 0.5))
    hh = setting_from_label("HH")
    b = binning(n_theta=8)
    h = expected_histogram(state, hh, b, 1.0)

    from scipy.integrate import quad

    radial, _ = quad(lambda r: radial_amplitudes([1], W, r)[0] ** 2 * r, 0, 5.0)
    width = 2 * math.pi / 8
    for (a, bb) in [(0, 0), (1, 5), (3, 2)]:
        ang, _ = dblquad(
            lambda ti, ts: math.sin(ts - ti) ** 2 / 2,
            a * width, (a + 1) * width,
            bb * width, (bb + 1) * width,
            epsabs=1e-12,
        )
        oracle = radial**2 * ang
        assert h.counts_theta[a, bb] == pytest.approx(oracle, rel=1e-6)


def test_expected_histogram_diagonal_suppressed_for_hh():
    # sin^2(th_s - th_i) law empties the diagonal bins; the bright bins sit a
    # quarter turn away (th_s - th_i = pi/2), not at opposition (sin^2 pi = 0)
    state = evb_state(*plates(0.5, 0.5))
    h = expected_histogram(state, setting_from_label("HH"), binning(), 10000)
    diag = np.diag(h.counts_theta)
    bright = h.counts_theta[0, 4]
    assert np.all(diag < 0.04 * bright)
    assert h.counts_theta[0, 8] < 0.04 * bright


def test_expected_histogram_complete_group_sums_to_npairs():
    state = evb_state(*plates(0.5, 1.0, delta=math.pi / 2))
    b = binning(r_max=6.0)
    total = sum(
        expected_histogram(state, setting_from_label(lab), b, 1.0).counts_theta.sum()
        for lab in ("HH", "HV", "VH", "VV")
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_expected_histogram_full_mode_consistent():
    # total_pairs is the angular map's sum
    state = evb_state(*plates(0.5, 0.5))
    b = PolarBinning(n_theta=6, r_max=5.0, centroid_s=(0.0, 0.0), centroid_i=(0.0, 0.0))
    h = expected_histogram(state, setting_from_label("HV"), b, 77.0)
    assert h.total_pairs > 1.0
    assert h.counts_theta.sum() == pytest.approx(h.total_pairs, abs=1e-9)


@pytest.mark.parametrize("waist,r_max", [(10.0, 1000.0), (20.0, 1e5)])
def test_expected_histogram_complete_group_sums_to_one_at_large_r_max(waist, r_max):
    # the radial integral must resolve the modes however far r_max reaches
    # beyond them
    state = evb_state(QPlateParams(0.5, math.pi, waist), QPlateParams(1.0, math.pi, waist))
    b = binning(r_max=r_max)
    total = sum(
        expected_histogram(state, setting_from_label(lab), b, 1.0).counts_theta.sum()
        for lab in ("HH", "HV", "VH", "VV")
    )
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Pass probabilities

def test_pass_probability_examples():
    epr = singlet()
    assert pass_probability(epr, setting_from_label("HH")) == pytest.approx(0.0, abs=1e-12)
    assert pass_probability(epr, setting_from_label("HV")) == pytest.approx(0.5, abs=1e-12)
    tuned = evb_state(*plates(0.5, 0.5))
    assert pass_probability(tuned, setting_from_label("HH")) == pytest.approx(0.25, abs=1e-12)
    assert pass_probability(tuned, setting_from_label("RL")) == pytest.approx(0.5, abs=1e-12)


def test_pass_probability_matches_integrated_histogram():
    state = evb_state(*plates(-0.5, 1.0, delta=math.pi / 2))
    b = binning(r_max=7.0)
    for lab in ("HH", "AR", "RL"):
        s = setting_from_label(lab)
        h = expected_histogram(state, s, b, 1.0)
        assert h.counts_theta.sum() == pytest.approx(
            pass_probability(state, s), abs=1e-6
        )


# ---------------------------------------------------------------------------
# One per-bin truth: histograms and pass probabilities are projections of
# the bin states

drawn_plates = st.builds(
    lambda qs, qi, ds, di, ws, wi: (QPlateParams(qs, ds, ws), QPlateParams(qi, di, wi)),
    st.sampled_from([-0.5, 0.5, -1.0, 1.0, 1.5]), st.sampled_from([-0.5, 0.5, -1.0, 1.0, 1.5]),
    st.floats(0.0, math.pi), st.floats(0.0, math.pi), st.floats(0.5, 20.0),
    st.floats(0.5, 20.0))


@given(drawn_plates, st.integers(1, 24), st.floats(0.5, 200.0), st.floats(1.0, 1e7))
@settings(max_examples=20, deadline=None)
def test_expected_histograms_are_forward_probabilities_of_bin_states(plates, n_theta, r_max,
                                                                     n_pairs):
    state = evb_state(*plates)
    tset = standard_set()
    p = forward_probabilities(bin_states(state, n_theta, r_max), tset)
    b = binning(n_theta=n_theta, r_max=r_max)
    for k, s in enumerate(tset.settings):
        np.testing.assert_allclose(expected_histogram(state, s, b, n_pairs).counts_theta,
                                   n_pairs * p[..., k], rtol=0, atol=1e-15 * n_pairs)


@given(drawn_plates)
@settings(max_examples=20, deadline=None)
def test_pass_probability_is_the_one_bin_state_projection(plates):
    # pass_probability merges equal modes; the one all-space bin integrates them
    state = evb_state(*plates)
    rho = bin_states(state, 1)[0, 0]
    for s in standard_set().settings:
        assert pass_probability(state, s) == pytest.approx(
            (s.ket.conj() @ rho @ s.ket).real, abs=1e-12)
