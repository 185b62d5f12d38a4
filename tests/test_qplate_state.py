import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evblab.lgmodes import radial_amplitudes
from evblab.qplate_state import (
    BELL_LABELS,
    CIRC_TO_LIN,
    JONES,
    ModeSuperposition,
    ModeTerm,
    QPlateParams,
    bell_probabilities,
    bell_probability_map,
    bin_states,
    evb_state,
    local_spinor,
    torus_coordinates,
)

TUNED_CHARGES = [(0.5, 0.5), (-0.5, 0.5), (0.5, 1.0), (-0.5, 1.0), (-0.5, -0.5), (1.0, 1.0)]


def plates(qs, qi, delta=math.pi, waist=1.0):
    return QPlateParams(qs, delta, waist), QPlateParams(qi, delta, waist)


def tuned_bell_oracle(qs, qi, r_s, th_s, r_i, th_i, waist=1.0):
    """Closed-form Bell probabilities for two fully converting plates."""
    f = (radial_amplitudes([abs(round(2 * qs))], waist, r_s)[0]
         * radial_amplitudes([abs(round(2 * qi))], waist, r_i)[0])
    a = 2 * (qs * th_s - qi * th_i)
    return {
        "phi_plus": f**2 * np.sin(a) ** 2,
        "phi_minus": 0.0 * f,
        "psi_plus": 0.0 * f,
        "psi_minus": f**2 * np.cos(a) ** 2,
    }


def half_converting_bell_oracle(qs, qi, r_s, th_s, r_i, th_i, waist=1.0):
    """Closed-form Bell probabilities for two half-converting plates.

    The converted/converted interference term in psi- carries cos of the
    double angle; this is forced by composing the plate action twice and by
    completeness of the Bell basis (the four probabilities must sum to the
    local norm).
    """
    f0s, fqs = radial_amplitudes([0, abs(round(2 * qs))], waist, r_s)
    f0i, fqi = radial_amplitudes([0, abs(round(2 * qi))], waist, r_i)
    a = 2 * (qs * th_s - qi * th_i)
    return {
        "phi_plus": 0.25 * (fqs * fqi) ** 2 * np.sin(a) ** 2,
        "phi_minus": 0.25 * (f0s * fqi * np.sin(2 * qi * th_i)
                             - fqs * f0i * np.sin(2 * qs * th_s)) ** 2,
        "psi_plus": 0.25 * (f0s * fqi * np.cos(2 * qi * th_i)
                            - fqs * f0i * np.cos(2 * qs * th_s)) ** 2,
        "psi_minus": 0.25 * (f0s * f0i + fqs * fqi * np.cos(a)) ** 2,
    }


# ---------------------------------------------------------------------------
# Polarization basis

def test_jones_vectors_unit_norm_and_orthogonality():
    for v in JONES.values():
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(JONES["L"], JONES["R"])) < 1e-15
    assert abs(np.vdot(JONES["D"], JONES["A"])) < 1e-15
    assert abs(np.vdot(JONES["H"], JONES["V"])) < 1e-15


def jones_oracle_spinor(plate_s, plate_i, r_s, th_s, r_i, th_i):
    """(J_s x J_i) (0, i, -i, 0)/sqrt2 in (LL, LR, RL, RR) order, with J of one
    arm the 2x2 Jones matrix of the plate on a Gaussian photon, rows (L, R):
    column L is (cos(d/2) F_0, i sin(d/2) F_|2q| e^(-i 2q th)), column R is
    (i sin(d/2) F_|2q| e^(+i 2q th), cos(d/2) F_0)."""
    def jones(plate, r, th):
        f0, fq = radial_amplitudes([0, abs(plate.ell_shift)], plate.waist, r)
        c = math.cos(plate.delta / 2) * f0
        s = 1j * math.sin(plate.delta / 2) * fq
        phase = np.exp(1j * plate.ell_shift * th)
        return np.stack([np.stack([c, s * phase], -1), np.stack([s / phase, c], -1)], -2)

    singlet = np.array([[0, 1j], [-1j, 0]]) / math.sqrt(2)  # rows pol_s, columns pol_i
    psi = np.einsum("nac,nbd,cd->nab", jones(plate_s, r_s, th_s), jones(plate_i, r_i, th_i),
                    singlet)
    return psi.reshape(len(psi), 4)


# ---------------------------------------------------------------------------
# Singlet input: delta = 0 on both arms

def test_unconverted_state_is_the_singlet():
    singlet = {("L", "R", 0, 0): 1j / math.sqrt(2), ("R", "L", 0, 0): -1j / math.sqrt(2)}
    for qs, qi in [(0.5, 0.5), (-1.0, 4.0), (0.0, -3.5)]:
        state = evb_state(*plates(qs, qi, delta=0.0))
        # the charges play no part: the terms are exactly the singlet's, in order
        assert [(t.key, t.amp) for t in state.terms] == list(singlet.items())
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_unconverted_state_is_singlet_in_linear_basis():
    state = evb_state(*plates(0.5, 1.0, delta=0.0))
    v = local_spinor(state, 0.3, 0.2, 0.4, 1.1) @ CIRC_TO_LIN.T
    f = np.prod(radial_amplitudes([0], 1.0, [0.3, 0.4]))
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    overlap = abs(np.vdot(singlet, v)) ** 2 / f**2
    assert overlap == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Plate action

def test_full_conversion_single_term():
    # a tuned signal plate and an idle idler plate: L -> R down by 2q, R -> L up
    state = evb_state(QPlateParams(0.5, math.pi, 1.0), QPlateParams(0.5, 0.0, 1.0))
    amps = {t.key: t.amp for t in state.terms}
    assert set(amps) == {("R", "R", -1, 0), ("L", "L", 1, 0)}
    assert amps[("R", "R", -1, 0)] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
    assert amps[("L", "L", 1, 0)] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_zero_retardation_is_identity():
    # an idle plate leaves its photon unchanged, whatever its charge
    ref = evb_state(QPlateParams(1.0, math.pi / 3, 1.0), QPlateParams(0.5, 0.0, 1.0))
    assert {(t.pol_i, t.ell_i) for t in ref.terms} == {("R", 0), ("L", 0)}
    for qi in (-4.0, 0.0, 2.5):
        other = evb_state(QPlateParams(1.0, math.pi / 3, 1.0), QPlateParams(qi, 0.0, 1.0))
        assert [(t.key, t.amp) for t in other.terms] == [(t.key, t.amp) for t in ref.terms]


def test_half_conversion_amplitudes():
    state = evb_state(QPlateParams(1.0, math.pi / 2, 1.0), QPlateParams(0.5, 0.0, 1.0))
    amps = {(t.pol_s, t.pol_i, t.ell_s): t.amp for t in state.terms}
    c, s = math.cos(math.pi / 4) / math.sqrt(2), math.sin(math.pi / 4) / math.sqrt(2)
    assert amps[("L", "R", 0)] == pytest.approx(1j * c, abs=1e-15)
    assert amps[("R", "R", -2)] == pytest.approx(-s, abs=1e-15)
    assert amps[("R", "L", 0)] == pytest.approx(-1j * c, abs=1e-15)
    assert amps[("L", "L", 2)] == pytest.approx(s, abs=1e-15)


@given(delta_s=st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]),
       delta_i=st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]),
       qs=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
       qi=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
@settings(max_examples=60)
def test_plate_preserves_norm(delta_s, delta_i, qs, qi):
    out = evb_state(QPlateParams(qs, delta_s), QPlateParams(qi, delta_i))
    assert abs(out.norm_squared() - 1.0) < 1e-12


@given(st.integers(-8, 8), st.integers(-8, 8), st.floats(0.0, math.pi),
       st.floats(0.0, math.pi), st.floats(0.5, 20.0), st.floats(0.5, 20.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_evb_state_matches_jones_product(two_qs, two_qi, delta_s, delta_i, w_s, w_i, seed):
    # the state's local spinor is the product of the two arms' Jones
    # matrices applied to the singlet, at every point
    plate_s = QPlateParams(two_qs / 2, delta_s, w_s)
    plate_i = QPlateParams(two_qi / 2, delta_i, w_i)
    rng = np.random.default_rng(seed)
    r_s, r_i = rng.uniform(0.0, 3.0, (2, 50)) * [[w_s], [w_i]]
    th_s, th_i = rng.uniform(0.0, 2 * math.pi, (2, 50))
    got = local_spinor(evb_state(plate_s, plate_i), r_s, th_s, r_i, th_i)
    want = jones_oracle_spinor(plate_s, plate_i, r_s, th_s, r_i, th_i)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_qplate_params_validation():
    with pytest.raises(ValueError):
        QPlateParams(0.3)  # not a half-integer
    with pytest.raises(ValueError):
        QPlateParams(0.5, delta=4.0)
    for waist in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            QPlateParams(0.5, waist=waist)
    for waist in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="waists"):
            ModeSuperposition.from_terms([ModeTerm("L", "R", 0, 0, 1.0)], waist_i=waist)
    # every term of every state obeys the sanity bound |l| <= 8
    with pytest.raises(ValueError, match="bound 8"):
        ModeTerm("L", "R", 9, 0, 1.0)
    with pytest.raises(ValueError, match="bound 8"):
        evb_state(*plates(0.5, -4.5))


# ---------------------------------------------------------------------------
# Composed states

def test_tuned_pair_of_half_plates_matches_two_term_form():
    state = evb_state(*plates(0.5, 0.5))
    amps = {t.key: t.amp for t in state.terms}
    assert set(amps) == {("R", "L", -1, 1), ("L", "R", 1, -1)}
    vals = sorted(amps.values(), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(-1j / math.sqrt(2), abs=1e-12)
    assert vals[1] == pytest.approx(1j / math.sqrt(2), abs=1e-12)


def test_half_converting_pair_has_eight_equal_terms():
    state = evb_state(*plates(0.5, 1.0, delta=math.pi / 2))
    assert len(state.terms) == 8
    for t in state.terms:
        assert abs(t.amp) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-12)
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Local spinors

def test_local_spinor_tuned_sectors():
    state = evb_state(*plates(0.5, 0.5))
    w = 1.0
    v = local_spinor(state, w / math.sqrt(2), 0.0, w / math.sqrt(2), 0.0)
    assert abs(v[0]) < 1e-15 and abs(v[3]) < 1e-15  # no LL or RR
    assert abs(v[1]) == pytest.approx(abs(v[2]), abs=1e-12)


def test_local_spinor_mode_phases():
    # one |L, R> term with modes (l_s, l_i): the LR amplitude is the mode
    # product F_ls(r_s) F_li(r_i) exp(i (l_s th_s + l_i th_i)), of modulus F F
    r_s, r_i = np.array([0.0, 0.7, 2.0]), np.array([1.1, 0.4, 3.0])
    for ell_s, ell_i, th_s, th_i in [(0, 0, 1.0, 4.0), (1, 0, math.pi / 2, 0.3),
                                     (-2, 3, math.pi / 4, 1.1)]:
        state = ModeSuperposition.from_terms([ModeTerm("L", "R", ell_s, ell_i, 1.0)],
                                             waist_s=1.0, waist_i=1.3)
        v = local_spinor(state, r_s, th_s, r_i, th_i)
        f = (radial_amplitudes([abs(ell_s)], 1.0, r_s)[0]
             * radial_amplitudes([abs(ell_i)], 1.3, r_i)[0])
        np.testing.assert_allclose(v[:, 1], f * np.exp(1j * (ell_s * th_s + ell_i * th_i)),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:, 1]), f, rtol=0, atol=1e-14)
        assert np.all(v[:, [0, 2, 3]] == 0)
    # l = 0 carries no phase: the imaginary part is exactly zero
    assert local_spinor(ModeSuperposition.from_terms([ModeTerm("L", "R", 0, 0, 1.0)]),
                        1.0, 4.0, 1.0, 2.0)[1].imag == 0.0


def test_local_spinor_vortex_null():
    state = evb_state(*plates(0.5, 1.0))
    v = local_spinor(state, 0.0, 0.3, 1.0, 0.7)
    assert np.max(np.abs(v)) == 0.0


def test_local_spinor_rejects_bad_coordinates():
    state = evb_state(*plates(0.5, 0.5))
    with pytest.raises(ValueError):
        local_spinor(state, -1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        local_spinor(state, 1.0, math.nan, 1.0, 0.0)
    with pytest.raises(ValueError):
        local_spinor(state, 1.0, 0.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        local_spinor(state, math.inf, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Bell probabilities: closure with the closed forms

@pytest.mark.parametrize("qs,qi", TUNED_CHARGES)
def test_tuned_closure_on_grid(qs, qi):
    state = evb_state(*plates(qs, qi))
    th = np.linspace(0, 2 * math.pi, 20, endpoint=False)
    r = np.linspace(0.2, 2.0, 5)
    TS, TI, RS, RI = np.meshgrid(th, th, r, r, indexing="ij")
    got = bell_probabilities(state, RS, TS, RI, TI)
    want = tuned_bell_oracle(qs, qi, RS, TS, RI, TI)
    for name in BELL_LABELS:
        np.testing.assert_allclose(got[name], want[name], atol=1e-10)


@pytest.mark.parametrize("qs,qi", [(0.5, 0.5), (0.5, 1.0), (-0.5, 1.0), (1.0, 1.0)])
def test_half_converting_closure_on_grid(qs, qi):
    state = evb_state(*plates(qs, qi, delta=math.pi / 2))
    th = np.linspace(0, 2 * math.pi, 20, endpoint=False)
    r = np.linspace(0.2, 2.0, 5)
    TS, TI, RS, RI = np.meshgrid(th, th, r, r, indexing="ij")
    got = bell_probabilities(state, RS, TS, RI, TI)
    want = half_converting_bell_oracle(qs, qi, RS, TS, RI, TI)
    for name in BELL_LABELS:
        np.testing.assert_allclose(got[name], want[name], atol=1e-10)


def test_bell_basis_completeness_pointwise():
    state = evb_state(*plates(0.5, 1.0, delta=math.pi / 2))
    rng = np.random.default_rng(0)
    r_s, r_i = rng.uniform(0.05, 2.5, (2, 200))
    th_s, th_i = rng.uniform(0, 2 * math.pi, (2, 200))
    got = bell_probabilities(state, r_s, th_s, r_i, th_i)
    total = sum(got[name] for name in BELL_LABELS)
    norm = np.sum(np.abs(local_spinor(state, r_s, th_s, r_i, th_i)) ** 2, axis=-1)
    np.testing.assert_allclose(total, norm, atol=1e-12)


def test_tuned_special_angles():
    state = evb_state(*plates(0.5, 0.5))
    w = 1.0
    f2 = np.prod(radial_amplitudes([1], w, [0.8, 1.1])) ** 2
    same = bell_probabilities(state, 0.8, 1.3, 1.1, 1.3)
    assert same["psi_minus"] == pytest.approx(f2, abs=1e-12)
    assert same["phi_plus"] == pytest.approx(0.0, abs=1e-12)
    quarter = bell_probabilities(state, 0.8, 1.3 + math.pi / 2, 1.1, 1.3)
    assert quarter["phi_plus"] == pytest.approx(f2, abs=1e-12)
    assert quarter["psi_minus"] == pytest.approx(0.0, abs=1e-12)


def test_charge_sign_flip_mirrors_angles():
    th = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    TS, TI = np.meshgrid(th, th, indexing="ij")
    a = bell_probabilities(evb_state(*plates(0.5, 1.0)), 1.0, TS, 1.0, TI)
    b = bell_probabilities(evb_state(*plates(-0.5, -1.0)), 1.0, -TS, 1.0, -TI)
    for name in BELL_LABELS:
        np.testing.assert_allclose(a[name], b[name], atol=1e-12)


# ---------------------------------------------------------------------------
# Angular maps

def test_map_tuned_matches_cos_pattern():
    state = evb_state(*plates(0.5, 1.0))
    maps, centers = bell_probability_map(state, 16)
    TS, TI = np.meshgrid(centers, centers, indexing="ij")
    np.testing.assert_allclose(
        maps["psi_minus"], np.cos(TS - 2 * TI) ** 2, atol=1e-9
    )
    assert np.max(maps["phi_minus"]) < 1e-12
    assert np.max(maps["psi_plus"]) < 1e-12


def test_map_entries_sum_to_one():
    state = evb_state(*plates(0.5, 0.5, delta=math.pi / 2))
    maps, _ = bell_probability_map(state, 12)
    total = sum(maps.values())
    np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_map_psi_minus_diagonal_maximal_small_grid():
    maps, centers = bell_probability_map(evb_state(*plates(0.5, 0.5)), 4)
    m = maps["psi_minus"]
    # cos^2(theta_s - theta_i) maximal on the diagonal bins
    for a in range(4):
        assert m[a, a] == pytest.approx(np.max(m[a]), abs=1e-12)


def test_map_bin_average_damps_oscillation():
    state = evb_state(*plates(0.5, 1.0))
    avg_maps, centers = bell_probability_map(state, 16, average_over_bins=True)
    # cos^2(ts - 2 ti) = 1/2 + cos(2 ts - 4 ti)/2; averaging the cosine over a
    # square bin damps it by sinc(width) * sinc(2 width) (unnormalized sinc)
    width = 2 * math.pi / 16
    damp = (math.sin(width) / width) * (math.sin(2 * width) / (2 * width))
    TS, TI = np.meshgrid(centers, centers, indexing="ij")
    expected = 0.5 + 0.5 * np.cos(2 * TS - 4 * TI) * damp
    np.testing.assert_allclose(avg_maps["psi_minus"], expected, atol=1e-9)


def test_map_rejects_degenerate_grid():
    state = evb_state(*plates(0.5, 0.5))
    with pytest.raises(ValueError):
        bell_probability_map(state, 3)


def test_map_half_tuned_matches_radial_quadrature_oracle():
    # eight terms with |ell_s| != |ell_i| pairs: exercises the cross-index
    # radial overlaps that the tuned states never reach
    state = evb_state(*plates(0.5, 1.0, delta=math.pi / 2))
    assert len(state.terms) == 8
    maps, centers = bell_probability_map(state, 16)
    x, w = np.polynomial.legendre.leggauss(64)
    r = 3.0 * (x + 1.0)  # [0, 6 waists]
    rw = 3.0 * w * r
    R_S, R_I, TS, TI = np.meshgrid(r, r, centers, centers, indexing="ij", sparse=True)
    got = bell_probabilities(state, R_S, TS, R_I, TI)
    p = np.stack([got[name] for name in BELL_LABELS])
    oracle = np.einsum("bstxy,s,t->bxy", p, rw, rw)
    oracle /= oracle.sum(axis=0)
    for k, name in enumerate(BELL_LABELS):
        np.testing.assert_allclose(maps[name], oracle[k], atol=1e-9)


# ---------------------------------------------------------------------------
# Bin states

def quadrature_bin_state(state, n_theta, r_max, average_over_bins, a, b):
    """Gauss-Legendre quadrature of psi psi^dagger in the HV basis over bin
    (a, b): 16 nodes per angle within the bin (or the one bin-centre angle) and
    40 per radius up to r_max, or up to 10 waists where the modes have
    vanished.  Built on local_spinor alone, not on any mode integral."""
    width = 2 * math.pi / n_theta
    x, w = np.polynomial.legendre.leggauss(16)
    u, v = np.polynomial.legendre.leggauss(40)

    def nodes(waist, k):
        top = 10.0 * waist if r_max is None else min(r_max, 10.0 * waist)
        r = top / 2 * (u + 1)
        wr = top / 2 * v * r
        if not average_over_bins:
            return r, wr, np.array([(k + 0.5) * width]), np.ones(1)
        return r, wr, (k + (x + 1) / 2) * width, w * width / 2

    r_s, wr_s, t_s, wt_s = nodes(state.waist_s, a)
    r_i, wr_i, t_i, wt_i = nodes(state.waist_i, b)
    R_S, T_S, R_I, T_I = np.meshgrid(r_s, t_s, r_i, t_i, indexing="ij", sparse=True)
    psi = (local_spinor(state, R_S, T_S, R_I, T_I) @ CIRC_TO_LIN.T).reshape(-1, 4)
    weight = np.einsum("p,q,s,t->pqst", wr_s, wt_s, wr_i, wt_i).ravel()
    return (psi.T * weight) @ psi.conj()


@given(q_s=st.sampled_from([-0.5, 0.5, -1.0, 1.0, 1.5]),
       q_i=st.sampled_from([-0.5, 0.5, -1.0, 1.0, 1.5]),
       delta_s=st.floats(0.0, math.pi), delta_i=st.floats(0.0, math.pi),
       w_s=st.floats(0.5, 20.0), w_i=st.floats(0.5, 20.0), n_theta=st.integers(4, 40),
       r_factor=st.none() | st.floats(0.3, 8.0), average_over_bins=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bin_states_match_quadrature_of_local_spinor(q_s, q_i, delta_s, delta_i, w_s, w_i,
                                                      n_theta, r_factor, average_over_bins,
                                                      seed):
    state = evb_state(QPlateParams(q_s, delta_s, w_s), QPlateParams(q_i, delta_i, w_i))
    r_max = None if r_factor is None else r_factor * max(w_s, w_i)
    rho = bin_states(state, n_theta, r_max, average_over_bins)
    assert rho.shape == (n_theta, n_theta, 4, 4)
    scale = np.max(np.trace(rho, axis1=2, axis2=3).real)
    # each bin's matrix is Hermitian and positive semidefinite
    np.testing.assert_allclose(rho, rho.conj().swapaxes(2, 3), rtol=0, atol=1e-15 * scale)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-13 * scale
    if r_max is None and average_over_bins:
        assert np.trace(rho, axis1=2, axis2=3).real.sum() == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(seed)
    for a, b in rng.integers(0, n_theta, (3, 2)):
        want = quadrature_bin_state(state, n_theta, r_max, average_over_bins, a, b)
        np.testing.assert_allclose(rho[a, b], want, rtol=0,
                                   atol=1e-9 * np.linalg.norm(want))


def test_torus_coordinates_shape_and_radii():
    state = evb_state(*plates(0.5, 0.5))
    maps, centers = bell_probability_map(state, 8)
    rows = torus_coordinates(maps, centers)
    assert rows.shape == (64, 9)
    x, y, z = rows[:, 2], rows[:, 3], rows[:, 4]
    tube = np.hypot(np.hypot(x, y) - 2.0, z)
    np.testing.assert_allclose(tube, 1.0, atol=1e-9)
