import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from evblab.lgmodes import (
    azimuthal_bin_integrals,
    radial_amplitudes,
    radial_bin_overlaps,
    radial_overlap,
)
from evblab.qplate_state import ModeSuperposition, ModeTerm, local_spinor


def l2_norm_quadrature(ell, waist):
    """Independent oracle: adaptive quadrature of |F|^2 * 2 pi r."""
    val, _ = quad(lambda r: radial_amplitudes([abs(ell)], waist, r)[0] ** 2 * 2 * math.pi * r,
                  0, 30 * waist, limit=200)
    return val


def test_gaussian_peak_value_at_origin():
    # sqrt(2/pi) for ell=0, w=1 at r=0
    assert radial_amplitudes([0], 1.0, 0.0)[0] == pytest.approx(
        math.sqrt(2 / math.pi), abs=1e-12
    )


def test_vortex_null_at_origin():
    assert radial_amplitudes([1], 1.0, 0.0)[0] == 0.0
    assert radial_amplitudes([3], 2.0, 0.0)[0] == 0.0


def test_unit_norm_ell2():
    assert l2_norm_quadrature(2, 1.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ell", range(-8, 9))
@pytest.mark.parametrize("waist", [0.5, 1.0, 3.0])
def test_unit_norm_all_indices(ell, waist):
    assert l2_norm_quadrature(ell, waist) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ell", [1, 2, 5, 8])
def test_peak_location(ell):
    w = 2.5
    r_star = w * math.sqrt(ell / 2)
    r = np.linspace(1e-3, 6 * w, 20001)
    assert abs(r[np.argmax(radial_amplitudes([ell], w, r)[0])] - r_star) < 2e-3 * w


def signal_mode(ell, waist, r, theta):
    """The signal-arm LG mode F_l(r) exp(i l theta) as the state layer builds it.

    One |L, R> term with an idler Gaussian read at the idler origin, where
    F_0(0) = sqrt(2/pi) / w_i is real and positive, so dividing by it leaves
    the signal mode alone.
    """
    w_i = 1.0
    state = ModeSuperposition.from_terms([ModeTerm("L", "R", ell, 0, 1.0)],
                                         waist_s=waist, waist_i=w_i)
    v = local_spinor(state, r, theta, np.zeros_like(np.asarray(r, dtype=float)), 0.0)
    assert np.all(v[..., [0, 2, 3]] == 0)
    return v[..., 1] / radial_amplitudes([0], w_i, 0.0)[0]


def test_mode_amplitude_phases():
    f0, f1 = radial_amplitudes([0, 1], 1.0, 1.0)
    for theta in (0.0, 1.0, 4.0):
        assert signal_mode(0, 1.0, 1.0, theta).imag == 0.0
    val = signal_mode(1, 1.0, 1.0, math.pi / 2)
    assert val == pytest.approx(f1 * 1j, abs=1e-12)
    val = signal_mode(-2, 1.0, 0.7, math.pi / 4)
    expected = radial_amplitudes([2], 1.0, 0.7)[0] * np.exp(-1j * math.pi / 2)
    assert val == pytest.approx(expected, abs=1e-12)
    assert signal_mode(0, 1.0, 1.0, 4.0) == pytest.approx(f0, abs=1e-12)


@given(
    ell=st.integers(min_value=-8, max_value=8),
    r=st.floats(min_value=0.0, max_value=30.0),
    theta=st.floats(min_value=0.0, max_value=2 * math.pi),
)
@settings(max_examples=200)
def test_conjugate_symmetry(ell, r, theta):
    # F_l = F_-l, so the modes F_l(r) exp(+-i l theta) are complex conjugates
    w = 1.7
    assert signal_mode(ell, w, r, theta) == np.conj(signal_mode(-ell, w, r, theta))


def test_modulus_matches_radial_part():
    r = np.linspace(0, 8, 50)
    amp = signal_mode(3, 1.3, r, 0.9)
    assert np.allclose(np.abs(amp), radial_amplitudes([3], 1.3, r)[0], atol=1e-14)


def test_radial_overlap_orthonormal_and_cross():
    # same |ell|: overlap = 1/(2 pi); differing |ell|: strictly between 0 and that
    same = radial_overlap(2, -2)
    assert same == pytest.approx(1 / (2 * math.pi), abs=1e-10)
    cross = radial_overlap(0, 2)
    assert 0 < cross < same


@pytest.mark.parametrize("ell_a", range(9))
def test_radial_overlap_closed_form_matches_quadrature(ell_a):
    # the closed form holds for every index pair and does not depend on the waist
    for ell_b in range(-8, 9):
        for waist in (1.0, 3.0):
            oracle, _ = quad(
                lambda r: np.prod(radial_amplitudes([ell_a, abs(ell_b)], waist, r)) * r,
                0, math.inf, limit=200,
            )
            assert radial_overlap(ell_a, ell_b) == pytest.approx(oracle, abs=1e-10)
    np.testing.assert_array_equal(
        radial_overlap(ell_a, np.arange(-8, 9)),
        [radial_overlap(ell_a, b) for b in range(-8, 9)],
    )


def test_bin_integrals_add_up_to_full_range():
    ells = np.array([-2, 0, 1, 3])
    edges = np.linspace(0.0, 10.0 * 1.5, 7)  # ten waists: the tail is below 1e-40
    bins = radial_bin_overlaps(ells, 1.5, edges)
    assert bins.shape == (4, 4, 6)
    np.testing.assert_allclose(
        bins.sum(axis=2), radial_overlap(ells[:, None], ells[None, :]), atol=1e-14
    )
    dl = ells[:, None] - ells[None, :]
    ang = azimuthal_bin_integrals(dl, np.linspace(0.0, 2 * math.pi, 9))
    assert ang.shape == (4, 4, 8)
    np.testing.assert_allclose(ang.sum(axis=2), np.where(dl == 0, 2 * math.pi, 0.0),
                               atol=1e-14)


def test_radial_amplitudes_rows_follow_closed_form():
    # one row per requested |l|, repeats included, over radii of any shape
    w = 1.7
    r = np.linspace(0.0, 6.0 * w, 240).reshape(2, 120)
    abs_ells = [0, 3, 1, 8, 3]
    rows = radial_amplitudes(abs_ells, w, r)
    assert rows.shape == (5, 2, 120)
    for row, a in zip(rows, abs_ells):
        want = (math.sqrt(2.0 / (math.pi * math.factorial(a))) / w
                * (math.sqrt(2.0) * r / w) ** a * np.exp(-(r / w) ** 2))
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=1e-300)
