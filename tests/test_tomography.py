import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evblab.coincidence import CoincidenceHistogram, PolarBinning
from evblab.errors import (
    ConfigurationError,
    ConvergenceError,
    InsufficientDataError,
)
from evblab.polarimetry import set_from_labels, standard_set
from evblab.qplate_state import (
    BELL_LABELS,
    BELL_STATES,
    CIRC_TO_LIN,
    QPlateParams,
    bell_probabilities,
    evb_state,
    local_spinor,
)
from evblab.tomography import (
    _gradient,
    _mle_ascent,
    angular_tomography,
    assert_physical,
    bell_decomposition,
    concurrence,
    fidelity,
    forward_probabilities,
    linear_inversion,
    mle_refine,
    project_physical,
    purity,
)

TSET = standard_set()
PSI_MINUS = BELL_STATES["psi_minus"]


def random_state(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def werner(p):
    return p * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - p) * np.eye(4) / 4


# ---------------------------------------------------------------------------
# Linear inversion

def test_inversion_pure_hh():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    counts = forward_probabilities(rho, TSET) * 5000
    rec = linear_inversion(counts, TSET)
    np.testing.assert_allclose(rec, rho, atol=1e-12)


def test_inversion_singlet():
    rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
    rec = linear_inversion(forward_probabilities(rho, TSET), TSET)
    np.testing.assert_allclose(rec, rho, atol=1e-12)


def test_inversion_equal_counts_gives_maximally_mixed():
    # forward model of I/4 produces equal counts in every complete basis;
    # verify the round trip from the forward model rather than assuming
    rho = np.eye(4) / 4
    probs = forward_probabilities(rho, TSET)
    quartet = [TSET.labels.index(l) for l in ("HH", "HV", "VH", "VV")]
    assert np.allclose(probs[quartet], 0.25)
    rec = linear_inversion(probs * 300, TSET)
    np.testing.assert_allclose(rec, rho, atol=1e-12)


def test_inversion_round_trip_random_states():
    rng = np.random.default_rng(10)
    for _ in range(100):
        rho = random_state(rng)
        rec = linear_inversion(forward_probabilities(rho, TSET), TSET)
        assert np.linalg.norm(rec - rho) < 1e-10


PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1, -1]))
PAULI_PRODUCTS = np.array([np.kron(a, b) for a in PAULIS for b in PAULIS])
HVAL_HVAR = set_from_labels(a + b for a in "HVAL" for b in "HVAR")


@pytest.mark.parametrize("tset", [TSET, HVAL_HVAR], ids=["standard", "HVAL-HVAR"])
def test_inversion_matches_pauli_design_route(tset):
    # the textbook route: the design matrix tr(P_k sigma_g) takes the Pauli
    # coordinates c of rho = sum_g c_g sigma_g to the 16 probabilities, and
    # is solved for them from flux-normalized counts
    rng = np.random.default_rng(25)
    design = np.einsum("ki,gij,kj->kg", tset.kets.conj(), PAULI_PRODUCTS, tset.kets).real
    flux = [tset.labels.index(l) for l in ("HH", "HV", "VH", "VV")]
    states = np.array([random_state(rng, rank) for rank in (1, 2, 3, 4) * 10])
    probs = forward_probabilities(states, tset)
    for counts in (probs * 1e4, rng.poisson(probs * 1e4).astype(float)):
        coords = np.linalg.solve(design, (counts / counts[:, flux].sum(axis=1)[:, None]).T).T
        oracle = np.einsum("nk,kij->nij", coords, PAULI_PRODUCTS)
        np.testing.assert_allclose(linear_inversion(counts, tset), oracle, rtol=0, atol=1e-12)
    # the completeness check reads the design's condition number off the map
    assert np.linalg.cond(tset.projector_map) == pytest.approx(np.linalg.cond(design), rel=1e-9)


def test_inversion_of_a_stack_gives_each_bin_the_bits_it_gets_alone():
    rng = np.random.default_rng(26)
    states = np.array([random_state(rng, rank) for rank in (1, 2, 3, 4) * 50])
    counts = rng.poisson(forward_probabilities(states, TSET) * 1e3).astype(float)
    stack = linear_inversion(counts, TSET)
    assert stack.shape == (200, 4, 4)
    for k in range(200):
        assert np.array_equal(stack[k], linear_inversion(counts[k], TSET))


def test_inversion_errors():
    with pytest.raises(InsufficientDataError):
        linear_inversion(np.zeros(16), TSET)
    with pytest.raises(ValueError):
        linear_inversion(-np.ones(16), TSET)
    with pytest.raises(ValueError):
        linear_inversion(np.ones(4), TSET)


# ---------------------------------------------------------------------------
# Physical projection

def test_project_identity_on_physical():
    rng = np.random.default_rng(11)
    rho = random_state(rng)
    np.testing.assert_allclose(project_physical(rho), rho, atol=1e-12)


def test_project_waterfilling_example():
    # diag(1.1, 0.1, -0.1, -0.1): the accumulated negative mass (-0.2) wipes
    # out the 0.1 eigenvalue and shifts the top one to 1.0
    m = np.diag([1.1, 0.1, -0.1, -0.1]).astype(complex)
    out = project_physical(m)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(out)),
                               [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_project_waterfilling_oracle():
    # brute-force oracle: minimize Frobenius distance over the probability
    # simplex of eigenvalues via fine grid search on a 2d slice
    m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    out = project_physical(m)
    lam = np.sort(np.linalg.eigvalsh(out))[::-1]
    # oracle from scipy: project eigenvalues onto simplex
    from scipy.optimize import minimize

    def cost(x):
        return np.sum((np.sort(x)[::-1] - np.array([0.7, 0.5, -0.1, -0.1])) ** 2)

    best = minimize(
        cost,
        x0=[0.6, 0.4, 0.0, 0.0],
        bounds=[(0, 1)] * 4,
        constraints={"type": "eq", "fun": lambda x: np.sum(x) - 1},
        method="SLSQP",
    )
    np.testing.assert_allclose(lam, np.sort(best.x)[::-1], atol=1e-6)


def test_project_trace_preserved_and_psd():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        h = h / np.trace(h).real if np.trace(h).real > 0 else h + np.eye(4)
        h = h / np.trace(h).real
        out = project_physical(h)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out).min() >= -1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_project_stack_matches_per_matrix(seed, n):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    h = (h + h.conj().swapaxes(1, 2)) / 2
    # shift to a positive trace; eigenvalues may still be negative
    h += np.eye(4) * (0.1 + np.abs(np.trace(h, axis1=1, axis2=2).real))[:, None, None] / 4
    out = project_physical(h)
    assert out.shape == (n, 4, 4)
    for k in range(n):
        np.testing.assert_allclose(out[k], project_physical(h[k]), atol=1e-12)
    np.testing.assert_allclose(np.trace(out, axis1=1, axis2=2).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


def waterfill_reference(vals):
    """Smolin, Gambetta & Smith's loop on ascending eigenvalues of any sum:
    clip from the bottom while the spread deficit leaves one negative."""
    lam = list(vals)
    acc = 1.0 - sum(lam)
    for i in range(len(lam)):
        rem = len(lam) - i
        if lam[i] + acc / rem < 0:
            acc += lam[i]
            lam[i] = 0.0
        else:
            lam[i:] = [v + acc / rem for v in lam[i:]]
            break
    return np.array(lam)


@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_project_matches_loop_waterfilling_at_any_trace(seed, trace):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    h += np.eye(4) * (trace - np.trace(h).real) / 4
    vals, vecs = np.linalg.eigh(h)
    ref = (vecs * waterfill_reference(vals)) @ vecs.conj().T
    np.testing.assert_allclose(project_physical(h), ref, rtol=0, atol=1e-12)


def test_project_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        project_physical(m)


# ---------------------------------------------------------------------------
# MLE

def test_mle_exact_counts_high_fidelity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = random_state(rng)
        counts = forward_probabilities(rho, TSET) * 2000
        init = project_physical(linear_inversion(counts, TSET))
        out = mle_refine(init, counts, TSET, tol=1e-9)
        assert fidelity(out, rho) >= 1 - 1e-8


def test_mle_noisy_counts_bell_state():
    rng = np.random.default_rng(14)
    rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
    hits = 0
    for _ in range(20):
        counts = rng.poisson(forward_probabilities(rho, TSET) * 10_000)
        init = project_physical(linear_inversion(counts, TSET))
        try:
            out = mle_refine(init, counts, TSET, tol=1e-7)
        except ConvergenceError as exc:
            out = exc.best
        if fidelity(out, rho) >= 0.99:
            hits += 1
    assert hits >= 19  # 95% of trials at these statistics


def test_mle_likelihood_never_decreases():
    # reconstruct with a generous tolerance and track the likelihood by
    # reevaluating it on the iterates via a tiny wrapper
    rng = np.random.default_rng(15)
    rho = werner(0.8)
    counts = rng.poisson(forward_probabilities(rho, TSET) * 500)
    init = project_physical(linear_inversion(counts, TSET))
    vs = TSET.kets

    def mean_ll(rho_hat):
        p = np.real(np.einsum("ki,ij,kj->k", vs.conj(), rho_hat, vs))
        p = p / p.sum()
        keep = counts > 0
        return float(np.sum(counts[keep] * np.log(p[keep])) / counts.sum())

    out = mle_refine(init, counts, TSET, tol=1e-8)
    assert mean_ll(out) >= mean_ll(init) - 1e-12


def test_mle_gradient_matches_finite_differences():
    # central finite differences of the mean log-likelihood in the
    # factorized parameterization, at random physical points
    rng = np.random.default_rng(16)
    vs = TSET.kets
    counts = rng.uniform(10, 500, size=16)

    def mean_ll_of_T(T):
        ptilde = np.abs(vs @ T.T) ** 2
        p = ptilde.sum(axis=1)
        s = p.sum()
        return float(np.sum(counts * np.log(p)) / counts.sum() - math.log(s) * 1.0)

    for _ in range(10):
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        # analytic Wirtinger gradient, as used by the optimizer
        ptilde = np.abs(vs @ T.T).__pow__(2).sum(axis=1)
        S = np.einsum("ki,kj->ij", vs, vs.conj())
        s = np.real(np.einsum("ij,jk,ik->", T, S, T.conj()))
        G = np.einsum("k,ki,kj->ij", counts / (ptilde * counts.sum()), vs, vs.conj())
        W = T @ G - (T @ S) / s
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (3, 1)]:
            for direction, part in ((1.0, np.real), (1j, np.imag)):
                dT = np.zeros((4, 4), dtype=complex)
                dT[idx] = direction * eps
                fd = (mean_ll_of_T(T + dT) - mean_ll_of_T(T - dT)) / (2 * eps)
                analytic = 2 * part(W[idx])
                assert abs(fd - analytic) / max(abs(fd), 1e-12) < 1e-5


def test_mle_zero_counts_rejected():
    with pytest.raises(InsufficientDataError):
        mle_refine(np.eye(4) / 4, np.zeros(16), TSET)


def mean_loglike(rho, counts):
    """sum_k (n_k/N) log(p_k / sum_j p_j), the objective of mle_refine."""
    p = forward_probabilities(rho, TSET)
    seen = counts > 0
    if np.any(p[seen] <= 0):
        return -math.inf
    return float(np.sum(counts[seen] * np.log(p[seen] / p.sum())) / counts.sum())


def loglike_gradient(rho, counts):
    """R = sum_k f_k P_k / p_k - S / tr(S rho), S = sum_k P_k, written out
    from the 16 projectors."""
    vs = TSET.kets
    projectors = np.einsum("ki,kj->kij", vs, vs.conj())
    p = forward_probabilities(rho, TSET)
    seen = counts > 0
    w = counts[seen] / counts.sum() / p[seen]
    return np.einsum("k,kij->ij", w, projectors[seen]) - projectors.sum(axis=0) / p.sum()


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_forward_probabilities_match_projector_kets(seed, rank, n):
    # Re v_k^dagger m v_k from the kets, for a stack, one matrix and a
    # real-valued matrix that need not be symmetric
    rng = np.random.default_rng(seed)
    vs = TSET.kets
    states = np.array([random_state(rng, rank) for _ in range(n)])
    oracle = np.einsum("ki,nij,kj->nk", vs.conj(), states, vs).real
    np.testing.assert_allclose(forward_probabilities(states, TSET), oracle, rtol=0, atol=1e-14)
    np.testing.assert_allclose(forward_probabilities(states[0], TSET), oracle[0],
                               rtol=0, atol=1e-14)
    real = rng.normal(size=(4, 4))
    np.testing.assert_allclose(forward_probabilities(real, TSET),
                               np.einsum("ki,ij,kj->k", vs.conj(), real, vs).real,
                               rtol=0, atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_gradient_matches_projector_sum(seed, rank, unseen):
    # sum_k (f_k / p_k) v_k v_k^dagger - S / sum_k p_k from the kets, with
    # `unseen` settings that observed no counts
    rng = np.random.default_rng(seed)
    rhos = np.array([random_state(rng, rank) for _ in range(3)])
    counts = rng.uniform(1.0, 500.0, size=(3, 16))
    counts[:, rng.permutation(16)[:unseen]] = 0.0
    grad = _gradient(forward_probabilities(rhos, TSET), counts / counts.sum(axis=1)[:, None],
                     TSET)
    for k in range(3):
        oracle = loglike_gradient(rhos[k], counts[k])
        np.testing.assert_allclose(grad[k], oracle, rtol=0,
                                   atol=1e-14 * max(1.0, np.abs(oracle).max()))


def test_stack_gives_each_bin_the_bits_it_gets_alone():
    # _mle_ascent promises each bin the same result alone or in a stack: every
    # kernel must round a matrix the same at any stack height
    rng = np.random.default_rng(24)
    ranks = [1, 2, 3, 4] * 3
    states = np.array([random_state(rng, r) for r in ranks])
    probs = forward_probabilities(states, TSET)
    totals = np.geomspace(300.0, 1e5, 12)
    counts = rng.poisson(probs / probs.sum(axis=1)[:, None] * totals[:, None]).astype(float)
    freq = counts / counts.sum(axis=1)[:, None]
    grad = _gradient(probs, freq, TSET)
    starts = project_physical(linear_inversion(counts, TSET))
    rho, iters, gnorm = _mle_ascent(starts, counts, TSET, 1e-8)
    assert np.count_nonzero(iters) >= 6 and np.all(gnorm < 1e-8)
    for k in range(12):
        one = slice(k, k + 1)
        assert np.array_equal(probs[k], forward_probabilities(states[k], TSET))
        assert np.array_equal(probs[one], forward_probabilities(states[one], TSET))
        assert np.array_equal(grad[one], _gradient(probs[one], freq[one], TSET))
        alone = _mle_ascent(starts[one], counts[one], TSET, 1e-8)
        assert np.array_equal(rho[one], alone[0])
        assert np.array_equal(iters[one], alone[1]) and np.array_equal(gnorm[one], alone[2])


def test_mle_satisfies_kkt_conditions():
    # Poisson counts of pure and rank-2 states put most optima on the
    # boundary (rank deficient); full-rank states give interior ones.  At a
    # maximum over unit-trace PSD rho, R rho = 0 and R <= 0.  The stopping
    # rule 2 ||rho^(1/2) R||_F < tol gives ||R rho||_F <= tol / 2 and bounds
    # R on the range of rho by c = tol / (2 sqrt(mu_min)), mu_min the
    # smallest nonzero eigenvalue, so lambda_max(R) <= 1.62 c where R <= 0
    # on the null space of rho.  The bound 2 c below fails where R exceeds
    # 2 c on that null space, i.e. where a direction rho leaves out ascends.
    rng = np.random.default_rng(22)
    ranks = [1, 1, 1, 2, 2, 2, 3, 4, 4]
    states = [random_state(rng, r) for r in ranks]
    hists = synthetic_histograms(lambda i, j: states[3 * i + j], 3, flux=5000.0)
    for h in hists:
        h.counts_theta = rng.poisson(h.counts_theta).astype(float)
    tol = 1e-8
    tomo = angular_tomography(hists, TSET, min_counts=200, mle=True, mle_tol=tol)
    assert tomo.bins_used == 9 and tomo.mle_nonconverged == 0
    stack = np.stack([h.counts_theta.ravel() for h in hists], axis=1)
    deficient = 0
    for r in tomo.results:
        counts = stack[3 * r.bin_s + r.bin_i]
        grad = loglike_gradient(r.rho, counts)
        mu = np.linalg.eigvalsh(r.rho)
        deficient += mu[0] < 1e-12
        assert np.linalg.norm(grad @ r.rho) <= tol / 2
        assert np.linalg.eigvalsh(grad)[-1] <= tol / math.sqrt(mu[mu > 1e-12].min())
    assert deficient >= 6


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4]),
       st.sampled_from([300.0, 3000.0, 30000.0]))
@settings(max_examples=40, deadline=None)
def test_mle_likelihood_at_least_truth_and_start(seed, rank, flux):
    # On the slice tr(S rho) = 1 the objective is concave, so the ascent
    # ends at its maximum to within the stopping tolerance, and no state
    # beats the maximum, the true one included.  The 1e-9 allows for the
    # 1e-10 identity admixture in the ascent's start.
    rng = np.random.default_rng(seed)
    rho = random_state(rng, rank)
    counts = rng.poisson(forward_probabilities(rho, TSET) * flux).astype(float)
    try:
        start = project_physical(linear_inversion(counts, TSET))
    except InsufficientDataError:
        return
    out = mle_refine(start, counts, TSET, tol=1e-8)
    best = mean_loglike(out, counts)
    assert best >= mean_loglike(rho, counts) - 1e-9
    assert best >= mean_loglike(start, counts) - 1e-9


# ---------------------------------------------------------------------------
# Metrics

def test_concurrence_bell_and_mixed():
    assert concurrence(np.outer(PSI_MINUS, PSI_MINUS.conj())) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", np.linspace(0, 1, 6))
def test_concurrence_werner_curve(p):
    assert concurrence(werner(p)) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-9)


def test_concurrence_rejects_unphysical():
    with pytest.raises(ValueError):
        concurrence(np.diag([1.2, 0.2, -0.2, -0.2]).astype(complex))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_concurrence_continuity_under_perturbation(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(rng)
    c0 = concurrence(rho)
    e = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    e = (e + e.conj().T) / 2
    e = e - np.eye(4) * np.trace(e) / 4
    e *= 1e-6 / max(np.linalg.norm(e), 1e-30)
    c1 = concurrence(project_physical(rho + e))
    assert math.isfinite(c1)
    assert 0.0 <= c1 <= 1.0
    assert abs(c1 - c0) < 1e-4  # empirical Lipschitz bound at 1e-6 scale


def test_purity_range():
    assert purity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)
    assert purity(np.outer(PSI_MINUS, PSI_MINUS.conj())) == pytest.approx(1.0, abs=1e-12)


def test_bell_decomposition_examples():
    phi_plus = BELL_STATES["phi_plus"]
    probs = bell_decomposition(np.outer(phi_plus, phi_plus.conj()))
    assert probs["phi_plus"] == pytest.approx(1.0, abs=1e-12)
    assert probs["phi_minus"] == pytest.approx(0.0, abs=1e-12)
    mixed = bell_decomposition(np.eye(4) / 4)
    for name in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
        assert mixed[name] == pytest.approx(0.25, abs=1e-12)


@given(st.integers(-4, 4).filter(bool), st.integers(-4, 4).filter(bool),
       st.floats(0.0, math.pi), st.floats(0.0, math.pi), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bell_decomposition_of_local_state_matches_bell_probabilities(
        two_qs, two_qi, delta_s, delta_i, seed):
    # the pointwise Bell densities, normalized, are the Bell overlaps of the
    # normalized pure state psi(x) psi(x)^dagger at that point
    state = evb_state(QPlateParams(two_qs / 2, delta_s), QPlateParams(two_qi / 2, delta_i))
    rng = np.random.default_rng(seed)
    r_s, r_i = rng.uniform(2.0, 30.0, (2, 16))
    th_s, th_i = rng.uniform(0.0, 2 * math.pi, (2, 16))
    probs = bell_probabilities(state, r_s, th_s, r_i, th_i)
    psi = local_spinor(state, r_s, th_s, r_i, th_i) @ CIRC_TO_LIN.T
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    rho = psi[:, :, None] * psi[:, None, :].conj()
    decomp = bell_decomposition(rho)
    assert list(probs) == list(decomp) == list(BELL_LABELS)
    total = sum(probs[name] for name in BELL_LABELS)
    for name in BELL_LABELS:
        np.testing.assert_allclose(probs[name] / total, decomp[name], rtol=0, atol=1e-12)
    # one point and one matrix give floats
    point = bell_probabilities(state, r_s[0], th_s[0], r_i[0], th_i[0])
    one = bell_decomposition(rho[0])
    for name in BELL_LABELS:
        assert isinstance(point[name], float) and isinstance(one[name], float)
        assert point[name] / sum(point.values()) == pytest.approx(one[name], abs=1e-12)


def test_assert_physical_tolerances():
    with pytest.raises(ValueError):
        assert_physical(np.eye(3))
    good = werner(0.5)
    assert assert_physical(good) is not None


# ---------------------------------------------------------------------------
# Angular tomography plumbing

def _hist_for(label, counts_theta, binning):
    return CoincidenceHistogram(
        setting=label,
        binning=binning,
        counts_theta=counts_theta,
        counts_r=np.zeros((binning.n_r, binning.n_r)),
        total_pairs=int(counts_theta.sum()),
    )


def synthetic_histograms(rho_of_bin, n_theta, flux, rng=None):
    """Build 16 histograms whose per-bin counts follow the forward model."""
    binning = PolarBinning(n_theta=n_theta, centroid_s=(0, 0), centroid_i=(0, 0))
    counts = np.zeros((16, n_theta, n_theta))
    for i in range(n_theta):
        for j in range(n_theta):
            p = forward_probabilities(rho_of_bin(i, j), TSET)
            mu = p * flux
            counts[:, i, j] = rng.poisson(mu) if rng is not None else mu
    return [
        _hist_for(label, counts[k], binning) for k, label in enumerate(TSET.labels)
    ]


def test_angular_tomography_recovers_uniform_singlet():
    rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)
    tomo = angular_tomography(hists, TSET, min_counts=200)
    assert tomo.bins_used == 16
    assert tomo.average_concurrence == pytest.approx(1.0, abs=1e-7)
    assert tomo.average_purity == pytest.approx(1.0, abs=1e-7)
    assert tomo.concurrence_se == pytest.approx(0.0, abs=1e-7)


def test_angular_tomography_low_statistics_flagging():
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)
    # empty out one bin across all settings
    for h in hists:
        h.counts_theta[2, 3] = 0.0
    tomo = angular_tomography(hists, TSET, min_counts=200)
    flagged = [r for r in tomo.results if r.low_statistics]
    assert len(flagged) == 1
    assert (flagged[0].bin_s, flagged[0].bin_i) == (2, 3)
    assert math.isnan(flagged[0].concurrence)
    assert tomo.bins_used == 15


@pytest.mark.parametrize("min_counts", [0, 1])
@pytest.mark.parametrize("mle", [False, True])
def test_angular_tomography_flags_bins_it_cannot_normalize(min_counts, mle):
    # bin (1, 0) has counts but none in the complete H/V subset, and bin
    # (2, 3) none at all: neither can be flux-normalized, so both are
    # flagged low-statistics instead of failing the whole grid
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)
    for h in hists:
        h.counts_theta[2, 3] = 0.0
        if h.setting in ("HH", "HV", "VH", "VV"):
            h.counts_theta[1, 0] = 0.0
    tomo = angular_tomography(hists, TSET, min_counts=min_counts, mle=mle)
    assert [(r.bin_s, r.bin_i) for r in tomo.results if r.low_statistics] == [(1, 0), (2, 3)]
    assert tomo.result(1, 0).counts_used > 0 and tomo.result(2, 3).counts_used == 0
    assert tomo.bins_used == 14 and tomo.mle_nonconverged == 0
    assert tomo.average_concurrence == pytest.approx(concurrence(rho), abs=1e-7)
    # a set without the complete H/V subset can normalize no bin at all
    other = set_from_labels([a + b for a in "HDAR" for b in "HDAL"])
    binning = hists[0].binning
    relabelled = [_hist_for(l, np.full((4, 4), 100.0), binning) for l in other.labels]
    with pytest.raises(ConfigurationError, match="complete H/V subset"):
        angular_tomography(relabelled, other, min_counts=min_counts, mle=mle)


@pytest.mark.parametrize("grid", [{"n_theta": 8}, {"n_r": 3}, {"r_max": 25.0}],
                         ids=["n_theta", "n_r", "r_max"])
def test_angular_tomography_binning_mismatch_rejected(grid):
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)
    other = replace(hists[3].binning, **grid)
    counts = np.zeros((other.n_theta, other.n_theta))
    hists[3] = _hist_for(hists[3].setting, counts, other)
    with pytest.raises(ConfigurationError):
        angular_tomography(hists, TSET)


@pytest.mark.parametrize("centroids", [{"centroid_s": (0.5, 0)}, {"centroid_i": (0, 0.5)}],
                         ids=["centroid_s", "centroid_i"])
def test_angular_tomography_centroid_mismatch_rejected(centroids):
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)
    moved = replace(hists[3].binning, **centroids)
    hists[3] = _hist_for(hists[3].setting, hists[3].counts_theta, moved)
    with pytest.raises(ConfigurationError):
        angular_tomography(hists, TSET)


def test_angular_tomography_missing_setting_rejected():
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)[:15]
    with pytest.raises(ConfigurationError) as err:
        angular_tomography(hists, TSET)
    assert "RL" in str(err.value)


def test_angular_tomography_varying_state_and_weighting():
    # concurrence varies per bin; count-weighted average must track it
    rng = np.random.default_rng(17)

    def rho_of_bin(i, j):
        return werner(0.6 + 0.4 * (i + j) / 6)

    hists = synthetic_histograms(rho_of_bin, 4, flux=30_000, rng=rng)
    tomo = angular_tomography(hists, TSET, min_counts=200)
    oracle = np.mean(
        [concurrence(rho_of_bin(i, j)) for i in range(4) for j in range(4)]
    )
    assert tomo.average_concurrence == pytest.approx(oracle, abs=0.02)
    # bins hold genuinely different states, so the standard error reflects
    # the real spread of per-bin concurrences, not just counting noise
    assert 0.0 < tomo.concurrence_se < 0.06
    m = tomo.metric_map("concurrence")
    assert m.shape == (4, 4)
    assert np.all(np.isfinite(m))


def test_angular_tomography_mle_mode_runs():
    rng = np.random.default_rng(18)
    rho = werner(0.85)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=2000, rng=rng)
    tomo = angular_tomography(hists, TSET, min_counts=200, mle=True, mle_tol=1e-6)
    assert tomo.mle
    assert abs(tomo.average_concurrence - concurrence(rho)) < 0.05


def test_result_serialization_round_trip_fields():
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 4, flux=4000)
    tomo = angular_tomography(hists, TSET, min_counts=200)
    d = tomo.to_dict()
    assert d["n_theta"] == 4
    assert len(d["bins"]) == 16
    b0 = d["bins"][0]
    rho_rt = (np.array(b0["rho_re"]) + 1j * np.array(b0["rho_im"])).reshape(4, 4)
    np.testing.assert_allclose(rho_rt, tomo.results[0].rho, atol=1e-15)


def _per_bin_reference(hists, min_counts, mle, mle_tol):
    """Bin-by-bin reconstruction with the public per-matrix functions."""
    by_label = {h.setting: h for h in hists}
    stack = np.stack([by_label[l].counts_theta for l in TSET.labels])
    out, nonconverged = {}, 0
    for i, j in np.ndindex(stack.shape[1:]):
        counts = stack[:, i, j]
        if int(round(counts.sum())) < min_counts:
            continue
        rho = project_physical(linear_inversion(counts, TSET))
        if mle:
            try:
                rho = mle_refine(rho, counts, TSET, tol=mle_tol)
            except ConvergenceError as exc:
                rho = exc.best
                nonconverged += 1
        out[i, j] = (rho, concurrence(rho), purity(rho), bell_decomposition(rho))
    return out, nonconverged


@pytest.mark.parametrize("mle", [False, True])
def test_angular_tomography_matches_per_bin_calls(mle):
    rng = np.random.default_rng(19)
    states = [[random_state(rng) for _ in range(6)] for _ in range(6)]
    # fluxes from a few counts (low-statistics bins) up to well-resolved bins
    flux = rng.choice([20.0, 150.0, 800.0, 5000.0], size=(6, 6))
    hists = synthetic_histograms(lambda i, j: states[i][j], 6, flux=1.0)
    for h in hists:
        h.counts_theta = rng.poisson(h.counts_theta * flux).astype(float)
    tomo = angular_tomography(hists, TSET, min_counts=200, mle=mle, mle_tol=1e-7)
    ref, nonconverged = _per_bin_reference(hists, 200, mle, 1e-7)
    assert 0 < tomo.bins_used == len(ref) < 36
    assert tomo.mle_nonconverged == nonconverged
    for r in tomo.results:
        if r.low_statistics:
            assert (r.bin_s, r.bin_i) not in ref and r.rho is None
            continue
        rho, conc, pur, bell = ref[r.bin_s, r.bin_i]
        np.testing.assert_allclose(r.rho, rho, rtol=0, atol=1e-12)
        assert r.concurrence == pytest.approx(conc, abs=1e-12)
        assert r.purity == pytest.approx(pur, abs=1e-12)
        assert list(r.bell) == list(bell) == list(BELL_LABELS)
        np.testing.assert_allclose([r.bell[n] for n in BELL_LABELS],
                                   [bell[n] for n in BELL_LABELS], rtol=0, atol=1e-12)
        assert isinstance(r.concurrence, float) and isinstance(r.bell["phi_plus"], float)


def test_angular_tomography_counts_mle_nonconvergence():
    rng = np.random.default_rng(20)
    rho = werner(0.9)
    hists = synthetic_histograms(lambda i, j: rho, 2, flux=3000, rng=rng)
    for h in hists:
        h.counts_theta[1, 0] = 0.0
    # a zero gradient-norm tolerance is never met, so every used bin keeps
    # its best iterate and is counted
    tomo = angular_tomography(hists, TSET, min_counts=200, mle=True, mle_tol=0.0)
    assert tomo.bins_used == 3
    assert tomo.mle_nonconverged == 3
    assert tomo.to_dict()["mle_nonconverged"] == 3
    ref, _ = _per_bin_reference(hists, 200, True, 0.0)
    for r in tomo.results:
        if not r.low_statistics:
            assert_physical(r.rho)
            np.testing.assert_allclose(r.rho, ref[r.bin_s, r.bin_i][0], rtol=0, atol=1e-12)
    linear = angular_tomography(hists, TSET, min_counts=200)
    assert linear.mle_nonconverged == 0


def test_angular_tomography_mle_converges_on_near_pure_states():
    # near-pure states at ~1e4 counts per bin: at the default mle_tol the
    # per-bin Armijo ascent of earlier versions left 3 of these 16 bins
    # unconverged
    rng = np.random.default_rng(0)

    def near_pure():
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        g /= np.linalg.norm(g)
        return 0.98 * np.outer(g, g.conj()) + 0.02 * np.eye(4) / 4

    states = [[near_pure() for _ in range(4)] for _ in range(4)]
    hists = synthetic_histograms(lambda i, j: states[i][j], 4, flux=10_000, rng=rng)
    tomo = angular_tomography(hists, TSET, min_counts=200, mle=True)
    assert tomo.bins_used == 16
    assert tomo.mle_nonconverged == 0
    d = tomo.to_dict()
    for r, b in zip(tomo.results, d["bins"]):
        assert isinstance(r.mle_iterations, int) and r.mle_iterations >= 0
        assert isinstance(r.mle_gradient_norm, float) and r.mle_gradient_norm < 1e-7
        assert (b["mle_iterations"], b["mle_gradient_norm"]) == (
            r.mle_iterations, r.mle_gradient_norm)
    linear = angular_tomography(hists, TSET, min_counts=200)
    assert all(r.mle_iterations is None and r.mle_gradient_norm is None
               for r in linear.results)
    assert linear.to_dict()["bins"][0]["mle_iterations"] is None
