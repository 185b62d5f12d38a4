"""Two-qubit density-matrix reconstruction and entanglement metrics.

Reconstruction chain per angular bin: linear inversion of the 16 setting
counts (flux-normalized by the complete H/V subset), projection to the
nearest physical state by eigenvalue water-filling, and optional
maximum-likelihood refinement over the factorization rho = T^dag T / tr.
Metrics: Wootters concurrence, purity, Bell-state overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    InsufficientDataError,
)
from .polarimetry import PAULI_PRODUCTS, PAULIS, TomographySet
from .qplate_state import BELL_LABELS, BELL_STATES, BellProbabilities

_YY = np.kron(PAULIS[2], PAULIS[2]).real
_BELL_KETS = np.array([BELL_STATES[name] for name in BELL_LABELS])

FLUX_LABELS = ("HH", "HV", "VH", "VV")


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _float_or_array(x: np.ndarray):
    """A Python float for one matrix, the per-matrix array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _matrices(m, what: str) -> np.ndarray:
    """``m`` as complex, checked to be one 4x4 matrix or an (n, 4, 4) stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValueError(f"{what} must be 4x4 or a stack of 4x4 matrices")
    return m


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def assert_physical(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Check that ``rho`` (one 4x4 matrix or an (n, 4, 4) stack) is Hermitian,
    unit-trace and positive semidefinite; returns it as a complex array."""
    rho = _matrices(rho, "density matrix")
    if _max_abs(rho - _dagger(rho)) > tol:
        raise ValueError("density matrix is not Hermitian")
    if _max_abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) > max(tol, 1e-8):
        raise ValueError("density matrix trace differs from 1")
    if np.any(np.linalg.eigvalsh(rho) < -max(tol, 1e-8)):
        raise ValueError("density matrix has negative eigenvalues")
    return rho


def forward_probabilities(rho: np.ndarray, tset: TomographySet) -> np.ndarray:
    """Projection probabilities tr(P_k rho) for the 16 settings."""
    vs = tset.projector_vectors()
    return np.real(np.einsum("ki,ij,kj->k", vs.conj(), rho, vs))


def linear_inversion(counts, tset: TomographySet) -> np.ndarray:
    """Solve the 16x16 linear system for rho from raw setting counts.

    ``counts`` holds the 16 setting counts of one bin, or an (n, 16) stack
    of bins, which gives an (n, 4, 4) stack of matrices from one solve.
    Counts are normalized by the summed flux of the complete {H,V} x {H,V}
    subset, which fixes the trace to one; the result is Hermitian but may
    have negative eigenvalues when counts are noisy.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim not in (1, 2) or counts.shape[-1] != 16:
        raise ValueError("expected 16 counts per bin")
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise ValueError("counts must be finite and nonnegative")
    if np.any(counts.sum(axis=-1) == 0):
        raise InsufficientDataError("all-zero counts")
    labels = tset.labels
    try:
        flux_idx = [labels.index(l) for l in FLUX_LABELS]
    except ValueError as exc:
        raise ConfigurationError(
            "flux normalization needs the complete H/V subset in the tomography set"
        ) from exc
    flux = counts[..., flux_idx].sum(axis=-1)
    if np.any(flux <= 0):
        raise InsufficientDataError("complete-basis flux is zero")
    probs = counts / flux[..., None]
    try:
        coords = np.linalg.solve(tset.design_matrix(), probs.T).T
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError("singular tomography design matrix") from exc
    rho = np.einsum("...k,kij->...ij", coords, PAULI_PRODUCTS)
    return 0.5 * (rho + _dagger(rho))


def project_physical(m: np.ndarray) -> np.ndarray:
    """Closest (Frobenius) positive semidefinite unit-trace matrix.

    Standard water-filling on the sorted eigenvalues: truncate negatives
    and redistribute their mass uniformly over the remaining ones.  Takes
    one 4x4 matrix or an (n, 4, 4) stack and projects each matrix.
    """
    m = _matrices(m, "input")
    if _max_abs(m - _dagger(m)) > 1e-8:
        raise ValueError("input must be Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if not np.all(tr > 0):
        raise ValueError("input trace must be positive")
    vals, vecs = np.linalg.eigh(m / tr[..., None, None])  # ascending
    lam = vals.copy()
    acc = np.zeros(tr.shape)
    filling = np.ones(tr.shape, dtype=bool)  # matrices still truncating
    n = lam.shape[-1]
    for i in range(n):
        rem = n - i
        clip = filling & (lam[..., i] + acc / rem < 0)
        done = filling & ~clip
        acc = np.where(clip, acc + lam[..., i], acc)
        lam[..., i] = np.where(clip, 0.0, lam[..., i])
        lam[..., i:] += np.where(done, acc / rem, 0.0)[..., None]
        filling = clip
    rho = (vecs * lam[..., None, :]) @ _dagger(vecs)
    return 0.5 * (rho + _dagger(rho))


def mle_refine(initial: np.ndarray, counts, tset: TomographySet,
               tol: float = 1e-9, max_iters: int = 5000) -> np.ndarray:
    """Maximum-likelihood refinement of a physical starting state.

    Maximizes the multinomial mean log-likelihood sum_k (n_k/N) log p_k(rho)
    over rho = T^dag T / tr(T^dag T) by gradient ascent with a backtracking
    (Armijo) line search; the likelihood never decreases across accepted
    steps.  ``tol`` bounds the gradient norm of the mean log-likelihood at
    exit; exceeding ``max_iters`` raises ConvergenceError carrying the best
    iterate.
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise InsufficientDataError("all-zero counts")
    rho0 = assert_physical(initial)
    vs = tset.projector_vectors()  # (16, 4)
    active = counts > 0
    n_active = counts[active]
    v_active = vs[active]
    # The multinomial category probability of setting k is
    # tr(P_k rho) / sum_j tr(P_j rho); S implements the denominator.
    S = np.einsum("ki,kj->ij", vs, vs.conj())

    # Strictly positive start so every active outcome has nonzero likelihood.
    eps = 1e-10
    mixed = (1.0 - eps) * rho0 + eps * np.eye(4) / 4.0
    vals, vecs = np.linalg.eigh(mixed)
    T = (vecs * np.sqrt(np.clip(vals, 1e-300, None))) @ vecs.conj().T

    def mean_loglike(T):
        tv = v_active @ T.T  # rows are (T v_k)^T
        ptilde = np.einsum("ki,ki->k", tv, tv.conj()).real
        tv_all = vs @ T.T
        s = np.einsum("ki,ki->", tv_all, tv_all.conj()).real
        if np.any(ptilde <= 0) or s <= 0:
            return -np.inf, None, None
        f = float(np.dot(n_active, np.log(ptilde)) / total - math.log(s))
        return f, ptilde, s

    f, ptilde, s = mean_loglike(T)
    best_f, best_T = f, T.copy()
    step = 0.1
    for _ in range(max_iters):
        # Wirtinger gradient of the mean log-likelihood wrt conj(T)
        weights = n_active / (ptilde * total)
        G = np.einsum("k,ki,kj->ij", weights, v_active, v_active.conj())
        W = T @ G - (T @ S) / s
        gnorm = 2.0 * np.linalg.norm(W)
        if gnorm < tol:
            rho = T.conj().T @ T
            return rho / np.trace(rho).real
        improved = False
        while step > 1e-18:
            T_new = T + (2.0 * step) * W
            f_new, p_new, s_new = mean_loglike(T_new)
            if f_new >= f + 0.25 * step * gnorm**2:
                T, f, ptilde, s = T_new, f_new, p_new, s_new
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if f > best_f:
            best_f, best_T = f, T.copy()
    rho = best_T.conj().T @ best_T
    raise ConvergenceError(
        f"MLE gradient norm did not reach {tol} within {max_iters} iterations",
        best=rho / np.trace(rho).real,
    )


def concurrence(rho: np.ndarray):
    """Wootters concurrence of a physical two-qubit state (float), or of
    each state of an (n, 4, 4) stack (array)."""
    rho = assert_physical(rho)
    rho_tilde = _YY @ rho.conj() @ _YY
    ev = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sqrt(np.clip(np.sort(ev.real, axis=-1)[..., ::-1], 0.0, None))
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return _float_or_array(np.maximum(c, 0.0))


def purity(rho: np.ndarray):
    """tr(rho^2) of one matrix (float), or of each matrix of a stack (array)."""
    rho = np.asarray(rho)
    return _float_or_array(np.real(np.trace(rho @ rho, axis1=-2, axis2=-1)))


def bell_decomposition(rho: np.ndarray) -> BellProbabilities:
    """Diagonal Bell-state overlaps <B|rho|B>; fields are floats for one
    matrix and per-matrix arrays for a stack."""
    rho = assert_physical(rho)
    p = np.einsum("bi,...ij,bj->b...", _BELL_KETS.conj(), rho, _BELL_KETS).real
    return BellProbabilities(**{"p_" + name: _float_or_array(v)
                                for name, v in zip(BELL_LABELS, p)})


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    sq = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    inner = sq @ np.asarray(sigma, dtype=complex) @ sq
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0, None))) ** 2)


# ---------------------------------------------------------------------------
# Spatially resolved tomography

@dataclass
class TomographyResult:
    """Reconstruction and metrics for one (theta_s, theta_i) bin."""

    bin_s: int
    bin_i: int
    counts_used: int
    low_statistics: bool
    rho: np.ndarray | None
    concurrence: float
    purity: float
    bell_probs: BellProbabilities | None

    def to_dict(self) -> dict:
        d = {
            "bin_s": self.bin_s,
            "bin_i": self.bin_i,
            "counts_used": self.counts_used,
            "low_statistics": self.low_statistics,
            "concurrence": self.concurrence,
            "purity": self.purity,
        }
        if self.rho is not None:
            d["rho_re"] = np.real(self.rho).ravel().tolist()
            d["rho_im"] = np.imag(self.rho).ravel().tolist()
        if self.bell_probs is not None:
            d["bell"] = {
                name: getattr(self.bell_probs, "p_" + name) for name in BELL_LABELS
            }
        return d


@dataclass
class AngularTomography:
    """Per-angular-bin reconstructions plus count-weighted summary metrics."""

    n_theta: int
    results: list  # row-major list of TomographyResult
    average_concurrence: float
    concurrence_se: float
    average_purity: float
    bins_used: int
    min_counts: int
    mle: bool
    mle_nonconverged: int  # used bins whose MLE kept its best iterate

    def result(self, i: int, j: int) -> TomographyResult:
        return self.results[i * self.n_theta + j]

    def metric_map(self, name: str) -> np.ndarray:
        out = np.full((self.n_theta, self.n_theta), np.nan)
        for r in self.results:
            if r.low_statistics:
                continue
            if name == "concurrence":
                out[r.bin_s, r.bin_i] = r.concurrence
            elif name == "purity":
                out[r.bin_s, r.bin_i] = r.purity
            elif name in BELL_LABELS:
                out[r.bin_s, r.bin_i] = getattr(r.bell_probs, "p_" + name)
            else:
                raise ValueError(f"unknown metric {name!r}")
        return out

    def bell_maps(self) -> dict:
        return {name: self.metric_map(name) for name in BELL_LABELS}

    def to_dict(self) -> dict:
        return {
            "n_theta": self.n_theta,
            "average_concurrence": self.average_concurrence,
            "concurrence_se": self.concurrence_se,
            "average_purity": self.average_purity,
            "bins_used": self.bins_used,
            "min_counts": self.min_counts,
            "mle": self.mle,
            "mle_nonconverged": self.mle_nonconverged,
            "bins": [r.to_dict() for r in self.results],
        }


def angular_tomography(histograms, tset: TomographySet, mle: bool = False,
                       min_counts: int = 200, mle_tol: float = 1e-7) -> AngularTomography:
    """Reconstruct a density matrix for every (theta_s, theta_i) bin.

    ``histograms`` holds one CoincidenceHistogram per setting of ``tset``
    (matched by label; all must share one binning).  Bins whose summed
    counts across the 16 settings fall below ``min_counts`` are flagged
    low-statistics and excluded from the count-weighted averages.  The
    other bins are inverted and projected as one stack; with ``mle`` each
    is then refined by :func:`mle_refine`, and a bin that does not reach
    ``mle_tol`` keeps the best iterate and is counted in
    ``mle_nonconverged``.
    """
    by_label = {h.setting: h for h in histograms}
    if sorted(by_label) != sorted(tset.labels):
        missing = sorted(set(tset.labels) - set(by_label))
        raise ConfigurationError(f"missing histograms for settings: {missing}")
    ref = by_label[tset.labels[0]].binning
    for h in histograms:
        b = h.binning
        if (b.n_theta, b.n_r, b.r_max) != (ref.n_theta, ref.n_r, ref.r_max):
            raise ConfigurationError("histograms do not share one binning")
        # Shared centroids matter: per-setting centroid jitter flips pixels
        # lying on bin edges inconsistently between settings.
        if b.centroid_s != ref.centroid_s or b.centroid_i != ref.centroid_i:
            raise ConfigurationError("histograms were binned about different centroids")

    n_theta = ref.n_theta
    counts = np.stack([np.asarray(by_label[l].counts_theta, dtype=float).ravel()
                       for l in tset.labels], axis=1)  # (n_theta**2, 16), row-major bins
    totals = [int(round(t)) for t in counts.sum(axis=1)]
    used = [k for k, t in enumerate(totals) if t >= min_counts]

    rhos = project_physical(linear_inversion(counts[used], tset))
    nonconverged = 0
    if mle:
        for n, k in enumerate(used):
            try:
                rhos[n] = mle_refine(rhos[n], counts[k], tset, tol=mle_tol)
            except ConvergenceError as exc:
                rhos[n] = exc.best
                nonconverged += 1
    conc = concurrence(rhos)
    pur = purity(rhos)
    bell = bell_decomposition(rhos).as_array()  # (4, n_used)

    results = [TomographyResult(*divmod(k, n_theta), t, True, None,
                                float("nan"), float("nan"), None)
               for k, t in enumerate(totals)]
    for n, k in enumerate(used):
        results[k] = TomographyResult(
            *divmod(k, n_theta), totals[k], False, rhos[n], float(conc[n]),
            float(pur[n]), BellProbabilities(*(float(p) for p in bell[:, n])))

    if used:
        w = np.array([totals[k] for k in used], dtype=float)
        avg_c = float(np.sum(w * conc) / w.sum())
        se = float(np.sqrt(np.sum(w**2 * (conc - avg_c) ** 2)) / w.sum())
        avg_p = float(np.sum(w * pur) / w.sum())
    else:
        avg_c = se = avg_p = float("nan")
    return AngularTomography(
        n_theta=n_theta,
        results=results,
        average_concurrence=avg_c,
        concurrence_se=se,
        average_purity=avg_p,
        bins_used=len(used),
        min_counts=min_counts,
        mle=mle,
        mle_nonconverged=nonconverged,
    )
