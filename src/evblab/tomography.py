"""Two-qubit density-matrix reconstruction and entanglement metrics.

The used angular bins are reconstructed as one (n, 4, 4) stack: linear
inversion of the 16 setting counts (flux-normalized by the complete H/V
subset), projection to the nearest physical state by eigenvalue
water-filling, and optional maximum-likelihood refinement by accelerated
projected gradient ascent on rho (Shang, Zhang & Ng, PRA 95, 062336, 2017):
per bin, a backtracking step from a Nesterov point, the same water-filling
after every step, and a momentum restart where the likelihood drops.
Metrics: Wootters concurrence, purity, Bell-state overlaps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    InsufficientDataError,
)
from .polarimetry import PAULI_PRODUCTS, PAULIS, TomographySet
from .qplate_state import BELL_LABELS, BELL_STATES

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
    """Projection probabilities tr(P_k rho) for the 16 settings, of one
    matrix or of each matrix of a stack."""
    vs = tset.projector_vectors()
    return np.sum(vs.T.conj() * (rho @ vs.T), axis=-2).real


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


def _water_fill(m: np.ndarray):
    """Eigenpairs of the closest (Frobenius) unit-trace positive semidefinite
    matrix to each Hermitian matrix of a stack: the eigenvalues, whatever
    their sum, drop by the one shift that leaves the nonnegative ones
    summing to one, and the others are set to zero."""
    vals, vecs = np.linalg.eigh(m)
    desc = vals[..., ::-1]
    shift = (np.cumsum(desc, axis=-1) - 1.0) / np.arange(1, desc.shape[-1] + 1)
    kept = np.sum(desc > shift, axis=-1)  # the largest `kept` eigenvalues stay
    shift = np.take_along_axis(shift, kept[..., None] - 1, axis=-1)
    return np.maximum(vals - shift, 0.0), vecs


def _compose(lam: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    rho = (vecs * lam[..., None, :]) @ _dagger(vecs)
    return 0.5 * (rho + _dagger(rho))


def project_physical(m: np.ndarray) -> np.ndarray:
    """Closest (Frobenius) positive semidefinite unit-trace matrix to a
    Hermitian 4x4 matrix of any trace, or to each matrix of an (n, 4, 4)
    stack, by eigenvalue water-filling."""
    m = _matrices(m, "input")
    if _max_abs(m - _dagger(m)) > 1e-8:
        raise ValueError("input must be Hermitian")
    return _compose(*_water_fill(m))


def _gradient(p: np.ndarray, freq: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """R = sum_k f_k P_k / p_k - S / sum_k p_k (S = sum_k P_k), the gradient
    of F = sum_k f_k log p_k - log sum_k p_k, per row of probabilities."""
    w = np.divide(freq, p, out=np.zeros_like(p), where=freq > 0)
    return (vs.T * w[:, None, :]) @ vs.conj() - (vs.T @ vs.conj()) / p.sum(axis=-1)[:, None, None]


def _gain(p: np.ndarray, dp: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """F(m + d) - F(m) from p = p(m) and dp = p(d), free of the cancellation
    of subtracting two log-likelihoods; -inf where m + d leaves an observed
    setting no probability."""
    r = np.divide(dp, p, out=np.zeros_like(p), where=freq > 0)
    rs = dp.sum(axis=-1) / p.sum(axis=-1)
    ok = np.all(r > -1.0, axis=-1) & (rs > -1.0)
    gain = np.sum(freq * np.log1p(np.where(ok[:, None], r, 0.0)), axis=-1)
    return np.where(ok, gain - np.log1p(np.where(ok, rs, 0.0)), -np.inf)


def _mle_ascent(initial, counts: np.ndarray, tset: TomographySet, tol: float, max_iters: int):
    """Maximum-likelihood states for an (n, 4, 4) stack of physical starts
    and (n, 16) counts.  Each bin has its own step, momentum and restart, so
    it ends the same alone or in a stack.  Returns the states, each bin's
    iterations and its final 2 ||rho^(1/2) R||_F (below ``tol``: converged)."""
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = counts.sum(axis=-1)
    if np.any(total <= 0):
        raise InsufficientDataError("all-zero counts")
    freq, vs, n = counts / total[:, None], tset.projector_vectors(), len(counts)
    rho, grad = np.empty((n, 4, 4), dtype=complex), np.empty((n, 4, 4), dtype=complex)
    p, gnorm = np.empty((n, 16)), np.empty(n)

    def settle(k, lam, vecs):  # make vecs diag(lam) vecs^dag the iterate of bins k
        rho[k] = _compose(lam, vecs)
        p[k] = forward_probabilities(rho[k], tset)
        grad[k] = _gradient(p[k], freq[k], vs)
        half = vecs * np.sqrt(lam)[:, None, :]  # half half^dag = rho, exact zeros kept
        gnorm[k] = 2.0 * np.linalg.norm(_dagger(half) @ grad[k], axis=(-2, -1))

    # Strictly positive start so every observed outcome has nonzero likelihood.
    lam, vecs = np.linalg.eigh((1 - 1e-10) * assert_physical(initial) + 1e-10 * np.eye(4) / 4)
    settle(np.arange(n), np.maximum(lam, 0.0), vecs)
    prev, theta, step, iters = rho.copy(), np.ones(n), np.ones(n), np.zeros(n, dtype=int)
    live = gnorm >= tol
    while np.any(run := live & (iters < max_iters)):
        a = np.flatnonzero(run)
        iters[a] += 1
        f = freq[a]
        th = (1.0 + np.sqrt(1.0 + 4.0 * theta[a] ** 2)) / 2.0  # Nesterov sequence
        beta = (theta[a] - 1.0) / th
        y = rho[a] + beta[:, None, None] * (rho[a] - prev[a])
        py = forward_probabilities(y, tset)
        out = np.any((py <= 0) & (f > 0), axis=-1)  # extrapolated too far: no momentum
        y[out], py[out], beta[out] = rho[a[out]], p[a[out]], 0.0
        gy = _gradient(py, f, vs)
        # backtracking: halve the step until the ascent test passes
        t, todo = step[a], np.arange(a.size)
        lam, vecs = np.zeros((a.size, 4)), np.zeros((a.size, 4, 4), dtype=complex)
        found = np.zeros(a.size, dtype=bool)
        while todo.size:
            cl, cv = _water_fill(y[todo] + t[todo, None, None] * gy[todo])
            d = _compose(cl, cv) - y[todo]
            model = np.sum((d.conj() * (gy[todo] - d / (2 * t[todo, None, None]))).real,
                           axis=(-2, -1))  # <R, d> - ||d||^2 / 2t
            ok = _gain(py[todo], forward_probabilities(d, tset), f[todo]) >= model
            lam[todo[ok]], vecs[todo[ok]], found[todo[ok]] = cl[ok], cv[ok], True
            t[todo[~ok]] *= 0.5
            todo = todo[~ok & (t[todo] > 1e-20)]
        # Restart: drop a momentum step that lowers the likelihood; a step from
        # rho that passed the test ascends in exact arithmetic, so it is kept.
        move = _compose(lam, vecs) - rho[a]
        up = found & ((beta == 0) | (_gain(p[a], forward_probabilities(move, tset), f) >= 0))
        prev[a] = rho[a]
        settle(a[up], lam[up], vecs[up])
        theta[a] = np.where(up, th, 1.0)
        step[a] = np.where(up, 1.5 * t, np.where(found, t, step[a]))
        # stalled: no step from rho itself passes the test, or it moves rho by rounding
        still = (beta == 0) & (np.linalg.norm(move, axis=(-2, -1)) < 1e-14)
        live[a] = (gnorm[a] >= tol) & (found | (beta > 0)) & ~still
    return rho, iters, gnorm


def mle_refine(initial: np.ndarray, counts, tset: TomographySet,
               tol: float = 1e-9, max_iters: int = 5000) -> np.ndarray:
    """Maximum-likelihood refinement of a physical starting state.

    Maximizes sum_k (n_k/N) log tr(P_k rho) - log tr(S rho), S = sum_k P_k,
    over unit-trace PSD rho by accelerated projected gradient ascent (the
    batched ascent of :func:`angular_tomography`, on a stack of one): a
    backtracking step from a Nesterov point, water-filled back to a state,
    and a momentum restart where the likelihood would drop.  ``tol`` bounds
    2 ||rho^(1/2) R||_F at exit, R being the gradient; missing it within
    ``max_iters`` iterations raises ConvergenceError carrying the best iterate.
    """
    rho, _, gnorm = _mle_ascent(np.asarray(initial)[None], np.asarray(counts, dtype=float)[None],
                                tset, tol, max_iters)
    if not gnorm[0] < tol:
        raise ConvergenceError(f"MLE gradient norm did not reach {tol} within {max_iters} "
                               "iterations", best=rho[0])
    return rho[0]


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


def bell_decomposition(rho: np.ndarray) -> dict:
    """Diagonal Bell-state overlaps <B|rho|B> keyed by label in BELL_LABELS
    order: floats for one matrix, per-matrix arrays for a stack."""
    rho = assert_physical(rho)
    p = np.einsum("bi,...ij,bj->b...", _BELL_KETS.conj(), rho, _BELL_KETS).real
    return {name: _float_or_array(v) for name, v in zip(BELL_LABELS, p)}


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
    bell: dict | None  # label -> Bell overlap
    mle_iterations: int | None = None  # None without MLE
    mle_gradient_norm: float | None = None  # stationarity norm at exit

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in ("bin_s", "bin_i", "counts_used", "low_statistics",
                                           "concurrence", "purity", "mle_iterations",
                                           "mle_gradient_norm")}
        if self.rho is not None:
            d["rho_re"] = np.real(self.rho).ravel().tolist()
            d["rho_im"] = np.imag(self.rho).ravel().tolist()
        if self.bell is not None:
            d["bell"] = self.bell
        return d


@dataclass
class AngularTomography:
    """Per-angular-bin reconstructions plus count-weighted summary metrics."""

    n_theta: int
    results: list  # row-major list of TomographyResult
    average_concurrence: float
    concurrence_se: float  # count-weighted spread between bins, not a statistical error
    average_purity: float
    bins_used: int
    min_counts: int
    mle: bool
    mle_nonconverged: int  # used bins whose MLE missed its tolerance

    def result(self, i: int, j: int) -> TomographyResult:
        return self.results[i * self.n_theta + j]

    def metric_map(self, name: str) -> np.ndarray:
        if name not in ("concurrence", "purity", *BELL_LABELS):
            raise ValueError(f"unknown metric {name!r}")
        out = np.full((self.n_theta, self.n_theta), np.nan)
        for r in self.results:
            if not r.low_statistics:
                out[r.bin_s, r.bin_i] = r.bell[name] if name in BELL_LABELS else getattr(r, name)
        return out

    def bell_maps(self) -> dict:
        return {name: self.metric_map(name) for name in BELL_LABELS}

    def to_dict(self) -> dict:
        keys = ("n_theta", "average_concurrence", "concurrence_se", "average_purity",
                "bins_used", "min_counts", "mle", "mle_nonconverged")
        return {**{k: getattr(self, k) for k in keys},
                "bins": [r.to_dict() for r in self.results]}


def angular_tomography(histograms, tset: TomographySet, mle: bool = False,
                       min_counts: int = 200, mle_tol: float = 1e-7) -> AngularTomography:
    """Reconstruct a density matrix for every (theta_s, theta_i) bin.

    ``histograms`` holds one CoincidenceHistogram per setting of ``tset``
    (matched by label; all must share one binning).  Bins whose summed
    counts across the 16 settings fall below ``min_counts`` are flagged
    low-statistics and excluded from the count-weighted averages.  The
    other bins are inverted and projected as one stack; with ``mle`` the
    stack is then refined in one batched ascent (see :func:`mle_refine`),
    each bin recording its iterations and final gradient norm, and a bin
    that does not reach ``mle_tol`` keeps its best iterate and is counted in
    ``mle_nonconverged``.
    """
    by_label = {h.setting: h for h in histograms}
    if sorted(by_label) != sorted(tset.labels):
        missing = sorted(set(tset.labels) - set(by_label))
        raise ConfigurationError(f"missing histograms for settings: {missing}")
    ref = by_label[tset.labels[0]].binning
    # Shared centroids matter: per-setting centroid jitter flips pixels
    # lying on bin edges inconsistently between settings.
    if any(h.binning != ref for h in histograms):
        raise ConfigurationError("histograms do not share one binning and centroid pair")

    n_theta = ref.n_theta
    counts = np.stack([np.asarray(by_label[l].counts_theta, dtype=float).ravel()
                       for l in tset.labels], axis=1)  # (n_theta**2, 16), row-major bins
    totals = [int(round(t)) for t in counts.sum(axis=1)]
    used = [k for k, t in enumerate(totals) if t >= min_counts]

    rhos = project_physical(linear_inversion(counts[used], tset))
    mle_record = [(None, None)] * len(used)  # (iterations, gradient norm) per bin
    if mle and used:
        rhos, iters, gnorm = _mle_ascent(rhos, counts[used], tset, mle_tol, 5000)
        mle_record = [(int(i), float(g)) for i, g in zip(iters, gnorm)]
    conc = concurrence(rhos)
    pur = purity(rhos)
    bell = bell_decomposition(rhos)  # label -> (n_used,) array

    results = [TomographyResult(*divmod(k, n_theta), t, True, None,
                                float("nan"), float("nan"), None)
               for k, t in enumerate(totals)]
    for n, k in enumerate(used):
        results[k] = TomographyResult(
            *divmod(k, n_theta), totals[k], False, rhos[n], float(conc[n]),
            float(pur[n]), {name: float(p[n]) for name, p in bell.items()},
            *mle_record[n])

    w = np.array([totals[k] for k in used], dtype=float)
    with np.errstate(invalid="ignore"):  # nan averages without used bins
        avg_c = float(np.sum(w * conc) / w.sum())
        se = float(np.sqrt(np.sum(w**2 * (conc - avg_c) ** 2)) / w.sum())
        avg_p = float(np.sum(w * pur) / w.sum())
    nonconverged = sum(g is not None and not g < mle_tol for _, g in mle_record)
    return AngularTomography(n_theta, results, avg_c, se, avg_p, len(used), min_counts,
                             mle, nonconverged)
