"""Normalized Laguerre-Gauss mode functions (radial index zero, waist plane).

These are the spatial basis functions for every two-photon state in the
toolkit.  Only the p=0 family is supported; the radial amplitude is

    F_l(r) = sqrt(2 / (pi |l|!)) * (1/w) * (sqrt(2) r / w)^|l| * exp(-r^2/w^2)

which carries unit L2 norm once the azimuthal integral is included:
integral of |F_l(r)|^2 * 2 pi r dr over [0, inf) equals 1.

:func:`radial_amplitudes` is the one evaluation of F_l, and checks nothing:
waists are checked by ``QPlateParams`` and ``ModeSuperposition``, radii by
``local_spinor``, and the bound |l| <= MAX_AZIMUTHAL_INDEX by every ``ModeTerm``.
"""

from __future__ import annotations

import math

import numpy as np

MAX_AZIMUTHAL_INDEX = 8


def radial_amplitudes(abs_ells, waist: float, r) -> np.ndarray:
    """F_l(r) for each |l| of ``abs_ells`` (leading axis) at the radii ``r``;
    unchecked, and with the Gaussian factor shared by all indices."""
    r = np.asarray(r, dtype=float)
    s, g = math.sqrt(2.0) * r / waist, np.exp(-(r ** 2) / waist ** 2)
    return np.array([math.sqrt(2.0 / (math.pi * math.factorial(int(a)))) / waist
                     * s ** int(a) * g for a in abs_ells])


_gamma = np.vectorize(math.gamma, otypes=[float])


def radial_overlap(ell_a, ell_b):
    """integral of F_a(r) F_b(r) r dr over [0, inf), for scalar or array indices.

    Closed form Gamma((|a| + |b|)/2 + 1) / (2 pi sqrt(|a|! |b|!)), the same at
    every waist; equals 1/(2 pi) when ell_a == +-ell_b (shared radial profile).
    """
    a = np.abs(np.asarray(ell_a, dtype=float))
    b = np.abs(np.asarray(ell_b, dtype=float))
    norm = 2.0 * math.pi * np.sqrt(_gamma(a + 1.0) * _gamma(b + 1.0))
    out = _gamma((a + b) / 2.0 + 1.0) / norm
    return out if out.ndim else float(out)


# Gauss-Legendre rule on [-1, 1] for per-bin radial integrals
_BIN_NODES, _BIN_WEIGHTS = np.polynomial.legendre.leggauss(24)


def radial_bin_overlaps(ells, waist: float, edges) -> np.ndarray:
    """integral of F_a(r) F_b(r) r dr over each radial bin, for all (a, b).

    Returns an (n, n, n_bins) array for the n indices ``ells``; 24-node
    Gauss-Legendre per bin.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    r = half * (_BIN_NODES + 1.0) + edges[:-1, None]  # (n_bins, nodes)
    distinct, idx = np.unique(np.abs(ells), return_inverse=True)
    f = radial_amplitudes(distinct, waist, r)[idx]
    return np.einsum("abn,cbn,bn->acb", f, f, r * half * _BIN_WEIGHTS)


def azimuthal_bin_integrals(dl, edges) -> np.ndarray:
    """integral of exp(i dl theta) over each [edges[b], edges[b+1]), for an
    integer array dl; the bin axis comes last."""
    dl = np.asarray(dl)
    lo, hi = edges[:-1], edges[1:]
    out = np.empty(dl.shape + (len(lo),), dtype=complex)
    zero = dl == 0
    out[zero] = (hi - lo)[None, :]
    d = dl[~zero][:, None].astype(float)
    out[~zero] = (np.exp(1j * d * hi) - np.exp(1j * d * lo)) / (1j * d)
    return out
