"""Two-photon polarization/spatial state algebra.

Builds the polarization-singlet input state sent through one first-order
space-variant birefringent plate ("q-plate") per arm, in closed form, and
evaluates the resulting space-varying two-qubit state: local spinors and
Bell-state probability densities at points, and :func:`bin_states`, the
density matrix of each angular bin.  The angular Bell maps, and the expected
histograms of :mod:`polarimetry`, are projections of those matrices.

Conventions (fixed globally):
  * Jones vectors in the (H, V) basis with L = (1, i)/sqrt(2) and
    R = (1, -i)/sqrt(2).
  * Circular two-photon amplitudes are ordered (LL, LR, RL, RR); linear
    ones (HH, HV, VH, VV).
  * A plate with charge q converts L -> R while shifting the azimuthal
    index by -2q, and R -> L shifting by +2q, with conversion amplitude
    i*sin(delta/2) and survival amplitude cos(delta/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lgmodes import (
    MAX_AZIMUTHAL_INDEX,
    azimuthal_bin_integrals,
    radial_amplitudes,
    radial_bin_overlaps,
    radial_overlap,
)

# ---------------------------------------------------------------------------
# Polarization basis

SQRT2 = math.sqrt(2.0)

JONES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "L": np.array([1.0, 1.0j]) / SQRT2,
    "R": np.array([1.0, -1.0j]) / SQRT2,
    "D": np.array([1.0, 1.0]) / SQRT2,
    "A": np.array([1.0, -1.0]) / SQRT2,
}

# Single-photon change of basis: amplitudes (a_L, a_R) -> (a_H, a_V).
_CIRC_TO_LIN_1 = np.column_stack([JONES["L"], JONES["R"]])
# Two-photon version, (LL, LR, RL, RR) -> (HH, HV, VH, VV).
CIRC_TO_LIN = np.kron(_CIRC_TO_LIN_1, _CIRC_TO_LIN_1)

# Bell states in the (HH, HV, VH, VV) ordering.
BELL_STATES = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / SQRT2,
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / SQRT2,
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / SQRT2,
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / SQRT2,
}
BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class QPlateParams:
    """Plate parameters: half-integer charge q, retardation delta in [0, pi],
    and the waist (in pixels) of the beam it acts on."""

    q: float
    delta: float = math.pi
    waist: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.q) and abs(2 * self.q - round(2 * self.q)) <= 1e-12):
            raise ValueError(f"charge q must be a finite half-integer, got {self.q}")
        if not (0.0 <= self.delta <= math.pi + 1e-12):
            raise ValueError(f"retardation must lie in [0, pi], got {self.delta}")
        if not (math.isfinite(self.waist) and self.waist > 0):
            raise ValueError(f"waist must be positive, got {self.waist}")

    @property
    def ell_shift(self) -> int:
        """Azimuthal index transferred on conversion (2q, an integer)."""
        return int(round(2 * self.q))


@dataclass(frozen=True)
class ModeTerm:
    """One summand of a two-photon superposition: circular polarizations,
    azimuthal indices, and a complex amplitude."""

    pol_s: str
    pol_i: str
    ell_s: int
    ell_i: int
    amp: complex

    def __post_init__(self):
        if self.pol_s not in ("L", "R") or self.pol_i not in ("L", "R"):
            raise ValueError("polarizations must be 'L' or 'R'")
        if not (np.isfinite(self.amp.real) and np.isfinite(self.amp.imag)):
            raise ValueError("amplitude must be finite")
        for ell in (self.ell_s, self.ell_i):
            if ell != int(ell):
                raise ValueError(f"azimuthal index must be an integer, got {ell}")
            if abs(ell) > MAX_AZIMUTHAL_INDEX:
                raise ValueError(
                    f"|ell| = {abs(ell)} exceeds the supported bound {MAX_AZIMUTHAL_INDEX}"
                )

    @property
    def key(self):
        return (self.pol_s, self.pol_i, self.ell_s, self.ell_i)

    @property
    def sector(self) -> int:
        """Index of the polarization sector in the (LL, LR, RL, RR) ordering."""
        return 2 * (self.pol_s == "R") + (self.pol_i == "R")


@dataclass(frozen=True)
class ModeSuperposition:
    """A two-photon state as a finite sum of mode terms.

    Terms with identical (pol_s, pol_i, ell_s, ell_i) are merged on
    construction via :meth:`from_terms`; distinct terms are mutually
    orthogonal, so the squared norm is the plain sum of |amp|^2.
    """

    terms: tuple[ModeTerm, ...]
    waist_s: float = 10.0
    waist_i: float = 10.0

    def __post_init__(self):
        if not all(math.isfinite(w) and w > 0 for w in (self.waist_s, self.waist_i)):
            raise ValueError("waists must be positive and finite")
        keys = [t.key for t in self.terms]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate mode terms; build via from_terms()")
        n = self.norm_squared()
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"state norm^2 = {n!r}, expected 1")

    @classmethod
    def from_terms(cls, terms, waist_s: float = 10.0, waist_i: float = 10.0):
        merged: dict[tuple, complex] = {}
        for t in terms:
            merged[t.key] = merged.get(t.key, 0.0) + complex(t.amp)
        kept = tuple(
            ModeTerm(*k, amp=a) for k, a in merged.items() if abs(a) > 1e-14
        )
        return cls(terms=kept, waist_s=waist_s, waist_i=waist_i)

    def norm_squared(self) -> float:
        return float(sum(abs(t.amp) ** 2 for t in self.terms))


# ---------------------------------------------------------------------------
# State construction

def _plate_branches(pol: str, plate: QPlateParams):
    """A Gaussian photon of handedness ``pol`` through one plate, as (pol, ell,
    amplitude) branches: it survives unchanged, or flips handedness, L moving
    down by 2q and R up by 2q."""
    flipped, ell = ("R", -plate.ell_shift) if pol == "L" else ("L", plate.ell_shift)
    return ((pol, 0, math.cos(plate.delta / 2.0)),
            (flipped, ell, 1j * math.sin(plate.delta / 2.0)))


def evb_state(plate_s: QPlateParams, plate_i: QPlateParams) -> ModeSuperposition:
    """Entangled vector beam: the polarization singlet (i/sqrt2)(|L,R> - |R,L>)
    of Gaussian photons, sent through one plate per arm.

    Each singlet term expands over both arms' branches; a plate with delta = 0
    leaves its photon unchanged.  The global phase i never affects any
    probability downstream.
    """
    terms = []
    for pol_s, pol_i, amp in (("L", "R", 1j / SQRT2), ("R", "L", -1j / SQRT2)):
        for new_s, ell_s, a_s in _plate_branches(pol_s, plate_s):
            for new_i, ell_i, a_i in _plate_branches(pol_i, plate_i):
                a = a_i * (a_s * amp)
                if abs(a) >= 1e-14:
                    terms.append(ModeTerm(new_s, new_i, ell_s, ell_i, a))
    return ModeSuperposition.from_terms(terms, waist_s=plate_s.waist, waist_i=plate_i.waist)


# ---------------------------------------------------------------------------
# Pointwise evaluation

def _check_coords(r_s, theta_s, r_i, theta_i):
    arrs = [np.asarray(a, dtype=float) for a in (r_s, theta_s, r_i, theta_i)]
    for a in arrs:
        if not np.all(np.isfinite(a)):
            raise ValueError("coordinates must be finite")
    if np.any(arrs[0] < 0) or np.any(arrs[2] < 0):
        raise ValueError("radii must be nonnegative")
    return arrs


def local_spinor(state: ModeSuperposition, r_s, theta_s, r_i, theta_i) -> np.ndarray:
    """Un-normalized two-qubit amplitudes at the given transverse coordinates.

    Returns the circular-basis vector ordered (LL, LR, RL, RR); broadcasts
    over array coordinates, in which case the basis axis comes last.
    """
    r_s, theta_s, r_i, theta_i = _check_coords(r_s, theta_s, r_i, theta_i)
    shape = np.broadcast_shapes(r_s.shape, theta_s.shape, r_i.shape, theta_i.shape)
    out = np.zeros(shape + (4,), dtype=complex)
    fs = radial_amplitudes([abs(t.ell_s) for t in state.terms], state.waist_s, r_s)
    fi = radial_amplitudes([abs(t.ell_i) for t in state.terms], state.waist_i, r_i)
    for t, f_s, f_i in zip(state.terms, fs, fi):
        phase = np.exp(1j * (t.ell_s * theta_s + t.ell_i * theta_i))
        out[..., t.sector] += t.amp * f_s * f_i * phase
    return out


def bell_probabilities(state, r_s, theta_s, r_i, theta_i) -> dict:
    """|<B|psi(x)>|^2 for the four Bell states at the given coordinates, keyed
    by label in BELL_LABELS order: floats at one point, arrays on a grid."""
    v = local_spinor(state, r_s, theta_s, r_i, theta_i) @ CIRC_TO_LIN.T
    probs = {}
    for name in BELL_LABELS:
        p = np.abs(v @ BELL_STATES[name].conj()) ** 2
        probs[name] = float(p) if np.ndim(p) == 0 else p
    return probs


# ---------------------------------------------------------------------------
# Projections, bin states and angular Bell probability maps

def term_projections(state: ModeSuperposition, kets) -> np.ndarray:
    """Amplitude of each term along one or more two-qubit kets.

    ``kets`` has shape (..., 4) in the (HH, HV, VH, VV) basis; the result has
    shape (..., n_terms) and holds <ket | pol sector of term k> * amp_k.
    """
    sector = [t.sector for t in state.terms]
    amp = np.array([t.amp for t in state.terms], dtype=complex)
    return (np.asarray(kets).conj() @ CIRC_TO_LIN)[..., sector] * amp


def merge_modes(coeffs, keys):
    """Coherent merge of equal modes: the distinct rows of the integer array
    ``keys`` (one row per coefficient, sorted) and the sum of the coefficients
    sharing each row.  Equal modes interfere, and may cancel exactly."""
    keys, inv = np.unique(np.asarray(keys, dtype=int), axis=0, return_inverse=True)
    merged = np.zeros(len(keys), dtype=complex)
    np.add.at(merged, inv.ravel(), coeffs)
    return keys, merged


def _bin_centers(n_theta: int) -> np.ndarray:
    return (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)


def bin_states(state: ModeSuperposition, n_theta: int, r_max: float | None = None,
               average_over_bins: bool = True) -> np.ndarray:
    """Unnormalized density matrix of each angular bin, in the HV basis.

    Entry (a, b) integrates psi(x) psi(x)^dagger over theta_s in bin a,
    theta_i in bin b and both radii within ``r_max`` (all space when None),
    shape (n_theta, n_theta, 4, 4).  Term pair (k, l) contributes
    v_k v_l^dagger R^s_kl R^i_kl T^s_kl T^i_kl: v_k the term's polarization
    sector in the HV basis times its amplitude, R the radial overlaps and T
    the azimuthal bin integrals.  Without ``average_over_bins`` T is
    exp(i dl theta) at the bin centres, so entry (a, b) is the radially
    integrated density there.
    """
    edges = np.linspace(0.0, 2.0 * math.pi, n_theta + 1)
    factors = []
    ell = np.array([(t.ell_s, t.ell_i) for t in state.terms]).T
    for ells, waist in zip(ell, (state.waist_s, state.waist_i)):
        if r_max is None:
            radial = radial_overlap(ells[:, None], ells[None, :])
        else:
            # [0, r_max] in Gauss-Legendre pieces at most a waist wide; the
            # modes vanish beyond 12 waists
            top = min(r_max, 12.0 * waist)
            pieces = np.linspace(0.0, top, int(np.ceil(top / waist)) + 1)
            radial = radial_bin_overlaps(ells, waist, pieces).sum(axis=2)
        dl = ells[:, None] - ells[None, :]
        if average_over_bins:
            angular = azimuthal_bin_integrals(dl, edges)
        else:
            angular = np.exp(1j * dl[..., None] * _bin_centers(n_theta))
        factors.append(radial[..., None] * angular)
    grid = (factors[0][..., :, None] * factors[1][..., None, :]).reshape(-1, n_theta ** 2)
    v = CIRC_TO_LIN.T[[t.sector for t in state.terms]] * np.array([[t.amp] for t in state.terms])
    pols = (v[:, None, :, None] * v.conj()[None, :, None, :]).reshape(-1, 16)
    return (grid.T @ pols).reshape(n_theta, n_theta, 4, 4)


def bell_probability_map(state: ModeSuperposition, n_theta: int,
                         average_over_bins: bool = False):
    """Radially integrated Bell probabilities on an n_theta x n_theta angular grid.

    Entry (a, b) of each returned matrix is the Bell diagonal of the
    :func:`bin_states` matrix of bin (a, b), divided by its trace (a
    conditional Bell-probability map, directly comparable to per-bin
    tomography output).  By default the density is sampled at the bin-centre
    angles (theta_a, theta_b); with ``average_over_bins`` it is integrated
    exactly over each square bin.

    Returns
    -------
    maps : dict  label -> (n_theta, n_theta) float array
    theta_centers : ndarray of the bin-center angles
    """
    if n_theta < 4:
        raise ValueError("need at least 4 angular bins")
    bell = np.array([BELL_STATES[b] for b in BELL_LABELS])
    rho = bin_states(state, n_theta, None, average_over_bins).reshape(n_theta, n_theta, 16)
    # <B|rho|B> = sum_ij conj(B_i) rho_ij B_j
    mass = (rho @ (bell.conj()[:, :, None] * bell[:, None, :]).reshape(4, 16).T).real
    total = mass.sum(axis=-1)
    if np.any(total <= 0):
        raise ValueError("state has vanishing angular marginal; cannot normalize")
    return ({name: mass[..., k] / total for k, name in enumerate(BELL_LABELS)},
            _bin_centers(n_theta))


def torus_coordinates(maps: dict, theta_centers: np.ndarray) -> np.ndarray:
    """Map the angular grid onto a torus (ring radius 2, tube radius 1) for
    3D rendering of the Bell maps.

    Returns a record-like float array with one row per (theta_s, theta_i)
    grid point: theta_s, theta_i, x, y, z, then the four Bell probabilities.
    """
    ts, ti = np.meshgrid(theta_centers, theta_centers, indexing="ij")
    x = (2.0 + np.cos(ti)) * np.cos(ts)
    y = (2.0 + np.cos(ti)) * np.sin(ts)
    z = np.sin(ti)
    cols = [ts.ravel(), ti.ravel(), x.ravel(), y.ravel(), z.ravel()]
    cols += [maps[name].ravel() for name in BELL_LABELS]
    return np.column_stack(cols)
