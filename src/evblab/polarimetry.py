"""Two-photon polarization measurement settings and their analytic statistics.

A measurement setting is a pair of polarization projectors, one per arm.
The canonical tomography set is the 16-element product of signal analyzers
{H, V, A, R} with idler analyzers {H, V, A, L}, in row-major order; any
other tomographically complete 16-setting product can be supplied by label.
A set is represented by real maps built from its projector kets: a matrix
to its 16 probabilities, 16 weights to the weighted sum of the projectors,
and the pseudo-inverse of the first, which is linear inversion.

The analytic side turns a mode superposition plus a setting into pass
probabilities and bin-integrated expected histograms, serving as ground
truth for the Monte-Carlo event pipeline.  An expected histogram is the
setting's projection of the :func:`qplate_state.bin_states` matrices within
r_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coincidence import CoincidenceHistogram, PolarBinning
from .qplate_state import JONES, ModeSuperposition, bin_states, merge_modes, term_projections

SIGNAL_ANALYZERS = ("H", "V", "A", "R")
IDLER_ANALYZERS = ("H", "V", "A", "L")


@dataclass(frozen=True)
class MeasurementSetting:
    """One polarization projector pair, e.g. label "AR", with product ket ``ket``."""

    label: str
    proj_s: np.ndarray
    proj_i: np.ndarray

    def __post_init__(self):
        if len(self.label) != 2 or any(c not in JONES for c in self.label):
            raise ValueError(f"bad setting label {self.label!r}")
        for p in (self.proj_s, self.proj_i):
            if abs(np.vdot(p, p).real - 1.0) > 1e-12:
                raise ValueError("projector Jones vectors must be unit norm")

    @property
    def ket(self) -> np.ndarray:
        return np.kron(self.proj_s, self.proj_i)


@dataclass(frozen=True)
class TomographySet:
    """An ordered, tomographically complete list of 16 settings.

    The product projector kets and three real maps built from them are
    computed once, at construction, and are read-only.  They are the one
    representation of the measurement: a 4x4 matrix enters them as its 32
    interleaved (Re, Im) floats, row-major.
    """

    settings: tuple[MeasurementSetting, ...]
    # (16, 4): the product projector kets v_k in the HV basis, P_k = v_k v_k^dagger
    kets: np.ndarray = field(init=False, repr=False, compare=False)
    # (32, 16): a matrix m to the 16 values Re tr(P_k m)
    probability_map: np.ndarray = field(init=False, repr=False, compare=False)
    # (16, 32): 16 weights w_k to sum_k w_k P_k
    projector_map: np.ndarray = field(init=False, repr=False, compare=False)
    # (16, 32): 16 probabilities to the one Hermitian matrix that reproduces
    # them, the pseudo-inverse of probability_map (linear inversion)
    inversion_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.settings) != 16:
            raise ValueError(f"need 16 settings, got {len(self.settings)}")
        kets = np.array([s.ket for s in self.settings])
        # row k: the interleaved (Re, Im) of P_k; since tr(P_k m) =
        # sum_ij conj(P_k)_ij m_ij, the same numbers map a matrix to
        # Re tr(P_k m) when transposed
        projectors = (kets[:, :, None] * kets[:, None, :].conj()).reshape(16, 16).view(float)
        # cond of the projectors equals that of the Pauli design matrix
        # tr(P_k sigma_g), as the product Paulis / 2 are orthonormal
        cond = np.linalg.cond(projectors)
        if not np.isfinite(cond) or cond > 1e9:
            raise ValueError("settings are not tomographically complete")
        probability_map = np.ascontiguousarray(projectors.T)
        # rho = sum_k c_k P_k with sum_k tr(P_j P_k) c_k = p_j has tr(P_j rho) = p_j
        inversion_map = np.linalg.solve(projectors @ probability_map, projectors)
        arrays = {"kets": kets, "probability_map": probability_map,
                  "projector_map": projectors, "inversion_map": inversion_map}
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)


def setting_from_label(label: str) -> MeasurementSetting:
    if len(label) != 2 or any(c not in JONES for c in label):
        raise ValueError(f"bad setting label {label!r}")
    return MeasurementSetting(label, JONES[label[0]].copy(), JONES[label[1]].copy())


def standard_set() -> TomographySet:
    """The canonical {H,V,A,R} x {H,V,A,L} product set, row-major."""
    return TomographySet(
        tuple(
            setting_from_label(a + b)
            for a in SIGNAL_ANALYZERS
            for b in IDLER_ANALYZERS
        )
    )


def set_from_labels(labels) -> TomographySet:
    """Build a tomography set from 16 two-character labels (validated)."""
    return TomographySet(tuple(setting_from_label(l) for l in labels))


# ---------------------------------------------------------------------------
# Analytic statistics

def expected_histogram(state: ModeSuperposition, setting: MeasurementSetting,
                       binning: PolarBinning, n_pairs: float) -> CoincidenceHistogram:
    """Bin-integrated expected coincidence counts for ``n_pairs`` source pairs.

    Entry (a, b) is n_pairs Re <ket|rho_ab|ket> for the :func:`bin_states`
    matrix rho_ab within r_max: the exact integral of the coincidence density
    over the bin.  Summing a complete projector set over all space recovers
    n_pairs.  Counts are floats (expectations, not samples).
    """
    ket, n = setting.ket, binning.n_theta
    rho = bin_states(state, n, binning.r_max).reshape(n, n, 16)
    counts_theta = n_pairs * (rho @ np.outer(ket.conj(), ket).ravel()).real
    return CoincidenceHistogram(
        setting=setting.label,
        binning=binning,
        counts_theta=counts_theta,
        total_pairs=float(counts_theta.sum()),
    )


def pass_probability(state: ModeSuperposition, setting: MeasurementSetting) -> float:
    """Probability that a pair in ``state`` passes both analyzers (all space).

    Uses orthonormality of the spatial modes: terms sharing (ell_s, ell_i)
    interfere, distinct ones add incoherently.
    """
    _, merged = merge_modes(term_projections(state, setting.ket),
                            [(t.ell_s, t.ell_i) for t in state.terms])
    return float(np.sum(np.abs(merged) ** 2))
