"""Two-photon polarization measurement settings and their analytic statistics.

A measurement setting is a pair of polarization projectors, one per arm.
The canonical tomography set is the 16-element product of signal analyzers
{H, V, A, R} with idler analyzers {H, V, A, L}, in row-major order; any
other tomographically complete 16-setting product can be supplied by label.

The analytic side turns a mode superposition plus a setting into pass
probabilities and bin-integrated expected histograms, serving as ground
truth for the Monte-Carlo event pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coincidence import CoincidenceHistogram, PolarBinning
from .lgmodes import azimuthal_bin_integrals, radial_bin_overlaps
from .qplate_state import (
    JONES,
    ModeSuperposition,
    bin_mass,
    merge_modes,
    term_projections,
)

SIGNAL_ANALYZERS = ("H", "V", "A", "R")
IDLER_ANALYZERS = ("H", "V", "A", "L")

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# (16, 4, 4) two-qubit product-Pauli basis, signal factor major
PAULI_PRODUCTS = np.array([np.kron(a, b) for a in PAULIS for b in PAULIS])


@dataclass(frozen=True)
class MeasurementSetting:
    """One polarization projector pair, e.g. label "AR"."""

    label: str
    proj_s: np.ndarray
    proj_i: np.ndarray

    def __post_init__(self):
        if len(self.label) != 2 or any(c not in JONES for c in self.label):
            raise ValueError(f"bad setting label {self.label!r}")
        for p in (self.proj_s, self.proj_i):
            if abs(np.vdot(p, p).real - 1.0) > 1e-12:
                raise ValueError("projector Jones vectors must be unit norm")


@dataclass(frozen=True)
class TomographySet:
    """An ordered, tomographically complete list of 16 settings.

    The projector kets and the design matrix are computed once, at
    construction, and returned read-only.
    """

    settings: tuple[MeasurementSetting, ...]
    _kets: np.ndarray = field(init=False, repr=False, compare=False)
    _design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.settings) != 16:
            raise ValueError(f"need 16 settings, got {len(self.settings)}")
        kets = np.array([np.kron(s.proj_s, s.proj_i) for s in self.settings])
        design = np.einsum("ki,gij,kj->kg", kets.conj(), PAULI_PRODUCTS, kets).real
        kets.flags.writeable = False
        design.flags.writeable = False
        object.__setattr__(self, "_kets", kets)
        object.__setattr__(self, "_design", design)
        cond = self.design_condition_number()
        if not np.isfinite(cond) or cond > 1e9:
            raise ValueError("settings are not tomographically complete")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)

    def projector_vectors(self) -> np.ndarray:
        """(16, 4) array of the product projector kets in the HV basis."""
        return self._kets

    def design_matrix(self) -> np.ndarray:
        """Real (16, 16) matrix mapping product-Pauli coordinates of rho to
        the 16 projection probabilities."""
        return self._design

    def design_condition_number(self) -> float:
        return float(np.linalg.cond(self._design))


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
    labels = list(labels)
    if len(labels) != 16:
        raise ValueError("need exactly 16 setting labels")
    return TomographySet(tuple(setting_from_label(l) for l in labels))


# ---------------------------------------------------------------------------
# Analytic statistics

def _projected_coefficients(state: ModeSuperposition, setting: MeasurementSetting):
    """Per-term complex coefficient after projecting both polarizations."""
    return term_projections(state, np.kron(setting.proj_s, setting.proj_i))


def expected_histogram(state: ModeSuperposition, setting: MeasurementSetting,
                       binning: PolarBinning, n_pairs: float) -> CoincidenceHistogram:
    """Bin-integrated expected coincidence counts for ``n_pairs`` source pairs.

    Entries are the exact integrals of the coincidence density over the polar
    bins, scaled by n_pairs; summing a complete projector set over all space
    recovers n_pairs. Counts are floats (expectations, not samples).
    """
    coeffs = _projected_coefficients(state, setting)
    ell_s = np.array([t.ell_s for t in state.terms])
    ell_i = np.array([t.ell_i for t in state.terms])
    Rs = radial_bin_overlaps(ell_s, state.waist_s, binning.r_edges())
    Ri = radial_bin_overlaps(ell_i, state.waist_i, binning.r_edges())
    Ts = azimuthal_bin_integrals(ell_s[:, None] - ell_s[None, :], binning.theta_edges())
    Ti = azimuthal_bin_integrals(ell_i[:, None] - ell_i[None, :], binning.theta_edges())

    def total(f):
        return f.sum(axis=2, keepdims=True)

    counts_theta = n_pairs * bin_mass(coeffs, total(Rs), Ts, total(Ri), Ti)[0, :, 0, :]
    counts_r = n_pairs * bin_mass(coeffs, Rs, total(Ts), Ri, total(Ti))[:, 0, :, 0]
    counts_full = None
    if binning.store_full:
        n = binning.n_r * binning.n_theta
        counts_full = (n_pairs * bin_mass(coeffs, Rs, Ts, Ri, Ti)).reshape(n, n)

    return CoincidenceHistogram(
        setting=setting.label,
        binning=binning,
        counts_theta=counts_theta,
        counts_r=counts_r,
        counts_full=counts_full,
        total_pairs=float(counts_theta.sum()),
        total_singles=0,
        dropped_by_radius=0,
        skipped_outside_roi=0,
        total_events=0,
    )


def pass_probability(state: ModeSuperposition, setting: MeasurementSetting) -> float:
    """Probability that a pair in ``state`` passes both analyzers (all space).

    Uses orthonormality of the spatial modes: terms sharing (ell_s, ell_i)
    interfere, distinct ones add incoherently.
    """
    _, merged = merge_modes(_projected_coefficients(state, setting),
                            [(t.ell_s, t.ell_i) for t in state.terms])
    return float(np.sum(np.abs(merged) ** 2))
