"""evblab: simulation and spatially resolved entanglement analysis of
two-photon vector beams.

Pipeline: build the two-photon state produced by one birefringent plate per
arm (:mod:`qplate_state`), predict its Bell decomposition analytically,
synthesize time-tagged detection streams for the 16 polarization settings
(:mod:`eventsim`), recover coincidences and polar histograms
(:mod:`coincidence`), and reconstruct per-bin density matrices with
entanglement metrics (:mod:`tomography`).  :mod:`cli` orchestrates the
whole chain.
"""

from .qplate_state import (
    ModeSuperposition,
    ModeTerm,
    QPlateParams,
    bell_probabilities,
    bell_probability_map,
    bin_states,
    evb_state,
    local_spinor,
)
from .polarimetry import (
    MeasurementSetting,
    TomographySet,
    expected_histogram,
    standard_set,
)
from .eventsim import (
    CameraGeometry,
    NoiseModel,
    Rect,
    RunManifest,
    generate_run,
    read_events,
    write_events,
)
from .coincidence import (
    CoincidenceConfig,
    CoincidenceHistogram,
    PixelPairHistogram,
    PolarBinning,
    accidental_estimate,
    bin_polar,
    find_coincidences,
)
from .tomography import (
    angular_tomography,
    bell_decomposition,
    concurrence,
    linear_inversion,
    mle_refine,
    project_physical,
    purity,
)

__version__ = "0.1.0"
