"""Synthetic time-tagged camera event streams for each measurement setting.

Event file format (little-endian, 16-byte header + packed 16-byte records):

    header:  magic "EVB1" (4 bytes) | version u16 = 1 | reserved u16 | count u64
    record:  x u16 | y u16 | t u64 (ns) | tot u16 | reserved u16

Each run simulates a fixed number of source pairs per setting at a common
source flux.  A pair passes the setting's analyzer pair with its physical
probability (computed analytically from the state), so the relative rates
between the 16 settings carry the tomographic information; transverse
positions of passing pairs are drawn from the normalized conditional
density in two exact stages: both radii once, from the radial marginal of
the density's diagonal part P (gamma laws in r^2), then uniform angles,
redrawn until accepted at ratio (1 + X/P) / envelope.  This is exact because,
once equal modes are merged, the interference terms X integrate to zero over
the angles.  One sort of unique time-above-index keys orders records.  The
tot field is written as 0, and no stage reads it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .errors import ConfigurationError, FormatError, SamplingError
from .lgmodes import radial_amplitudes
from .qplate_state import ModeSuperposition, QPlateParams, evb_state, merge_modes, term_projections
from .polarimetry import (
    MeasurementSetting,
    pass_probability,
    setting_from_label,
    standard_set,
)

MAGIC = b"EVB1"
FORMAT_VERSION = 1
HEADER_DTYPE = np.dtype(
    [("magic", "S4"), ("version", "<u2"), ("reserved", "<u2"), ("count", "<u8")]
)
EVENT_DTYPE = np.dtype(
    [("x", "<u2"), ("y", "<u2"), ("t", "<u8"), ("tot", "<u2"), ("reserved", "<u2")]
)

MAX_ATTEMPT_FACTOR = 10_000  # rejection budget per requested sample


# ---------------------------------------------------------------------------
# Geometry and noise

@dataclass(frozen=True)
class Rect:
    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rect must have positive size")

    def contains(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        return ((x >= self.x0) & (x < self.x0 + self.width)
                & (y >= self.y0) & (y < self.y0 + self.height))

    def center(self) -> tuple[float, float]:
        return (self.x0 + (self.width - 1) / 2.0, self.y0 + (self.height - 1) / 2.0)

    def overlaps(self, other: "Rect") -> bool:
        return not (self.x0 + self.width <= other.x0 or other.x0 + other.width <= self.x0
                    or self.y0 + self.height <= other.y0 or other.y0 + other.height <= self.y0)


@dataclass(frozen=True)
class CameraGeometry:
    """Sensor size, the two beam ROIs and the beam waist.  The generator
    centres each beam on its ROI."""

    width: int = 128
    height: int = 64
    roi_signal: Rect = Rect(10, 10, 40, 40)
    roi_idler: Rect = Rect(78, 10, 40, 40)
    waist_px: float = 10.0

    def __post_init__(self):
        for roi in (self.roi_signal, self.roi_idler):
            if (roi.x0 < 0 or roi.y0 < 0 or roi.x0 + roi.width > self.width
                    or roi.y0 + roi.height > self.height):
                raise ValueError("ROI extends beyond the camera")
        if self.roi_signal.overlaps(self.roi_idler):
            raise ValueError("signal and idler ROIs must be disjoint")
        if not self.waist_px > 0:
            raise ValueError("waist must be positive")

    @property
    def centroid_s(self) -> tuple[float, float]:
        return self.roi_signal.center()

    @property
    def centroid_i(self) -> tuple[float, float]:
        return self.roi_idler.center()

    def to_dict(self) -> dict:
        """Fields as JSON-ready values, each ROI as [x0, y0, width, height]."""
        return {**asdict(self), "roi_signal": astuple(self.roi_signal),
                "roi_idler": astuple(self.roi_idler)}

    @classmethod
    def from_dict(cls, d: dict) -> "CameraGeometry":
        return cls(width=d["width"], height=d["height"],
                   roi_signal=Rect(*d["roi_signal"]), roi_idler=Rect(*d["roi_idler"]),
                   waist_px=d["waist_px"])


@dataclass(frozen=True)
class NoiseModel:
    """Detection efficiency, dark counts, timing jitter, polarization noise.

    ``werner_p`` mixes the pure two-photon polarization state with white
    polarization noise: with probability 1 - werner_p a pair carries a
    maximally mixed polarization state (passing any analyzer pair with
    probability 1/4) over the same spatial profile.
    """

    efficiency: float = 1.0
    dark_rate: float = 0.0       # events / s / pixel
    jitter_sigma: float = 1.0    # ns
    werner_p: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError(f"dark rate must be finite and nonnegative, got {self.dark_rate}")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise ValueError(f"jitter must be finite and nonnegative, got {self.jitter_sigma}")
        if not 0.0 <= self.werner_p <= 1.0:
            raise ValueError("werner_p must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return cls(**d)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to (re)generate one 16-setting run."""

    geometry: CameraGeometry
    settings: dict  # label -> event filename, insertion-ordered
    pair_rate: float  # source pairs / s
    duration: float   # s
    noise: NoiseModel
    rng_seed: int
    qplate_s: QPlateParams
    qplate_i: QPlateParams

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        # event times are uint64 ns on disk and int64 ns in matching, whose
        # window arithmetic stays exact below 2**62 ns
        span = self.duration * 1e9 + 10 * self.noise.jitter_sigma
        if not span < 2**62:
            raise ValueError(f"run span {span:.3g} ns (duration {self.duration:g} s plus 10 "
                             f"jitter widths of {self.noise.jitter_sigma:g} ns) reaches 2**62 ns")
        if not self.pair_rate >= 0:
            raise ValueError("pair rate must be nonnegative")
        if not self.rng_seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.rng_seed}")
        names = list(self.settings.values())
        if len(set(names)) != len(names):
            raise ValueError("event filenames must be distinct")

    @property
    def n_source_pairs(self) -> int:
        return int(round(self.pair_rate * self.duration))

    def to_json(self) -> str:
        d = {
            "geometry": self.geometry.to_dict(),
            "settings": dict(self.settings),
            "pair_rate": self.pair_rate,
            "duration": self.duration,
            "noise": self.noise.to_dict(),
            "rng_seed": self.rng_seed,
            "qplate_s": asdict(self.qplate_s),
            "qplate_i": asdict(self.qplate_i),
        }
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(geometry=CameraGeometry.from_dict(d["geometry"]), settings=dict(d["settings"]),
                   pair_rate=d["pair_rate"], duration=d["duration"],
                   noise=NoiseModel.from_dict(d["noise"]), rng_seed=d["rng_seed"],
                   qplate_s=QPlateParams(**d["qplate_s"]), qplate_i=QPlateParams(**d["qplate_i"]))


def default_manifest(qplate_s: QPlateParams, qplate_i: QPlateParams,
                     n_pairs: int = 100_000, pair_rate: float = 10_000.0,
                     noise: NoiseModel | None = None, rng_seed: int = 0,
                     geometry: CameraGeometry | None = None) -> RunManifest:
    """Manifest over the standard tomography set with one file per setting."""
    if not 0 < pair_rate < math.inf:
        raise ValueError("pair rate must be positive and finite")
    if not 0 < n_pairs < math.inf:
        raise ValueError("pairs must be positive and finite")
    labels = standard_set().labels
    geometry = geometry or CameraGeometry(waist_px=qplate_s.waist)
    return RunManifest(
        geometry=geometry,
        settings={lab: f"events_{lab}.evb" for lab in labels},
        pair_rate=pair_rate,
        duration=n_pairs / pair_rate,
        noise=noise or NoiseModel(),
        rng_seed=rng_seed,
        qplate_s=qplate_s,
        qplate_i=qplate_i,
    )


# ---------------------------------------------------------------------------
# Binary event IO

def write_events(path, events: np.ndarray) -> None:
    events = np.asarray(events, dtype=EVENT_DTYPE)
    header = np.zeros(1, dtype=HEADER_DTYPE)
    header["magic"] = MAGIC
    header["version"] = FORMAT_VERSION
    header["count"] = len(events)
    with open(path, "wb") as fh:
        header.tofile(fh)
        events.tofile(fh)


def read_events(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_DTYPE.itemsize)
        if len(raw) < HEADER_DTYPE.itemsize:
            raise FormatError(f"{path}: truncated header")
        header = np.frombuffer(raw, dtype=HEADER_DTYPE)[0]
        if header["magic"] != MAGIC:
            raise FormatError(
                f"{path}: bad magic {bytes(header['magic'])!r}, expected {MAGIC.decode()} "
            )
        if header["version"] != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {header['version']}")
        count = int(header["count"])
        size = os.fstat(fh.fileno()).st_size
        if size != HEADER_DTYPE.itemsize + EVENT_DTYPE.itemsize * count:
            raise FormatError(f"{path}: header promises {count} records, "
                              f"but the file holds {size} bytes")
        return np.fromfile(fh, dtype=EVENT_DTYPE, count=count)


# ---------------------------------------------------------------------------
# Position sampling

class PairPositionSampler:
    """Exact two-stage sampler for two-photon transverse positions.

    The target density is sum over coherence groups g of
    |sum_{k in g} c_k phi_k(x)|^2 * r_s * r_i, with phi_k the product of the
    two normalized transverse modes of term k, of radial part R_k.  Equal
    modes of one group are merged, so the interference part X = 2 sum_{k<l}
    |c_k c_l| R_k R_l cos(dl_s theta_s + dl_i theta_i + arg c_k c_l*), over
    pairs of one group, has dl != (0, 0) and integrates to zero over the
    angles: the radial marginal is exactly that of P = sum_k |c_k|^2 R_k^2.
    Radii come from a radial class (|l_s|, |l_i|) drawn with its weight and
    gamma laws in r^2; then uniform angles are accepted with probability
    (1 + X/P) / envelope, at most 1 by Cauchy-Schwarz (the envelope is the
    largest group size) and of mean exactly 1/envelope at every radius.
    """

    def __init__(self, coeffs, ell_s, ell_i, groups, waist_s, waist_i):
        coeffs = np.asarray(coeffs, dtype=complex)
        keep = np.abs(coeffs) ** 2 > 1e-30
        if not keep.any():
            raise ValueError("sampler needs at least one nonzero component")
        # equal modes of one group add coherently, and may cancel exactly
        keys, merged = merge_modes(coeffs[keep], np.column_stack([groups, ell_s, ell_i])[keep])
        weights = np.abs(merged) ** 2
        if weights.sum() < 1e-28:
            raise ValueError("density is identically zero for this projection")
        nz = weights > 1e-30
        keys, self.coeffs, self.weights = keys[nz], merged[nz], weights[nz]
        self.groups, self.ell_s, self.ell_i = keys.T
        self.waist_s, self.waist_i = waist_s, waist_i
        self.envelope = int(np.unique(self.groups, return_counts=True)[1].max())
        self.angle_draws = 0  # angle pairs drawn by sample, accepted or not
        # radial classes with their probabilities; radial rows per distinct |l| and arm
        self._classes, cls = np.unique(np.abs(keys[:, 1:]), axis=0, return_inverse=True)
        self._class_p = np.bincount(cls.ravel(), self.weights) / self.weights.sum()
        self._abs_s, self._row_s = np.unique(np.abs(self.ell_s), return_inverse=True)
        self._abs_i, self._row_i = np.unique(np.abs(self.ell_i), return_inverse=True)
        # k < l of one group as (k, l, dl_s, dl_i, arg c_k c_l*)
        k, l = np.triu_indices(len(self.coeffs), 1)
        same = self.groups[k] == self.groups[l]
        k, l = k[same], l[same]
        self._pairs = list(zip(k, l, self.ell_s[k] - self.ell_s[l], self.ell_i[k] - self.ell_i[l],
                               np.angle(self.coeffs[k] * self.coeffs[l].conj())))

    def _amplitudes(self, r_s, r_i):
        """|c_k| R_k / sqrt(P) per term (rows) at the radii, so that pair (k, l)
        has visibility 2 a_k a_l; one constant column |c_k| / sqrt(W) when all
        terms share a radial class, and zero where P vanishes."""
        a = np.abs(self.coeffs)[:, None]
        if len(self._classes) == 1:
            return a / math.sqrt(self.weights.sum())
        a = a * (radial_amplitudes(self._abs_s, self.waist_s, r_s)[self._row_s]
                 * radial_amplitudes(self._abs_i, self.waist_i, r_i)[self._row_i])
        norm = np.sqrt((a * a).sum(axis=0))
        return np.divide(a, norm, out=np.zeros_like(a), where=norm > 0)

    def _angle_ratio(self, a, th_s, th_i):
        """(1 + X/P) / envelope, the target over envelope times proposal, from the
        amplitudes ``a`` of ``_amplitudes``; 1/envelope where P = 0, never drawn."""
        x = np.ones(np.shape(th_s))
        for k, l, dl_s, dl_i, phase in self._pairs:
            x += 2.0 * a[k] * a[l] * np.cos(dl_s * th_s + dl_i * th_i + phase)
        return x / self.envelope

    def _radii(self, n: int, rng):
        """n radius pairs from the radial marginal: a class, then on each arm
        Gamma(|l| + 1) in 2 r^2 / w^2, exactly minus the log of a product of
        |l| + 1 uniforms on (0, 1]."""
        cls = rng.choice(len(self._class_p), n, p=self._class_p) if len(self._class_p) > 1 else None
        r = np.empty((2, n))
        for c, abs_ells in enumerate(self._classes):
            sel = slice(None) if cls is None else cls == c
            m = n if cls is None else int(np.count_nonzero(sel))
            for arm, a, w in zip(r, abs_ells, (self.waist_s, self.waist_i)):
                u = 1.0 - rng.random(m)
                for _ in range(a):
                    u *= 1.0 - rng.random(m)
                arm[sel] = np.sqrt(-np.log(u) * (w * w / 2.0))
        return r

    def sample(self, n: int, rng: np.random.Generator):
        """Draw n positions (r_s, theta_s, r_i, theta_i): radii once, then
        angles redrawn for the pending samples until accepted."""
        r_s, r_i = self._radii(n, rng)
        a = self._amplitudes(r_s, r_i) if self._pairs else None
        th = np.empty((2, n))
        pending, draws, budget = np.arange(n), 0, MAX_ATTEMPT_FACTOR * n
        while len(pending):
            m = len(pending)
            if draws + m > budget:
                raise SamplingError(f"rejection sampling exhausted {budget} attempts "
                                    f"({n - m}/{n} accepted)")
            draws += m
            t = rng.random((2, m)) * (2.0 * math.pi)
            if a is None:  # no interference pair: the first draw is accepted
                th = t
                break
            rows = a if a.shape[1] == 1 else a[:, pending]
            ok = rng.random(m) < self._angle_ratio(rows, t[0], t[1])
            th[:, pending[ok]] = t[:, ok]
            pending = pending[~ok]
        self.angle_draws += draws
        return r_s, th[0], r_i, th[1]


def projected_sampler(state: ModeSuperposition, setting: MeasurementSetting) -> PairPositionSampler:
    """Sampler for the conditional position density given both analyzers pass."""
    coeffs = term_projections(state, setting.ket)
    ells_s = [t.ell_s for t in state.terms]
    ells_i = [t.ell_i for t in state.terms]
    return PairPositionSampler(coeffs, ells_s, ells_i, [0] * len(coeffs),
                               state.waist_s, state.waist_i)


def intensity_sampler(state: ModeSuperposition) -> PairPositionSampler:
    """Sampler for the unconditioned two-photon intensity profile."""
    coeffs = [t.amp for t in state.terms]
    groups = [t.sector for t in state.terms]
    return PairPositionSampler(coeffs, [t.ell_s for t in state.terms],
                               [t.ell_i for t in state.terms], groups,
                               state.waist_s, state.waist_i)


# ---------------------------------------------------------------------------
# Event assembly

def _pixels(r, theta, centroid):
    x = np.rint(centroid[0] + r * np.cos(theta)).astype(np.int64)
    y = np.rint(centroid[1] + r * np.sin(theta)).astype(np.int64)
    return x, y


def _detect_photons(r, theta, centroid, t_true, noise: NoiseModel,
                    geometry: CameraGeometry, rng):
    """Efficiency thinning, jitter, pixel mapping for one arm; returns the
    (x, y, t) columns of its records."""
    n = len(r)
    keep = rng.random(n) < noise.efficiency
    t = np.asarray(t_true, dtype=float)
    if noise.jitter_sigma > 0:
        t = t + rng.normal(0.0, noise.jitter_sigma, size=n)
    x, y = _pixels(r, theta, centroid)
    keep &= (x >= 0) & (x < geometry.width) & (y >= 0) & (y < geometry.height)
    return (x[keep].astype(np.uint16), y[keep].astype(np.uint16),
            np.maximum(np.rint(t[keep]), 0.0).astype(np.uint64))


def _dark_events(noise: NoiseModel, geometry: CameraGeometry, duration_s: float, rng):
    """Uniform dark counts over the sensor and the run, as (x, y, t) columns."""
    mean = noise.dark_rate * duration_s * geometry.width * geometry.height
    n = int(rng.poisson(mean)) if mean > 0 else 0
    return (rng.integers(0, geometry.width, size=n).astype(np.uint16),
            rng.integers(0, geometry.height, size=n).astype(np.uint16),
            rng.uniform(0.0, duration_s * 1e9, size=n).astype(np.uint64))


def _time_order(t: np.ndarray) -> np.ndarray:
    """The stable time order of uint64 times, from one sort of unique keys:
    each time shifted above b = n.bit_length() bits that hold its index.
    Times of 2**(64 - b) or more leave no room, and take a stable argsort."""
    b = len(t).bit_length()
    if len(t) and int(t.max()) >> (64 - b):
        return np.argsort(t, kind="stable")
    keys = np.sort(t << np.uint64(b) | np.arange(len(t), dtype=np.uint64))
    return (keys & np.uint64((1 << b) - 1)).astype(np.intp)


def generate_setting_events(state, setting: MeasurementSetting,
                            manifest: RunManifest, rng) -> tuple[np.ndarray, dict]:
    """All events of one setting run: pair detections plus dark counts.

    Returns the time-sorted record array and per-setting statistics.
    """
    noise = manifest.noise
    geometry = manifest.geometry
    duration_ns = manifest.duration * 1e9
    n_source = manifest.n_source_pairs

    n_entangled = int(rng.binomial(n_source, noise.werner_p)) if n_source else 0
    n_white = n_source - n_entangled

    p_pass = pass_probability(state, setting)
    n_pairs_ent = int(rng.binomial(n_entangled, min(p_pass, 1.0))) if n_entangled else 0
    n_pairs_white = int(rng.binomial(n_white, 0.25)) if n_white else 0

    chunks = []
    if n_pairs_ent > 0:
        chunks.append((projected_sampler(state, setting), n_pairs_ent))
    if n_pairs_white > 0:
        chunks.append((intensity_sampler(state), n_pairs_white))

    cols = []
    for sampler, n in chunks:
        r_s, th_s, r_i, th_i = sampler.sample(n, rng)
        t_true = rng.uniform(0.0, duration_ns, size=n)
        cols.append(_detect_photons(r_s, th_s, geometry.centroid_s, t_true,
                                    noise, geometry, rng))
        cols.append(_detect_photons(r_i, th_i, geometry.centroid_i, t_true,
                                    noise, geometry, rng))
    cols.append(_dark_events(noise, geometry, manifest.duration, rng))

    # join and time-order plain columns; the structured records are built once
    cols = [np.concatenate(c) for c in zip(*cols)]
    order = _time_order(cols[2])
    events = np.zeros(len(order), dtype=EVENT_DTYPE)
    for name, col in zip(("x", "y", "t"), cols):
        events[name] = col[order]
    stats = {
        "setting": setting.label,
        "source_pairs": n_source,
        "entangled_branch": n_entangled,
        "white_branch": n_white,
        "passed_entangled": n_pairs_ent,
        "passed_white": n_pairs_white,
        "pass_probability": p_pass,
        "angle_draws": sum(sampler.angle_draws for sampler, _ in chunks),
        "events": int(len(events)),
    }
    return events, stats


def worker_count() -> int:
    """Worker threads for per-setting work (event synthesis here, matching
    and binning in the CLI's ``coincide``): the core count, capped by
    EVBLAB_THREADS."""
    n = os.cpu_count() or 1
    cap = os.environ.get("EVBLAB_THREADS", str(n))
    try:
        return min(n, max(1, int(cap)))
    except ValueError:
        raise ConfigurationError(f"EVBLAB_THREADS must be an integer, got {cap!r}") from None


def generate_run(manifest: RunManifest, out_dir) -> list[dict]:
    """Write one event file per setting plus ``manifest.json``.

    Settings run on as many threads as there are cores, capped by
    EVBLAB_THREADS.  Deterministic for a given manifest seed: each setting
    gets an independent child RNG, so outputs do not depend on scheduling
    order or worker count.  Returns per-setting statistics.
    """
    from concurrent.futures import ThreadPoolExecutor
    from pathlib import Path

    workers = worker_count()
    state = evb_state(manifest.qplate_s, manifest.qplate_i)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = list(manifest.settings)
    children = np.random.SeedSequence(manifest.rng_seed).spawn(len(labels))

    def job(k: int) -> dict:
        label = labels[k]
        rng = np.random.default_rng(children[k])
        events, stats = generate_setting_events(
            state, setting_from_label(label), manifest, rng
        )
        write_events(out_dir / manifest.settings[label], events)
        return stats

    with ThreadPoolExecutor(max_workers=workers) as pool:
        stats = list(pool.map(job, range(len(labels))))

    (out_dir / "manifest.json").write_text(manifest.to_json())
    return stats
