"""Temporal coincidence finding and polar-coordinate correlation histograms.

Event streams are numpy structured arrays in the on-disk record layout (see
:mod:`evblab.eventsim`).  Each signal's candidate idlers are the index range
``[lo, hi)`` that ``searchsorted`` finds in the time-sorted idler sub-stream.
The single-match policy pairs each signal greedily with its nearest-in-time
unused idler (ties to the earlier idler), processing signals in time order;
only signals whose ranges overlap another's go through a sequential loop.
Polar binning evaluates ``(r, theta)`` once per pixel and gathers by pixel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError


@dataclass(frozen=True)
class CoincidenceConfig:
    """window: max |t_s - t_i| in ns; allow_multi_match: emit every pair in
    window instead of greedy one-to-one matching."""

    window: float = 10.0
    allow_multi_match: bool = False

    def __post_init__(self):
        if not self.window > 0:
            raise ValueError("coincidence window must be positive")


@dataclass(frozen=True)
class PolarBinning:
    """Polar histogram geometry about per-ROI centroids.

    Centroids may be left unset at construction but must be set before
    binning, to one pair shared by all settings of a run
    (:func:`pooled_centroids`).  Equal binnings share grid and centroids.
    """

    n_r: int = 5
    n_theta: int = 16
    r_max: float = 20.0
    centroid_s: tuple[float, float] | None = None
    centroid_i: tuple[float, float] | None = None

    def __post_init__(self):
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError("need at least one bin per axis")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")

    def theta_edges(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.n_theta + 1)

    def r_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_r + 1)


@dataclass
class CoincidenceHistogram:
    """Angular and radial pair-count maps of one measurement setting.

    counts_theta[theta_s, theta_i] sums over radius, counts_r[r_s, r_i] over
    angle; the one joint histogram is the pixel-pair :class:`PixelPairHistogram`.
    """

    setting: str
    binning: PolarBinning
    counts_theta: np.ndarray
    counts_r: np.ndarray
    total_pairs: int
    total_singles: int = 0
    dropped_by_radius: int = 0
    skipped_outside_roi: int = 0
    total_events: int = 0
    # the bookkeeping counts, in serialization order
    _COUNT_FIELDS = ("total_pairs", "total_singles", "dropped_by_radius",
                     "skipped_outside_roi", "total_events")

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "n_r": self.binning.n_r,
            "n_theta": self.binning.n_theta,
            "r_max": self.binning.r_max,
            "centroid_s": list(self.binning.centroid_s or ()),
            "centroid_i": list(self.binning.centroid_i or ()),
            "counts_theta": self.counts_theta.tolist(),
            "counts_r": self.counts_r.tolist(),
            **{k: int(getattr(self, k)) for k in self._COUNT_FIELDS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoincidenceHistogram":
        return cls(
            setting=d["setting"],
            binning=PolarBinning(
                n_r=d["n_r"],
                n_theta=d["n_theta"],
                r_max=d["r_max"],
                centroid_s=tuple(d["centroid_s"]) or None,
                centroid_i=tuple(d["centroid_i"]) or None,
            ),
            counts_theta=np.asarray(d["counts_theta"]),
            counts_r=np.asarray(d["counts_r"]),
            **{k: d[k] for k in cls._COUNT_FIELDS},
        )


@dataclass
class MatchResult:
    """Matched pairs (parallel signal/idler record arrays) plus bookkeeping.

    n_contended counts the signals that greedy matching resolved in its
    sequential loop, those whose window overlaps another signal's (0 for
    multi-matching).
    """

    signal: np.ndarray
    idler: np.ndarray
    n_signal_events: int
    n_idler_events: int
    skipped_outside_roi: int
    total_events: int
    n_contended: int = 0

    @property
    def n_pairs(self) -> int:
        return len(self.signal)

    @property
    def n_singles(self) -> int:
        return self.n_signal_events + self.n_idler_events - 2 * self.n_pairs


# ---------------------------------------------------------------------------
# Matching

# One setting's time-sorted records split by ROI: the int64 times and the
# record rows of the signal-ROI and of the idler-ROI events.
RoiStreams = namedtuple("RoiStreams", "events t_s t_i rows_s rows_i")


def split_rois(events: np.ndarray, geometry) -> RoiStreams:
    """Split a stream by ROI, rejecting one that is not sorted by time; the
    matching functions take the split in place of the records."""
    t = events["t"].astype(np.int64)
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise FormatError("event stream is not sorted by time")
    x, y = events["x"], events["y"]
    rows_s = np.flatnonzero(geometry.roi_signal.contains(x, y))
    rows_i = np.flatnonzero(geometry.roi_idler.contains(x, y))
    return RoiStreams(events, t[rows_s], t[rows_i], rows_s, rows_i)


def _window_bounds(ts: np.ndarray, ti: np.ndarray, window: float):
    """Per signal, the ``[lo, hi)`` range of idlers with |t_i - t_s| <= window.

    Times are int64 ns, so the bound is floor(window) in integers: exact at
    any time, and without a float copy of either stream.  The cap keeps
    t +- bound inside int64 for times below 2**62 ns (146 years).
    """
    bound = math.floor(min(window, 2**62))
    lo = np.searchsorted(ti, ts - bound, side="left")
    hi = np.searchsorted(ti, ts + bound, side="right")
    return lo, hi


def _match_multi(ts: np.ndarray, ti: np.ndarray, window: float):
    lo, hi = _window_bounds(ts, ti, window)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    sig_idx = np.repeat(np.arange(len(ts)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return sig_idx, starts + offsets, 0


def _nearest_in_window(t, ti, lo, hi):
    """Nearest idler to each time t inside its nonempty range [lo, hi),
    the earliest one on a tie."""
    best = lo.copy()
    wide = np.flatnonzero(hi - lo > 1)
    t, lo, hi = t[wide], lo[wide], hi[wide]
    p = np.searchsorted(ti, t, side="left")  # first idler at or after t
    below = np.maximum(p - 1, 0)
    above = np.minimum(p, len(ti) - 1)
    take_below = (p > lo) & ((p >= hi) | (t - ti[below] <= ti[above] - t))
    # the earliest of equal-time idlers below t (the one at p is its value's first)
    p[take_below] = np.searchsorted(ti, ti[below[take_below]], side="left")
    best[wide] = p
    return best


def _greedy_loop(ts, ti, lo, hi):
    """Signals in order, each to its nearest unused idler in [lo, hi), ties
    to the earlier idler.  Lists in, (signal, idler) index lists out."""
    used = bytearray(len(ti))
    out_s, out_i = [], []
    for k, t in enumerate(ts):
        best = -1
        best_d = 0
        for j in range(lo[k], hi[k]):
            if used[j]:
                continue
            d = abs(ti[j] - t)
            if best < 0 or d < best_d:
                best, best_d = j, d
        if best >= 0:
            used[best] = 1
            out_s.append(k)
            out_i.append(best)
    return out_s, out_i


def _match_greedy(ts: np.ndarray, ti: np.ndarray, window: float):
    """Greedy one-to-one matching, plus the number of signals it resolved in
    the sequential loop.

    Windows are monotone in signal time, so the signals with a candidate
    split into clusters where consecutive ranges overlap, and clusters share
    no idler.  A signal alone in its cluster takes its nearest idler; the
    loop runs only over multi-signal clusters and their idlers.
    """
    lo, hi = _window_bounds(ts, ti, window)
    k = np.flatnonzero(hi > lo)
    lo, hi = lo[k], hi[k]
    first = np.ones(len(k), dtype=bool)
    first[1:] = lo[1:] >= hi[:-1]
    last = np.ones(len(k), dtype=bool)
    last[:-1] = first[1:]
    alone = first & last
    match = np.full(len(ts), -1, dtype=np.int64)
    match[k[alone]] = _nearest_in_window(ts[k[alone]], ti, lo[alone], hi[alone])

    busy = ~alone
    k, lo, hi, first, last = k[busy], lo[busy], hi[busy], first[busy], last[busy]
    # The loop sees each cluster's idlers, [lo of its first signal, hi of its
    # last), laid end to end; offset maps a loop index back to the stream.
    span = hi[last] - lo[first]
    offset = lo[first] - (np.cumsum(span) - span)
    cand = np.repeat(offset, span) + np.arange(span.sum())
    offset_k = offset[np.cumsum(first) - 1]
    out_s, out_i = _greedy_loop(ts[k].tolist(), ti[cand].tolist(),
                                (lo - offset_k).tolist(), (hi - offset_k).tolist())
    match[k[np.asarray(out_s, dtype=np.int64)]] = cand[np.asarray(out_i, dtype=np.int64)]
    sig = np.flatnonzero(match >= 0)
    return sig, match[sig], len(k)


def find_coincidences(events, geometry, config: CoincidenceConfig) -> MatchResult:
    """Pair up signal-ROI and idler-ROI detections within the time window.

    ``events`` is a time-sorted record array (rejected otherwise) or its
    :func:`split_rois`.  Events outside both ROIs are counted and skipped.
    """
    s = events if isinstance(events, RoiStreams) else split_rois(events, geometry)
    match = _match_multi if config.allow_multi_match else _match_greedy
    sidx, iidx, n_contended = match(s.t_s, s.t_i, config.window)
    return MatchResult(
        signal=s.events[s.rows_s[sidx]],
        idler=s.events[s.rows_i[iidx]],
        n_signal_events=len(s.rows_s),
        n_idler_events=len(s.rows_i),
        skipped_outside_roi=len(s.events) - len(s.rows_s) - len(s.rows_i),
        total_events=len(s.events),
        n_contended=n_contended,
    )


def accidental_estimate(events, geometry, config: CoincidenceConfig,
                        offset: float) -> int:
    """Coincidence count after shifting idler times by ``offset`` ns.

    Estimates the accidental (uncorrelated) pair rate; the offset must be
    large compared to the window so no true pair survives the shift.
    ``events`` is a record array or its :func:`split_rois`.
    """
    if not offset >= 10 * config.window:
        raise ValueError("offset must be well outside the coincidence window")
    s = events if isinstance(events, RoiStreams) else split_rois(events, geometry)
    match = _match_multi if config.allow_multi_match else _match_greedy
    sidx, _, _ = match(s.t_s, s.t_i + int(round(offset)), config.window)
    return len(sidx)


# ---------------------------------------------------------------------------
# Polar binning

def pooled_centroids(event_arrays, geometry):
    """Shared ROI centroids from the detections of an entire run.

    One centroid pair must serve all 16 settings: events live on the pixel
    lattice, so bins of events sit exactly on angular bin edges, and
    per-setting centroid jitter would flip those edge pixels inconsistently
    between settings, corrupting the per-bin tomography counts.

    One ``bincount`` per array gives the run's image; records off the camera
    land in an extra row and column that no ROI covers.
    """
    w, h = geometry.width, geometry.height
    image = np.zeros((h + 1) * (w + 1), dtype=np.int64)
    for events in event_arrays:
        x = np.minimum(events["x"], w).astype(np.intp)
        y = np.minimum(events["y"], h).astype(np.intp)
        image += np.bincount(y * (w + 1) + x, minlength=len(image))
    image = image.reshape(h + 1, w + 1)
    out = []
    for roi in (geometry.roi_signal, geometry.roi_idler):
        sub = image[roi.y0:roi.y0 + roi.height, roi.x0:roi.x0 + roi.width]
        n = sub.sum()
        if n == 0:
            out.append(roi.center())
        else:
            out.append((sub.sum(axis=0) @ np.arange(roi.x0, roi.x0 + roi.width) / n,
                        sub.sum(axis=1) @ np.arange(roi.y0, roi.y0 + roi.height) / n))
    return tuple(out)


def _polar_formula(dx, dy, binning: PolarBinning):
    r = np.hypot(dx, dy)
    theta = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    tbin = np.minimum(
        (theta / (2.0 * math.pi) * binning.n_theta).astype(np.int64),
        binning.n_theta - 1,
    )
    rbin = np.minimum((r / binning.r_max * binning.n_r).astype(np.int64), binning.n_r - 1)
    return r, rbin, tbin


def _polar_bins(x, y, centroid, binning: PolarBinning):
    """(r, r-bin, theta-bin) of each photon at pixel (x, y) about the centroid.

    Photons sit on the pixel lattice, so the formula runs once per pixel of
    their bounding box, and each photon gathers its pixel's entry; where the
    box holds more pixels than there are photons, it runs on the photons.
    """
    if len(x):
        x0, y0 = int(x.min()), int(y.min())
        width = int(x.max()) - x0 + 1
        n_pixels = width * (int(y.max()) - y0 + 1)
        if n_pixels <= len(x):
            gy, gx = np.divmod(np.arange(n_pixels), width)
            table = _polar_formula((gx + x0).astype(float) - centroid[0],
                                   (gy + y0).astype(float) - centroid[1], binning)
            pixel = (y.astype(np.intp) - y0) * width + (x.astype(np.intp) - x0)
            return tuple(col[pixel] for col in table)
    return _polar_formula(x.astype(float) - centroid[0], y.astype(float) - centroid[1], binning)


def bin_polar(result: MatchResult, binning: PolarBinning, setting: str = "") -> CoincidenceHistogram:
    """Histogram matched pairs over polar coordinates about the ROI centroids.

    Pairs with either photon beyond r_max are dropped and counted.
    """
    if binning.centroid_s is None or binning.centroid_i is None:
        raise ConfigurationError(
            "binning centroids are unset; set them from pooled_centroids over the run")
    r_s, rb_s, tb_s = _polar_bins(result.signal["x"], result.signal["y"],
                                  binning.centroid_s, binning)
    r_i, rb_i, tb_i = _polar_bins(result.idler["x"], result.idler["y"],
                                  binning.centroid_i, binning)
    keep = (r_s <= binning.r_max) & (r_i <= binning.r_max)
    dropped = int(len(keep) - keep.sum())

    nt, nr = binning.n_theta, binning.n_r
    flat_t = tb_s[keep] * nt + tb_i[keep]
    counts_theta = np.bincount(flat_t, minlength=nt * nt).reshape(nt, nt)
    flat_r = rb_s[keep] * nr + rb_i[keep]
    counts_r = np.bincount(flat_r, minlength=nr * nr).reshape(nr, nr)

    return CoincidenceHistogram(
        setting=setting,
        binning=binning,
        counts_theta=counts_theta,
        counts_r=counts_r,
        total_pairs=int(keep.sum()),
        total_singles=result.n_singles,
        dropped_by_radius=dropped,
        skipped_outside_roi=result.skipped_outside_roi,
        total_events=result.total_events,
    )


class PixelPairHistogram:
    """Full-resolution joint histogram over raw pixel pairs.

    Addresses every (signal pixel, idler pixel) combination of the two ROIs
    (40x40 ROIs give 1600 x 1600 = 2.56e6 cells) with 64-bit counters, so
    arbitrarily heavy runs cannot overflow.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self._n_s = geometry.roi_signal.width * geometry.roi_signal.height
        self._n_i = geometry.roi_idler.width * geometry.roi_idler.height
        self.counts = np.zeros((self._n_s, self._n_i), dtype=np.int64)

    def _flat(self, roi, x, y):
        fx = x.astype(np.int64) - roi.x0
        fy = y.astype(np.int64) - roi.y0
        if np.any((fx < 0) | (fx >= roi.width) | (fy < 0) | (fy >= roi.height)):
            raise ValueError("pixel outside ROI")
        return fy * roi.width + fx

    def accumulate(self, result: MatchResult):
        s = self._flat(self.geometry.roi_signal, result.signal["x"], result.signal["y"])
        i = self._flat(self.geometry.roi_idler, result.idler["x"], result.idler["y"])
        flat = s * self._n_i + i
        add = np.bincount(flat, minlength=self._n_s * self._n_i)
        self.counts += add.reshape(self._n_s, self._n_i)

    def count(self, pixel_s: tuple[int, int], pixel_i: tuple[int, int]) -> int:
        s = self._flat(self.geometry.roi_signal,
                       np.array([pixel_s[0]]), np.array([pixel_s[1]]))[0]
        i = self._flat(self.geometry.roi_idler,
                       np.array([pixel_i[0]]), np.array([pixel_i[1]]))[0]
        return int(self.counts[s, i])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def addressable_pairs(self) -> int:
        return self._n_s * self._n_i
