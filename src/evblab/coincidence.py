"""Temporal coincidence finding and polar-coordinate correlation histograms.

Event streams are numpy structured arrays in the on-disk record layout (see
:mod:`evblab.eventsim`).  Each signal's candidate idlers are the index range
``[lo, hi)`` of the time-sorted idler sub-stream within the window.  The
single-match policy pairs each signal greedily with its nearest-in-time
unused idler (ties to the earlier idler), processing signals in time order;
signals whose ranges overlap another's are matched in rounds, one signal of
each such cluster per round.  A match is held as the two ROI-local pixels
its photons hit, not as record copies; polar binning evaluates each ROI
pixel's polar cell once and gathers by pixel.

A record array is matched in time slices, one per worker thread.  Slice k
starts after the first gap wider than floor(window) ns between consecutive
records at or after record k*n/workers.  Times are integers, so no signal
and idler on opposite sides of such a gap lie within the window: no pair,
candidate range or greedy cluster crosses a cut, and matching the slices
apart and joining them in time order gives the whole stream's result at
any thread count.  Where no such gap follows, there are fewer slices.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, FormatError

if TYPE_CHECKING:  # eventsim imports polarimetry, which imports this module
    from .eventsim import Rect


@dataclass(frozen=True)
class CoincidenceConfig:
    """window: max |t_s - t_i| in ns; allow_multi_match: emit every pair in
    window instead of greedy one-to-one matching."""

    window: float = 10.0
    allow_multi_match: bool = False

    def __post_init__(self):
        if not (self.window > 0 and math.isfinite(self.window)):
            raise ValueError(f"coincidence window must be positive and finite, got {self.window}")


@dataclass(frozen=True)
class PolarBinning:
    """Angular histogram geometry about per-ROI centroids: n_theta azimuthal
    bins over the disc of radius r_max.

    Centroids may be left unset at construction but must be set before
    binning, to one pair shared by all settings of a run
    (:func:`pooled_centroids`, or :func:`roi_centroids` of the run's summed
    :func:`roi_images`).  Equal binnings share grid and centroids.
    """

    n_theta: int = 16
    r_max: float = 20.0
    centroid_s: tuple[float, float] | None = None
    centroid_i: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.n_theta, (int, np.integer)):
            raise ValueError(f"n_theta must be an integer, got {self.n_theta!r}")
        if self.n_theta < 1:
            raise ValueError("need at least one bin per axis")
        if not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")


@dataclass
class CoincidenceHistogram:
    """The angular pair-count map of one measurement setting, plus its
    bookkeeping counts.

    counts_theta[theta_s, theta_i] sums over radius within r_max; the one
    joint histogram is the pixel-pair :class:`PixelPairHistogram`.
    """

    setting: str
    binning: PolarBinning
    counts_theta: np.ndarray
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
            "n_theta": self.binning.n_theta,
            "r_max": self.binning.r_max,
            "centroid_s": list(self.binning.centroid_s or ()),
            "centroid_i": list(self.binning.centroid_i or ()),
            "counts_theta": self.counts_theta.tolist(),
            **{k: int(getattr(self, k)) for k in self._COUNT_FIELDS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoincidenceHistogram":
        n = d["n_theta"]
        try:
            counts = np.asarray(d["counts_theta"])
        except ValueError:  # rows of unequal length
            counts = None
        if counts is None or counts.dtype.kind not in "iuf":
            raise FormatError(f"setting {d['setting']}: counts_theta is not a matrix of numbers")
        if not np.all(np.isfinite(counts) & (counts >= 0)):
            raise FormatError(f"setting {d['setting']}: counts_theta holds a count that is "
                              "not finite and nonnegative")
        if counts.shape != (n, n):
            raise FormatError(f"setting {d['setting']}: counts_theta has shape "
                              f"{counts.shape}, not n_theta x n_theta = {(n, n)}")
        return cls(
            setting=d["setting"],
            binning=PolarBinning(
                n_theta=n,
                r_max=d["r_max"],
                centroid_s=tuple(d["centroid_s"]) or None,
                centroid_i=tuple(d["centroid_i"]) or None,
            ),
            counts_theta=counts,
            **{k: d[k] for k in cls._COUNT_FIELDS},
        )


@dataclass
class MatchResult:
    """Matched pairs as ROI pixels, plus bookkeeping.

    Pair k's photons hit pixel ``pix_s[k]`` of ``roi_s`` and pixel
    ``pix_i[k]`` of ``roi_i`` (ROI-local, see ``Rect.pixel_index``), each
    in the smallest unsigned type that holds its ROI's largest index: with
    ROIs of at most 65536 pixels, uint16, so 4 bytes per pair.

    n_contended counts the signals that greedy matching resolved in rounds,
    those whose window overlaps another signal's (0 for multi-matching).
    """

    pix_s: np.ndarray
    pix_i: np.ndarray
    roi_s: Rect
    roi_i: Rect
    n_signal_events: int
    n_idler_events: int
    total_events: int
    n_contended: int = 0

    @property
    def n_pairs(self) -> int:
        return len(self.pix_s)

    @property
    def n_singles(self) -> int:
        return self.n_signal_events + self.n_idler_events - 2 * self.n_pairs

    @property
    def skipped_outside_roi(self) -> int:
        return self.total_events - self.n_signal_events - self.n_idler_events


# ---------------------------------------------------------------------------
# Matching

# One setting's time-sorted records split by ROI: their number, then the int64
# times and ROI pixel indices of the signal- and idler-ROI events.
RoiStreams = namedtuple("RoiStreams", "n_events t_s t_i pix_s pix_i")

# Times at or beyond this many ns are rejected: below it, a time plus a window
# or an accidentals offset (each at most 2**62 ns) stays inside int64.
TIME_LIMIT = 2**62


def worker_count() -> int:
    """Worker threads for per-setting work (event synthesis, and matching and
    binning in the CLI's ``coincide``) and for the time slices of a record
    array's matching: the core count, capped by EVBLAB_THREADS."""
    n = os.cpu_count() or 1
    cap = os.environ.get("EVBLAB_THREADS", str(n))
    try:
        return min(n, max(1, int(cap)))
    except ValueError:
        raise ConfigurationError(f"EVBLAB_THREADS must be an integer, got {cap!r}") from None


def _check_times(t) -> None:
    if np.any(t[1:] < t[:-1]):
        raise FormatError("event stream is not sorted by time")
    if len(t) and t[-1] >= TIME_LIMIT:
        raise FormatError(f"event time {t[-1]} ns reaches 2**62 ns")


def _split(events, geometry) -> RoiStreams:
    x, y = events["x"].copy(), events["y"].copy()  # contiguous: 3x faster masks
    t = events["t"].astype(np.int64)  # contiguous, and gathered by both ROIs
    split = []
    for roi in (geometry.roi_signal, geometry.roi_idler):
        inside = np.flatnonzero(roi.contains(x, y))
        out = np.min_scalar_type(roi.width * roi.height - 1)
        # Inside the ROI, no step of the index exceeds its largest value, so
        # a type that holds it, x, y and the width computes it exactly.
        work = np.result_type(out, np.uint16, np.min_scalar_type(roi.width))
        dx = x[inside].astype(work, copy=False) - work.type(roi.x0)
        dy = y[inside].astype(work, copy=False) - work.type(roi.y0)
        split.append((t[inside], (dy * work.type(roi.width) + dx).astype(out, copy=False)))
    (t_s, pix_s), (t_i, pix_i) = split
    return RoiStreams(len(events), t_s, t_i, pix_s, pix_i)


def split_rois(events, geometry) -> RoiStreams:
    """Split a stream by ROI, rejecting one that is not sorted by time or that
    reaches 2**62 ns; the matching functions take the split in place of the
    records, and a split passes through unchanged.  Pixel indices are
    narrowed as in :class:`MatchResult`."""
    if isinstance(events, RoiStreams):
        return events
    _check_times(events["t"])
    return _split(events, geometry)


def _window_bound(window: float) -> int:
    """The integer bound floor(window) on |t_s - t_i|, capped so that t +-
    bound stays inside int64 for times below 2**62 ns (146 years)."""
    return math.floor(min(window, TIME_LIMIT))


def _time_cuts(t, bound: int, parts: int) -> list[int]:
    """Start and end indices of at most ``parts`` slices of the sorted times
    ``t``: each inner cut follows the first gap wider than ``bound`` at or
    after the next k * len(t) / parts, found in stretches of growing length."""
    n = len(t)
    cuts = [0]
    for k in range(1, parts):
        p, step = max(k * n // parts, cuts[-1]), 1024
        while p < n - 1:
            wide = np.flatnonzero(np.diff(t[p:p + step + 1]) > bound)
            if len(wide):
                cuts.append(p + int(wide[0]) + 1)
                break
            p, step = p + step, 4 * step
        else:
            break
    return cuts + [n]


def _window_bounds(ts: np.ndarray, ti: np.ndarray, window: float):
    """Per signal, the ``[lo, hi)`` range of idlers with |t_i - t_s| <= window.

    Times are int64 ns, so the bound is floor(window) in integers
    (:func:`_window_bound`): exact at any time, and without a float copy of
    either stream.  Windows hold few idlers, so ``hi`` steps forward from
    ``lo`` at most 8 times; the signals still stepping after that take a
    search.
    """
    bound = _window_bound(window)
    lo = np.searchsorted(ti, ts - bound, side="left")
    top = ts + bound
    # The signals still stepping have all taken the same steps, so their hi
    # is sorted like lo, and those with an idler left to test come first.
    m = np.searchsorted(lo, len(ti))
    rest = np.flatnonzero(ti[lo[:m]] <= top[:m])
    hi = lo.copy()
    hi[rest] += 1
    for _ in range(7):
        h = hi[rest]
        m = np.searchsorted(h, len(ti))
        rest = rest[:m][ti[h[:m]] <= top[rest[:m]]]
        hi[rest] += 1
    hi[rest] = np.searchsorted(ti, top[rest], side="right")
    return lo, hi


def _ragged(lo, hi):
    """The indices of the ranges [lo, hi) laid end to end, and the start of
    each range in that layout."""
    n = hi - lo
    start = np.cumsum(n) - n
    return np.arange(n.sum()) + np.repeat(lo - start, n), start


def _match_multi(ts: np.ndarray, ti: np.ndarray, window: float):
    lo, hi = _window_bounds(ts, ti, window)
    iidx, _ = _ragged(lo, hi)
    return np.repeat(np.arange(len(ts)), hi - lo), iidx, 0


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


def _nearest_unused(t, ti, lo, hi, used):
    """Nearest idler to each time t inside its nonempty range [lo, hi) that is
    not yet ``used``, the earliest one on a tie, or -1 where all are used.
    The ranges must share no idler; the chosen idlers are marked used."""
    cand, start = _ragged(lo, hi)
    n = hi - lo
    far = np.iinfo(np.int64).max
    d = np.abs(ti[cand] - np.repeat(t, n))
    d[used[cand]] = far
    best_d = np.minimum.reduceat(d, start)
    best = np.minimum.reduceat(np.where(d == np.repeat(best_d, n), cand, len(ti)), start)
    best[best_d == far] = -1
    used[best[best >= 0]] = True
    return best


def _match_greedy(ts: np.ndarray, ti: np.ndarray, window: float):
    """Greedy one-to-one matching, plus the number of signals it resolved in
    rounds.

    Windows are monotone in signal time, so the signals with a candidate
    split into clusters where consecutive ranges overlap, and clusters share
    no idler.  A signal alone in its cluster takes its nearest idler.  In
    round r, the r-th signal of every multi-signal cluster takes its nearest
    idler that no earlier signal of its cluster took: the choice a loop over
    the signals in time order makes.  There are as many rounds as signals in
    the largest cluster.
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
    k, lo, hi, first = k[busy], lo[busy], hi[busy], first[busy]
    # each signal's place in its cluster; sorted by place, round r is a slice
    place = np.arange(len(k)) - np.flatnonzero(first)[np.cumsum(first) - 1]
    order = np.argsort(place, kind="stable")
    k, lo, hi = k[order], lo[order], hi[order]
    size = np.bincount(place)
    ends = np.cumsum(size)
    used = np.zeros(len(ti), dtype=bool)
    for a, b in zip(ends - size, ends):
        match[k[a:b]] = _nearest_unused(ts[k[a:b]], ti, lo[a:b], hi[a:b], used)
    sig = np.flatnonzero(match >= 0)
    return sig, match[sig], len(k)


def find_coincidences(events, geometry, config: CoincidenceConfig) -> MatchResult:
    """Pair up signal-ROI and idler-ROI detections within the time window.

    ``events`` is a time-sorted record array (rejected otherwise), matched in
    time slices on :func:`worker_count` threads, or its :func:`split_rois`
    under ``geometry``, matched whole.  Events outside both ROIs are counted
    and skipped.
    """
    match = _match_multi if config.allow_multi_match else _match_greedy

    def run(s: RoiStreams):
        sidx, iidx, n_contended = match(s.t_s, s.t_i, config.window)
        return s.pix_s[sidx], s.pix_i[iidx], s.n_events, len(s.t_s), len(s.t_i), n_contended

    if isinstance(events, RoiStreams):
        parts = [run(events)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        _check_times(events["t"])  # once: the slices are split unchecked
        cuts = _time_cuts(events["t"], _window_bound(config.window), worker_count())
        slices = [events[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            parts = list(pool.map(lambda e: run(_split(e, geometry)), slices))
    pix_s, pix_i, *counts = zip(*parts)
    n_events, n_s, n_i, n_contended = map(sum, counts)
    return MatchResult(
        pix_s=np.concatenate(pix_s), pix_i=np.concatenate(pix_i),
        roi_s=geometry.roi_signal, roi_i=geometry.roi_idler,
        n_signal_events=n_s, n_idler_events=n_i,
        total_events=n_events, n_contended=n_contended,
    )


def check_accidentals_offset(config: CoincidenceConfig, offset: float) -> None:
    """Reject an accidentals offset that true pairs could survive (under 10
    windows) or that could push int64 times past 2**63 (over 2**62 ns)."""
    if not offset >= 10 * config.window:
        raise ValueError("offset must be well outside the coincidence window")
    if offset > TIME_LIMIT:
        raise ValueError(f"accidentals offset {offset:g} ns exceeds 2**62 ns")


def accidental_estimate(events, geometry, config: CoincidenceConfig,
                        offset: float) -> int:
    """Coincidence count after shifting idler times by ``offset`` ns.

    Estimates the accidental (uncorrelated) pair rate; the offset must pass
    :func:`check_accidentals_offset`.  ``events`` is a record array or its
    :func:`split_rois`.
    """
    check_accidentals_offset(config, offset)
    s = split_rois(events, geometry)
    return find_coincidences(s._replace(t_i=s.t_i + int(round(offset))), geometry, config).n_pairs


# ---------------------------------------------------------------------------
# Polar binning

def roi_images(streams: RoiStreams, geometry):
    """The signal and idler ROIs' count images of a split: one ``bincount``
    each of its pixel indices, flat in ``Rect.pixel_index`` order."""
    return tuple(np.bincount(pix, minlength=roi.width * roi.height)
                 for pix, roi in ((streams.pix_s, geometry.roi_signal),
                                  (streams.pix_i, geometry.roi_idler)))


def roi_centroids(images, geometry):
    """The signal and idler centroids of two ROI count images, each of the
    ROI's shape or flat like :func:`roi_images`: the count-weighted mean
    pixel (x, y), or ``roi.center()`` where the image holds no count.

    Integer images give the same floats whichever way they were counted,
    so the centroids of a run equal those of the sum of its settings'
    images (see :func:`pooled_centroids`).
    """
    out = []
    for image, roi in zip(images, (geometry.roi_signal, geometry.roi_idler)):
        sub = np.reshape(image, (roi.height, roi.width))
        n = sub.sum()
        if n == 0:
            out.append(roi.center())
        else:
            out.append((sub.sum(axis=0) @ np.arange(roi.x0, roi.x0 + roi.width) / n,
                        sub.sum(axis=1) @ np.arange(roi.y0, roi.y0 + roi.height) / n))
    return tuple(out)


def pooled_centroids(event_arrays, geometry):
    """Shared ROI centroids from the detections of an entire run.

    One centroid pair must serve all 16 settings: events live on the pixel
    lattice, so bins of events sit exactly on angular bin edges, and
    per-setting centroid jitter would flip those edge pixels inconsistently
    between settings, corrupting the per-bin tomography counts.

    One ``bincount`` per array gives the run's camera image; records off the
    camera land in an extra row and column that no ROI covers.  The ROI
    slices of that image hold the counts that :func:`roi_images` gives for
    the arrays' splits, and :func:`roi_centroids` takes them, so the summed
    images of a run's splits give the same centroids.
    """
    w, h = geometry.width, geometry.height
    image = np.zeros((h + 1) * (w + 1), dtype=np.int64)
    for events in event_arrays:
        x = np.minimum(events["x"], w).astype(np.intp)
        y = np.minimum(events["y"], h).astype(np.intp)
        image += np.bincount(y * (w + 1) + x, minlength=len(image))
    image = image.reshape(h + 1, w + 1)
    return roi_centroids([image[r.y0:r.y0 + r.height, r.x0:r.x0 + r.width]
                          for r in (geometry.roi_signal, geometry.roi_idler)], geometry)


def _polar_formula(dx, dy, binning: PolarBinning):
    """The polar cell of offsets (dx, dy): the theta bin, or n_theta beyond
    r_max."""
    theta = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    tbin = np.minimum(
        (theta / (2.0 * math.pi) * binning.n_theta).astype(np.int64),
        binning.n_theta - 1,
    )
    return np.where(np.hypot(dx, dy) <= binning.r_max, tbin, binning.n_theta)


def _polar_codes(pix, roi, centroid, binning: PolarBinning):
    """The polar cell (see :func:`_polar_formula`) about the centroid of each
    photon at pixel index ``pix`` of ``roi``.

    Photons sit on the pixel lattice, so the formula runs once per pixel of
    the ROI, and each photon gathers its pixel's cell; where the ROI holds
    more pixels than there are photons, it runs on the photons' pixels.
    """
    table = roi.width * roi.height <= len(pix)
    cells = np.arange(roi.width * roi.height) if table else pix.astype(np.intp)
    gy, gx = np.divmod(cells, roi.width)
    codes = _polar_formula((gx + roi.x0).astype(float) - centroid[0],
                           (gy + roi.y0).astype(float) - centroid[1], binning)
    return codes[pix] if table else codes


def bin_polar(result: MatchResult, binning: PolarBinning, setting: str = "") -> CoincidenceHistogram:
    """Histogram matched pairs over the azimuths about the ROI centroids.

    Pairs with either photon beyond r_max are dropped and counted.  One
    ``bincount`` over the (n_theta + 1)**2 pairs of polar cells, beyond-r_max
    cell included, gives the angular map as its inner block and both pair counts.
    """
    if binning.centroid_s is None or binning.centroid_i is None:
        raise ConfigurationError(
            "binning centroids are unset; set them from pooled_centroids over the run")
    cells = binning.n_theta + 1
    code_s = _polar_codes(result.pix_s, result.roi_s, binning.centroid_s, binning)
    code_i = _polar_codes(result.pix_i, result.roi_i, binning.centroid_i, binning)
    joint = np.bincount(code_s * cells + code_i, minlength=cells * cells)
    within = joint.reshape(cells, cells)[:-1, :-1]
    total = int(within.sum())
    return CoincidenceHistogram(
        setting=setting,
        binning=binning,
        counts_theta=within,
        total_pairs=total,
        total_singles=result.n_singles,
        dropped_by_radius=len(code_s) - total,
        skipped_outside_roi=result.skipped_outside_roi,
        total_events=result.total_events,
    )


class PixelPairHistogram:
    """Full-resolution joint histogram over raw pixel pairs.

    Addresses every (signal pixel, idler pixel) combination of the two ROIs
    (40x40 ROIs give 1600 x 1600 = 2.56e6 cells) with 64-bit counters, so
    arbitrarily heavy runs cannot overflow.  Row and column are the ROI pixel
    indices (``Rect.pixel_index``) that a :class:`MatchResult` holds.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self._n_s = geometry.roi_signal.width * geometry.roi_signal.height
        self._n_i = geometry.roi_idler.width * geometry.roi_idler.height
        self.counts = np.zeros((self._n_s, self._n_i), dtype=np.int64)

    def accumulate(self, result: MatchResult):
        rois = (self.geometry.roi_signal, self.geometry.roi_idler)
        if (result.roi_s, result.roi_i) != rois:
            raise ValueError(f"match result ROIs {(result.roi_s, result.roi_i)} "
                             f"are not the histogram's {rois}")
        flat = result.pix_s.astype(np.intp) * self._n_i + result.pix_i
        add = np.bincount(flat, minlength=self._n_s * self._n_i)
        self.counts += add.reshape(self._n_s, self._n_i)

    def count(self, pixel_s: tuple[int, int], pixel_i: tuple[int, int]) -> int:
        roi_s, roi_i = self.geometry.roi_signal, self.geometry.roi_idler
        if not (roi_s.contains(*pixel_s) and roi_i.contains(*pixel_i)):
            raise ValueError("pixel outside ROI")
        return int(self.counts[roi_s.pixel_index(*pixel_s), roi_i.pixel_index(*pixel_i)])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def addressable_pairs(self) -> int:
        return self._n_s * self._n_i
