"""The benchmark's three workloads over evblab.

Each workload has an untimed set-up, an untimed per-iteration input step, a
timed ``run``, output checks (any failure makes the iteration a failed
operation) and counters that only the traced run computes.  Inputs derive
from the benchmark seed and the iteration index alone; evblab sees only the
generated inputs.

* ``ideal_chain``: the library in-process on the criterion-6 physics: event
  synthesis, reads, pooled centroids, greedy matching, polar binning at two
  resolutions and linear tomography at both.
* ``noisy_cli``: the five CLI subcommands in-process on criterion-7 style
  noise (Werner mixing, dark counts, jitter, losses), with accidental
  subtraction and MLE tomography.
* ``tomo_mle``: MLE tomography alone on a Poisson draw of the analytic
  criterion-6 histogram stack.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import patched, peak_rss_mb

SRC = Path(__file__).resolve().parent.parent / "src"

LAYER_MODULES = ("cli", "coincidence", "errors", "eventsim", "polarimetry",
                 "qplate_state", "tomography")

# public layer functions the workloads call, wrapped in spans when traced
TRACED_FUNCTIONS = {
    "eventsim": ("generate_run", "read_events"),
    "coincidence": ("pooled_centroids", "find_coincidences", "accidental_estimate",
                    "bin_polar"),
    "tomography": ("angular_tomography",),
    "qplate_state": ("evb_state", "bell_probability_map"),
    "polarimetry": ("expected_histogram",),
}

# per-layer metrics that the traced run computes outside the spans; 0 where
# the workload does not exercise them
COUNTERS = ("coincidence.contended_frac", "cli.bytes_written", "tomography.clipped_mass",
            "tomography.mle_bin_ms_p50", "tomography.mle_bin_ms_p90",
            "tomography.mle_nonconverged", "tomography.loglike_gain")

MIN_COUNTS = 200
R_MAX_PX = 40.0  # polar binning radius for the 80x80-pixel ROIs of criterion 6
RMS_MAX = 0.05             # Bell-map RMS limit of criterion 6
BAND = ("0.517", "0.575")  # reference concurrence band of criterion 7
MLE_TOL = 3e-6             # the MLE tolerance of criterion 6
# mle_refine starts from the projected linear estimate mixed with 1e-10 of the
# identity, so its log-likelihood may sit this far below the unmixed start
LOGLIKE_SLACK = 1e-9


def fresh_import() -> SimpleNamespace:
    """Import evblab from this checkout's ``src``, dropping any earlier import
    so that every set-up pays for the import."""
    if not (SRC / "evblab" / "__init__.py").is_file():
        raise ImportError(f"evblab sources not found under {SRC}")
    for name in [m for m in sys.modules if m == "evblab" or m.startswith("evblab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ev = SimpleNamespace(**{m: importlib.import_module(f"evblab.{m}") for m in LAYER_MODULES})
    if not Path(ev.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"evblab imported from {ev.cli.__file__}, not from {SRC}")
    return ev


def layer_functions(ev) -> dict:
    return {name: getattr(getattr(ev, module), name)
            for module, names in TRACED_FUNCTIONS.items() for name in names}


def observers(ev) -> dict:
    """Span attributes computed from each traced call's result."""
    header = ev.eventsim.HEADER_DTYPE.itemsize
    record = ev.eventsim.EVENT_DTYPE.itemsize

    def generate(stats, *args, **kwargs):
        return {
            "events": sum(s["events"] for s in stats),
            "bytes": sum(header + record * s["events"] for s in stats),  # computed
            "pairs_passed": sum(s["passed_entangled"] + s["passed_white"] for s in stats),
        }

    def tomography(t, *args, **kwargs):
        return {"mle": t.mle, "bins_used": t.bins_used,
                "low_stat_bins": t.n_theta**2 - t.bins_used,
                "avg_concurrence": t.average_concurrence,
                "concurrence_se": t.concurrence_se, "avg_purity": t.average_purity}

    return {
        "generate_run": generate,
        "read_events": lambda e, *a, **k: {"bytes": header + e.nbytes},
        "find_coincidences": lambda r, *a, **k: {
            "pairs": r.n_pairs, "singles": r.n_singles,
            "outside_roi": r.skipped_outside_roi, "events": r.total_events},
        "accidental_estimate": lambda n, *a, **k: {"accidentals": int(n)},
        "bin_polar": lambda h, *a, **k: {"dropped_by_radius": h.dropped_by_radius},
        "angular_tomography": tomography,
    }


def input_seed(seed: int, k: int) -> int:
    """Library seed of iteration ``k``: a fixed function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def large_geometry(ev):
    """The 176x96 camera with 80x80 ROIs and a 20 px waist of criterion 6."""
    rect = ev.eventsim.Rect
    return ev.eventsim.CameraGeometry(width=176, height=96, roi_signal=rect(4, 8, 80, 80),
                                      roi_idler=rect(92, 8, 80, 80), waist_px=20.0)


def mean_loglike(ev, rho, counts, tset) -> float:
    """The multinomial mean log-likelihood that ``mle_refine`` maximizes."""
    p = ev.tomography.forward_probabilities(rho, tset)
    active = counts > 0
    if np.any(p[active] <= 0):
        return -math.inf
    return float(np.dot(counts[active], np.log(p[active])) / counts.sum() - math.log(p.sum()))


def bin_counts(hists, tset) -> np.ndarray:
    """(n_bins, 16) setting counts per angular bin, in the tomography set's order."""
    by_label = {h.setting: h for h in hists}
    stack = np.stack([np.asarray(by_label[l].counts_theta, dtype=float) for l in tset.labels])
    return stack.reshape(16, -1).T


def replay_bins(ev, hists, tset, mle_tol=None) -> dict:
    """Per-bin counters from calling the tomography functions bin by bin.

    ``angular_tomography`` swallows ``ConvergenceError``; calling
    ``mle_refine`` per bin counts it, and times each bin.
    """
    tomo = ev.tomography
    clipped, ms, gains, nonconverged = [], [], [], 0
    for counts in bin_counts(hists, tset):
        if int(round(counts.sum())) < MIN_COUNTS:
            continue
        linear = tomo.linear_inversion(counts, tset)
        vals = np.linalg.eigvalsh(linear)
        clipped.append(float(-vals[vals < 0].sum()))
        if mle_tol is None:
            continue
        start = tomo.project_physical(linear)
        t0 = time.perf_counter()
        try:
            rho = tomo.mle_refine(start, counts, tset, tol=mle_tol)
        except ev.errors.ConvergenceError as exc:
            rho = exc.best
            nonconverged += 1
        ms.append((time.perf_counter() - t0) * 1e3)
        gains.append(mean_loglike(ev, rho, counts, tset) - mean_loglike(ev, start, counts, tset))
    out = {"tomography.clipped_mass": float(np.mean(clipped)) if clipped else 0.0}
    if ms:
        out.update({
            "tomography.mle_bin_ms_p50": float(np.percentile(ms, 50)),
            "tomography.mle_bin_ms_p90": float(np.percentile(ms, 90)),
            "tomography.mle_nonconverged": nonconverged,
            "tomography.loglike_gain": float(np.mean(gains)),
        })
    return out


def contended_fraction(event_arrays, geometry, window) -> float:
    """Share of signal-ROI events with more than one idler inside the window."""
    signals = contended = 0
    for events in event_arrays:
        t = events["t"].astype(np.int64)
        ts = t[geometry.roi_signal.contains(events["x"], events["y"])]
        ti = t[geometry.roi_idler.contains(events["x"], events["y"])]
        lo = np.searchsorted(ti, ts - window, side="left")
        hi = np.searchsorted(ti, ts + window, side="right")
        contended += int(np.count_nonzero(hi - lo > 1))
        signals += len(ts)
    return contended / signals if signals else 0.0


@dataclass
class Outcome:
    """What a timed run hands to the checks and counters."""

    source_pairs: int  # source pairs behind the run, summed over the 16 settings
    bins: int          # angular bins reconstructed
    data: dict


class IdealChain:
    """Library chain on ideal criterion-6 events: almost no matching contention,
    time spread over generation, matching, binning and linear tomography."""

    def __init__(self, seed: int, pairs: int = 1_000_000, ntheta=(16, 40)):
        self.seed, self.pairs, self.ntheta = seed, pairs, ntheta

    def setup(self, tracer):
        self.ev = ev = fresh_import()
        lib = tracer.bind(layer_functions(ev), observers(ev))
        self.plates = (ev.qplate_state.QPlateParams(0.5, waist=20.0),
                       ev.qplate_state.QPlateParams(1.0, waist=20.0))
        state = lib.evb_state(*self.plates)
        self.reference = {nt: lib.bell_probability_map(state, nt, average_over_bins=True)[0]
                          for nt in self.ntheta}
        self.geometry = large_geometry(ev)
        self.tset = ev.polarimetry.standard_set()

    def inputs(self, k):
        ev = self.ev.eventsim
        return ev.default_manifest(
            *self.plates, n_pairs=self.pairs, pair_rate=40_000.0,
            noise=ev.NoiseModel(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0),
            rng_seed=input_seed(self.seed, k), geometry=self.geometry)

    def run(self, manifest, work: Path, tracer) -> Outcome:
        ev = self.ev
        lib = tracer.bind(layer_functions(ev), observers(ev))
        lib.generate_run(manifest, work)
        events = {lab: lib.read_events(work / fname) for lab, fname in manifest.settings.items()}
        cs, ci = lib.pooled_centroids(events.values(), manifest.geometry)
        config = ev.coincidence.CoincidenceConfig()
        matches = {lab: lib.find_coincidences(e, manifest.geometry, config)
                   for lab, e in events.items()}
        hists, tomos = {}, {}
        for nt in self.ntheta:
            binning = ev.coincidence.PolarBinning(n_theta=nt, r_max=R_MAX_PX,
                                                  centroid_s=cs, centroid_i=ci)
            hists[nt] = [lib.bin_polar(matches[lab], binning, lab) for lab in self.tset.labels]
            tomos[nt] = lib.angular_tomography(hists[nt], self.tset, min_counts=MIN_COUNTS)
        return Outcome(source_pairs=16 * manifest.n_source_pairs,
                       bins=sum(t.bins_used for t in tomos.values()),
                       data={"events": events, "matches": matches, "hists": hists,
                             "tomos": tomos, "window": config.window})

    def _rms(self, out):
        return {nt: {name: float(np.sqrt(np.nanmean((rec - self.reference[nt][name]) ** 2)))
                     for name, rec in out.data["tomos"][nt].bell_maps().items()}
                for nt in self.ntheta}

    def check(self, out) -> list[str]:
        bad = []
        for nt, per_state in self._rms(out).items():
            bad += [f"{name} Bell-map RMS {rms:.4f} > {RMS_MAX} at n_theta {nt}"
                    for name, rms in per_state.items() if not rms <= RMS_MAX]
        for lab, m in out.data["matches"].items():
            if m.n_pairs > min(m.n_signal_events, m.n_idler_events):
                bad.append(f"{lab}: {m.n_pairs} pairs from {m.n_signal_events} signal "
                           f"and {m.n_idler_events} idler events")
        for nt, tomo in out.data["tomos"].items():
            for r in tomo.results:
                if r.low_statistics:
                    continue
                try:
                    self.ev.tomography.assert_physical(r.rho)
                except ValueError as exc:
                    bad.append(f"n_theta {nt} bin ({r.bin_s}, {r.bin_i}): {exc}")
        return bad

    def science(self, out) -> dict:
        return {
            "pairs": {lab: m.n_pairs for lab, m in out.data["matches"].items()},
            "avg_concurrence": {nt: t.average_concurrence for nt, t in out.data["tomos"].items()},
            "rms": self._rms(out),
        }

    def counters(self, out, work: Path) -> dict:
        c = {"coincidence.contended_frac": contended_fraction(
            out.data["events"].values(), self.geometry, out.data["window"])}
        masses = [replay_bins(self.ev, h, self.tset)["tomography.clipped_mass"]
                  for h in out.data["hists"].values()]
        c["tomography.clipped_mass"] = float(np.mean(masses))
        return c


class NoisyCli:
    """The five CLI subcommands on noisy criterion-7 style events: file writes
    beside reads, dark events, contended matching, a second matching pass for
    accidentals, and MLE on mixed states."""

    PLATES = ("--qs", "0.5", "--qi", "0.5")

    def __init__(self, seed: int, pairs: int = 1_000_000, ntheta: int = 16):
        self.seed, self.pairs, self.ntheta = seed, pairs, ntheta

    def setup(self, tracer):
        self.ev = ev = fresh_import()
        lib = tracer.bind(layer_functions(ev), observers(ev))
        # the CLI builds its own state; set-up builds it too so that setup_s
        # covers import and state on every workload
        lib.evb_state(ev.qplate_state.QPlateParams(0.5), ev.qplate_state.QPlateParams(0.5))
        self.tset = ev.polarimetry.standard_set()

    def inputs(self, k):
        return input_seed(self.seed, k)

    def steps(self, lib_seed: int, work: Path):
        d = {name: str(work / name) for name in ("maps", "run", "coinc", "tomo", "report")}
        nt = str(self.ntheta)
        return [
            ("simulate", ["simulate", *self.PLATES, "--ntheta", nt, "--average-bins",
                          "--out", d["maps"]]),
            ("generate", ["generate", *self.PLATES, "--pairs", str(self.pairs),
                          "--pair-rate", "1e7", "--efficiency", "0.9", "--dark-rate", "500",
                          "--jitter-ns", "1", "--werner-p", "0.7", "--seed", str(lib_seed),
                          "--out", d["run"]]),
            ("coincide", ["coincide", "--in", d["run"], "--out", d["coinc"], "--ntheta", nt,
                          "--subtract-accidentals"]),
            ("tomo", ["tomo", "--in", d["coinc"], "--out", d["tomo"], "--mle"]),
            ("report", ["report", "--in", d["tomo"], "--analytic", d["maps"],
                        "--out", d["report"], "--band", *BAND]),
        ]

    def run(self, lib_seed, work: Path, tracer) -> Outcome:
        cli = self.ev.cli
        codes = {}
        lib = tracer.bind(layer_functions(self.ev), observers(self.ev))
        with patched(cli, lib) if tracer.enabled else contextlib.nullcontext():
            for step, argv in self.steps(lib_seed, work):
                with tracer.span(f"cli.{step}") as attrs:
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes[step] = cli.main(argv)
                    attrs["peak_rss_mb"] = peak_rss_mb()
        report = work / "report" / "report.json"
        tomo = work / "tomo" / "tomography.json"
        data = {"codes": codes,
                "report": json.loads(report.read_text()) if report.exists() else None,
                "bins_used": json.loads(tomo.read_text())["bins_used"] if tomo.exists() else 0}
        return Outcome(source_pairs=16 * self.pairs, bins=data["bins_used"], data=data)

    def check(self, out) -> list[str]:
        bad = [f"{step} exited {rc}" for step, rc in out.data["codes"].items() if rc != 0]
        report = out.data["report"]
        if report is None or report.get("band_ok") is not True:
            avg = report and report.get("average_concurrence")
            bad.append(f"report.json band_ok is not true (average concurrence {avg})")
        return bad

    def science(self, out) -> dict:
        return {"codes": out.data["codes"], "report": out.data["report"]}

    def counters(self, out, work: Path) -> dict:
        ev = self.ev
        manifest = ev.eventsim.RunManifest.from_json((work / "run" / "manifest.json").read_text())
        events = (ev.eventsim.read_events(work / "run" / f) for f in manifest.settings.values())
        bundle = json.loads((work / "coinc" / "histograms.json").read_text())
        hists = [ev.coincidence.CoincidenceHistogram.from_dict(d)
                 for d in bundle["settings"].values()]
        c = {"coincidence.contended_frac": contended_fraction(
                 events, manifest.geometry, bundle["config"]["window_ns"]),
             "cli.bytes_written": sum(p.stat().st_size for p in work.rglob("*") if p.is_file())}
        # the CLI's tomo subcommand uses angular_tomography's default tolerance
        c.update(replay_bins(ev, hists, self.tset, mle_tol=1e-7))
        return c


class TomoMle:
    """MLE tomography alone on near-pure states, where MLE is nearly all the
    time; it touches no events."""

    def __init__(self, seed: int, pairs: int = 1_000_000, ntheta: int = 20):
        self.seed, self.pairs, self.ntheta = seed, pairs, ntheta

    def setup(self, tracer):
        self.ev = ev = fresh_import()
        lib = tracer.bind(layer_functions(ev), observers(ev))
        qp = ev.qplate_state.QPlateParams
        state = lib.evb_state(qp(0.5, waist=20.0), qp(1.0, waist=20.0))
        geometry = large_geometry(ev)
        binning = ev.coincidence.PolarBinning(n_theta=self.ntheta, r_max=R_MAX_PX,
                                              centroid_s=geometry.centroid_s,
                                              centroid_i=geometry.centroid_i)
        self.tset = ev.polarimetry.standard_set()
        self.expected = [lib.expected_histogram(state, s, binning, self.pairs)
                         for s in self.tset.settings]

    def inputs(self, k):
        """A fresh Poisson draw of the expected stack for each iteration, so a
        run's median averages over draws."""
        rng = np.random.default_rng(input_seed(self.seed, k))
        hists = []
        for h in self.expected:
            counts = rng.poisson(h.counts_theta).astype(float)
            hists.append(replace(h, counts_theta=counts, total_pairs=int(counts.sum())))
        return hists

    def run(self, hists, work: Path, tracer) -> Outcome:
        lib = tracer.bind(layer_functions(self.ev), observers(self.ev))
        tomo = lib.angular_tomography(hists, self.tset, mle=True, mle_tol=MLE_TOL,
                                      min_counts=MIN_COUNTS)
        return Outcome(source_pairs=16 * self.pairs, bins=tomo.bins_used,
                       data={"hists": hists, "tomo": tomo})

    def check(self, out) -> list[str]:
        ev, tset = self.ev, self.tset
        bad = []
        counts = bin_counts(out.data["hists"], tset)
        for r in out.data["tomo"].results:
            if r.low_statistics:
                continue
            c = counts[r.bin_s * self.ntheta + r.bin_i]
            start = ev.tomography.project_physical(ev.tomography.linear_inversion(c, tset))
            gain = mean_loglike(ev, r.rho, c, tset) - mean_loglike(ev, start, c, tset)
            if not gain >= -LOGLIKE_SLACK:
                bad.append(f"bin ({r.bin_s}, {r.bin_i}): MLE log-likelihood {gain:.3g} "
                           "below its linear-projection start")
        return bad

    def science(self, out) -> dict:
        tomo = out.data["tomo"]
        return {"avg_concurrence": tomo.average_concurrence, "bins_used": tomo.bins_used,
                "concurrence": [r.concurrence for r in tomo.results]}

    def counters(self, out, work: Path) -> dict:
        return replay_bins(self.ev, out.data["hists"], self.tset, mle_tol=MLE_TOL)


WORKLOADS = {"ideal_chain": IdealChain, "noisy_cli": NoisyCli, "tomo_mle": TomoMle}

# sizes for the quick test: every check still applies
TINY = {
    "ideal_chain": {"pairs": 40_000, "ntheta": (4, 6)},
    "noisy_cli": {"pairs": 60_000},
    "tomo_mle": {"ntheta": 4},
}
