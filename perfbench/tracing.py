"""Spans around calls into evblab's layers, and the per-layer metrics they give.

A span is one call into a public function of a layer, recorded from the
benchmark's side of the call: name (``<layer>.<function>``), start, end,
parent span, run id and attributes computed from the call's arguments and
result.  Spans stay in memory and are written out once, when the benchmark
ends.  With tracing off, ``bind`` hands out the library functions themselves,
so the untraced run pays nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

LAYERS = ("eventsim", "coincidence", "tomography", "polarimetry", "qplate_state", "cli")


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = None
        self.spans: list[dict] = []
        self._open: list[int] = []  # ids of the spans open now, innermost last

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span while enabled; yields the dict for its attributes."""
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, "run": self.run_id,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield attrs
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, observe=None):
        """``fn`` inside a span; ``observe(result, *args, **kwargs)`` gives attributes."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs.update(observe(result, *args, **kwargs))
            return result

        return traced

    def bind(self, functions: dict, observers: dict) -> SimpleNamespace:
        """Namespace of the given functions, wrapped in spans while enabled."""
        if not self.enabled:
            return SimpleNamespace(**functions)
        return SimpleNamespace(**{name: self.wrap(fn, observers.get(name))
                                  for name, fn in functions.items()})

    def run_spans(self, run_id) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}, indent=1) + "\n")


@contextlib.contextmanager
def patched(module, namespace: SimpleNamespace):
    """Replace ``module``'s references to the namespace's functions for a while.

    Used on ``evblab.cli``, whose subcommands call the layers through names
    imported into its own module namespace.
    """
    names = [n for n in vars(namespace) if hasattr(module, n)]
    saved = {n: getattr(module, n) for n in names}
    for n in names:
        setattr(module, n, getattr(namespace, n))
    try:
        yield
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)


def _duration(s) -> float:
    return s["end"] - s["start"]


def self_times(spans) -> dict:
    """Per layer: span time minus the part of it that child spans cover."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _duration(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += _duration(s) - children[s["id"]]
    return out


def _rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(spans) -> dict:
    """Per-layer metrics from the spans of one traced iteration and its set-up.

    A layer the workload does not call reads 0.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def secs(name, pred=lambda s: True):
        return sum(_duration(s) for s in by_name[name] if pred(s))

    def total(name, key, pred=lambda s: True):
        return sum(s["attrs"].get(key, 0) for s in by_name[name] if pred(s))

    def last(name, key):
        found = [s["attrs"][key] for s in by_name[name] if key in s["attrs"]]
        return found[-1] if found else 0.0

    m = {}
    m["eventsim.generate_s"] = secs("eventsim.generate_run")
    m["eventsim.events_written"] = total("eventsim.generate_run", "events")
    m["eventsim.bytes_written"] = total("eventsim.generate_run", "bytes")
    m["eventsim.pairs_passed"] = total("eventsim.generate_run", "pairs_passed")
    m["eventsim.read_s"] = secs("eventsim.read_events")
    m["eventsim.read_mb_per_s"] = _rate(total("eventsim.read_events", "bytes") / 1e6,
                                        m["eventsim.read_s"])

    m["coincidence.centroids_s"] = secs("coincidence.pooled_centroids")
    m["coincidence.match_s"] = secs("coincidence.find_coincidences")
    m["coincidence.match_events_per_s"] = _rate(
        total("coincidence.find_coincidences", "events"), m["coincidence.match_s"])
    m["coincidence.pairs"] = total("coincidence.find_coincidences", "pairs")
    m["coincidence.singles"] = total("coincidence.find_coincidences", "singles")
    m["coincidence.outside_roi"] = total("coincidence.find_coincidences", "outside_roi")
    m["coincidence.accidentals_s"] = secs("coincidence.accidental_estimate")
    m["coincidence.accidentals"] = total("coincidence.accidental_estimate", "accidentals")
    m["coincidence.bin_s"] = secs("coincidence.bin_polar")
    m["coincidence.dropped_by_radius"] = total("coincidence.bin_polar", "dropped_by_radius")

    def linear(s):
        return not s["attrs"].get("mle", False)

    def mle(s):
        return s["attrs"].get("mle", False)

    tomo = "tomography.angular_tomography"
    m["tomography.linear_s"] = secs(tomo, linear)
    m["tomography.linear_bins_per_s"] = _rate(total(tomo, "bins_used", linear),
                                              m["tomography.linear_s"])
    m["tomography.mle_s"] = secs(tomo, mle)
    m["tomography.mle_bins_per_s"] = _rate(total(tomo, "bins_used", mle),
                                           m["tomography.mle_s"])
    m["tomography.bins_used"] = total(tomo, "bins_used")
    m["tomography.low_stat_bins"] = total(tomo, "low_stat_bins")
    # summary statistics of the workload's last (finest) reconstruction
    m["tomography.avg_concurrence"] = last(tomo, "avg_concurrence")
    m["tomography.concurrence_se"] = last(tomo, "concurrence_se")
    m["tomography.avg_purity"] = last(tomo, "avg_purity")

    m["qplate_state.bell_map_s"] = secs("qplate_state.bell_probability_map")
    m["polarimetry.expected_histogram_s"] = secs("polarimetry.expected_histogram")

    for step in ("simulate", "generate", "coincide", "tomo", "report"):
        m[f"cli.{step}_s"] = secs(f"cli.{step}")
        m[f"cli.{step}.peak_rss_mb"] = last(f"cli.{step}", "peak_rss_mb")

    for layer, t in self_times(spans).items():
        m[f"{layer}.self_s"] = t
    return m


def median_metrics(dicts: list[dict]) -> dict:
    """Metric-wise median over several traced iterations."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
