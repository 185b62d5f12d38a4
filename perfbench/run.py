"""evblab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload ideal_chain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; evblab is imported from its ``src``.  The
process is a closed loop with one caller: it sets the workload up several
times (median reported as ``setup_s``), then runs timed iterations until
``--seconds`` have passed, checking each one's outputs.  With ``--trace 1``
traced and untraced iterations alternate; the traced ones give the per-layer
metrics, and the difference of the two medians is the tracing overhead.
Spans are written to ``perfbench/_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"  # metric names and units
# set-ups before the first iteration, and after each iteration: a set-up takes
# tens of ms, so its samples are spread over the run to average the machine's
# slower swings
SETUP_REPEATS_FIRST = 11
SETUP_REPEATS_BETWEEN = 5


def pin_threads() -> dict:
    """Evblab workers on every core this process may use, BLAS on one thread.

    Must run before numpy is imported.
    """
    pins = {"EVBLAB_THREADS": str(len(os.sched_getaffinity(0))),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    os.environ.update(pins)
    return pins


def machine_facts(pins: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pins": pins}


def tail_summary(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s, n={n}"
    if n < 20:
        return text + " (no percentile above the median has ten samples beyond it)"
    p = math.floor(100 * (1 - 10 / n))
    return text + f", p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ideal_chain", "noisy_cli", "tomo_mle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pins = pin_threads()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer(enabled=False)
    setup_times = []

    def set_up(repeats: int, trace_last: bool) -> None:
        for rep in range(repeats):
            tracer.enabled = trace_last and rep == repeats - 1
            tracer.run_id = "setup"
            t0 = time.perf_counter()
            workload.setup(tracer)
            setup_times.append(time.perf_counter() - t0)

    try:
        # only the last of these is traced, for the per-layer set-up metrics
        set_up(SETUP_REPEATS_FIRST, trace_last=bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    work_root = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    walls = {False: [], True: []}
    bins, layer_runs, counters, failures = [], [], {}, []
    attempted = 0
    started = time.perf_counter()
    try:
        while (attempted < (2 if args.trace else 1)
               or time.perf_counter() - started < args.seconds):
            k = attempted
            attempted += 1
            traced = bool(args.trace) and k % 2 == 0
            tracer.enabled, tracer.run_id = traced, f"{args.workload}-{args.seed}-{k}"
            shutil.rmtree(work_root, ignore_errors=True)
            work_root.mkdir(parents=True)
            out = inputs = None
            try:
                inputs = workload.inputs(k)
                t0 = time.perf_counter()
                out = workload.run(inputs, work_root, tracer)
                walls[traced].append(time.perf_counter() - t0)
                if k == 0:
                    # one chain in a fresh process, as a user running it once sees
                    peak_rss = tracing.peak_rss_mb()
                problems = workload.check(out)
                if traced and not counters:
                    counters = workload.counters(out, work_root)
            except Exception:
                problems = [traceback.format_exc()]
            if traced:
                layer_runs.append(tracing.per_layer(
                    tracer.run_spans("setup") + tracer.run_spans(tracer.run_id)))
            if problems:
                failures.append((k, problems))
                for p in problems:
                    print(f"iteration {k} failed: {p}", file=sys.stderr)
            elif out is not None:
                bins.append(out.bins)
                source_pairs = out.source_pairs
            del out, inputs
            set_up(SETUP_REPEATS_BETWEEN, trace_last=False)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    tracer.enabled = False

    facts = machine_facts(pins)
    wall = statistics.median(walls[False] or walls[True] or [float("nan")])
    ok = not failures and bins
    if args.trace:
        metrics = {}
        if layer_runs:
            metrics.update(tracing.median_metrics(layer_runs))
            # a high-water mark says something per step only in the first iteration
            metrics.update({k: v for k, v in layer_runs[0].items() if k.endswith("peak_rss_mb")})
        metrics.update(dict.fromkeys(workloads.COUNTERS, 0.0))
        metrics.update(counters)
        traced_wall = statistics.median(walls[True]) if walls[True] else float("nan")
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.spans"] = len(tracer.spans)
    else:
        metrics = {
            "wall_s": wall,
            "pairs_per_s": source_pairs / wall if ok else 0.0,
            "bins_per_s": statistics.median(bins) / wall if ok else 0.0,
            "peak_rss_mb": peak_rss if ok else 0.0,
            "setup_s": statistics.median(setup_times),
        }
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from {SPEC.name}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    metrics = {name: metrics[name] for name in units}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} iterations, {len(failures)} failed")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for traced in (False, True):
        if walls[traced]:
            label = "traced wall_s" if traced else "wall_s"
            print(f"{label}: {tail_summary(walls[traced])}; samples "
                  + " ".join(f"{w:.3f}" for w in walls[traced]))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace:
        path = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "machine": facts,
                            "walls_untraced": walls[False], "walls_traced": walls[True],
                            "metrics": metrics})
        print(f"spans written to {path.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": bool(ok),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
