"""Command-line pipeline: simulate | generate | coincide | tomo | report.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.  Every output
bundle echoes its parsed flags for provenance, and all commands are
deterministic given their configuration and seed.  A subcommand creates its
output directory only once its flags and inputs have been checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coincidence import (
    CoincidenceConfig,
    CoincidenceHistogram,
    PolarBinning,
    accidental_estimate,
    bin_polar,
    check_accidentals_offset,
    find_coincidences,
    roi_centroids,
    roi_images,
    split_rois,
    worker_count,
)
from .errors import ConfigurationError, FormatError
from .eventsim import (
    NoiseModel,
    RunManifest,
    default_manifest,
    generate_run,
    read_events,
)
from .gridio import write_csv_matrix, write_pgm
from .polarimetry import set_from_labels, standard_set
from .qplate_state import (
    BELL_LABELS,
    QPlateParams,
    bell_probability_map,
    evb_state,
    torus_coordinates,
)
from .tomography import angular_tomography


def _writejson(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_maps(out: Path, maps: dict, prefix: str = "") -> None:
    """Each angular map as <prefix><name>.csv and .pgm, one row per theta_s bin."""
    for name, m in maps.items():
        write_csv_matrix(out / f"{prefix}{name}.csv", m, header=f"{name}; rows are theta_s bins")
        write_pgm(out / f"{prefix}{name}.pgm", m)


def _config(args) -> dict:
    """The subcommand's parsed flags, minus the subcommand and its directories:
    the configuration each output bundle echoes."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "in", "out")}


def _plates(args) -> tuple[QPlateParams, QPlateParams]:
    waist = args.waist_px
    return (
        QPlateParams(args.qs, args.delta_s, waist),
        QPlateParams(args.qi, args.delta_i, waist),
    )


# ---------------------------------------------------------------------------
# Subcommands

def cmd_simulate(args) -> int:
    plate_s, plate_i = _plates(args)
    state = evb_state(plate_s, plate_i)
    maps, centers = bell_probability_map(
        state, args.ntheta, average_over_bins=args.average_bins
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_maps(out, maps, "bell_")
    write_csv_matrix(
        out / "torus.csv",
        torus_coordinates(maps, centers),
        header="theta_s,theta_i,x,y,z," + ",".join(BELL_LABELS),
    )
    _writejson(out / "bell_maps.json", {
        "config": _config(args),
        "theta_centers": centers.tolist(),
        "maps": {name: m.tolist() for name, m in maps.items()},
        "version": __version__,
    })
    print(f"wrote Bell maps ({args.ntheta}x{args.ntheta}) to {out}")
    return 0


def cmd_generate(args) -> int:
    out = Path(args.out)
    plate_s, plate_i = _plates(args)
    noise = NoiseModel(
        efficiency=args.efficiency,
        dark_rate=args.dark_rate,
        jitter_sigma=args.jitter_ns,
        werner_p=args.werner_p,
    )
    manifest = default_manifest(plate_s, plate_i, n_pairs=args.pairs,
                                pair_rate=args.pair_rate, noise=noise, rng_seed=args.seed)
    stats = generate_run(manifest, out)
    for s in stats:
        pairs = s["passed_entangled"] + s["passed_white"]
        accept = f", acceptance {pairs / s['angle_draws']:.3f}" if s["angle_draws"] else ""
        print(f"{s['setting']}: {s['events']} events ({pairs} pairs{accept})")
    print(f"wrote {len(stats)} event files + manifest.json to {out}")
    return 0


def _load(path: Path, parse):
    """``parse`` of the JSON in ``path``; a missing file, text not UTF-8 or not JSON, or JSON
    of the wrong shape or with a rejected value (a KeyError, TypeError, AttributeError or
    ValueError, FormatError included), is a FormatError naming the file."""
    if not path.exists():
        raise FormatError(f"missing input: no {path.name} in {path.parent}")
    try:
        return parse(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed input ({type(exc).__name__}: {exc})") from None


def _load_run(run_dir: Path) -> tuple[RunManifest, dict]:
    """The run's manifest and the path of each setting's event file."""
    manifest = _load(run_dir / "manifest.json", RunManifest.from_dict)
    paths = {}
    for label, fname in manifest.settings.items():
        paths[label] = run_dir / fname
        if not paths[label].exists():
            raise FormatError(f"missing event file for setting {label}: {paths[label]}")
    return manifest, paths


def cmd_coincide(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    config = CoincidenceConfig(window=args.window_ns)
    binning = PolarBinning(n_theta=args.ntheta, r_max=args.r_max)
    offset = 1000 * config.window
    if args.subtract_accidentals:
        check_accidentals_offset(config, offset)
    workers = worker_count()
    manifest, paths = _load_run(Path(getattr(args, "in")))
    geometry = manifest.geometry

    # Each job reads and splits its setting's file once and keeps its matches
    # (4 B per pair) and ROI images; the pooled centroids of the summed images
    # then serve the binning of every setting.
    def job(label: str):
        streams = split_rois(read_events(paths[label]), geometry)
        result = find_coincidences(streams, geometry, config)
        acc = (accidental_estimate(streams, geometry, config, offset=offset)
               if args.subtract_accidentals else 0)
        return result, acc, roi_images(streams, geometry)

    rois = (geometry.roi_signal, geometry.roi_idler)
    pooled = [np.zeros(r.width * r.height, np.int64) for r in rois]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(job, paths))
        for *_, images in done:
            for total, image in zip(pooled, images):
                total += image
        centroid_s, centroid_i = roi_centroids(pooled, geometry)
        binning = dataclasses.replace(binning, centroid_s=centroid_s, centroid_i=centroid_i)
        hists = list(pool.map(lambda d, label: bin_polar(d[0], binning, label), done, paths))
    bundle = {}
    for hist, (result, acc, _) in zip(hists, done):
        if args.subtract_accidentals:
            # The estimate is one greedy count with the idler times shifted,
            # spread evenly over the bins; it counts shifted pairs beyond
            # r_max too, so it overcorrects.
            per_bin = acc / (binning.n_theta**2)
            hist.counts_theta = np.maximum(hist.counts_theta - per_bin, 0.0)
        bundle[hist.setting] = hist.to_dict()
        print(f"{hist.setting}: {hist.total_pairs} pairs ({hist.total_singles} singles, "
              f"{hist.dropped_by_radius} beyond r_max, {result.n_contended} contended)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _writejson(out / "histograms.json", {
        "config": _config(args),
        "settings": bundle,
        "version": __version__,
    })
    print(f"wrote the histograms of all {len(bundle)} settings to {out / 'histograms.json'}")
    return 0


def cmd_tomo(args) -> int:
    hists = _load(Path(getattr(args, "in")) / "histograms.json", lambda bundle: [
        CoincidenceHistogram.from_dict(d) for d in bundle["settings"].values()])
    labels = sorted(h.setting for h in hists)
    std = standard_set()
    tset = std if sorted(std.labels) == labels else set_from_labels(labels)
    tomo = angular_tomography(
        hists, tset, mle=args.mle, min_counts=args.min_counts
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _writejson(out / "tomography.json", {"config": _config(args), **tomo.to_dict(),
                                         "version": __version__})
    _write_maps(out, {name: tomo.metric_map(name) for name in ("concurrence", "purity")})
    _write_maps(out, tomo.bell_maps(), "bell_")
    print(f"average concurrence {tomo.average_concurrence:.4f} over {tomo.bins_used} bins "
          f"(spread between bins {tomo.concurrence_se:.4f})")
    if tomo.mle:
        print(f"MLE did not converge in {tomo.mle_nonconverged} of {tomo.bins_used} bins")
    print(f"wrote tomography outputs to {out}")
    return 0


def _numbers(value, error: str, finite: bool = True) -> np.ndarray:
    """``value``, a JSON number or lists of them, as floats; a string, a bool
    and, unless ``finite`` is false, NaN or an infinity raise ValueError(``error``)."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or finite and not np.all(np.isfinite(a)):
        raise ValueError(error)
    return a.astype(float)


def _bell_maps(bundle: dict) -> dict:
    """The Bell maps of a ``tomography.json`` bundle, whose bins are the grid's in
    row-major order: each used bin's overlaps, NaN in the low-statistics bins."""
    n = bundle["n_theta"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n_theta must be a positive integer, got {n!r}")
    cells = [(b["bin_s"], b["bin_i"]) for b in bundle["bins"]]
    if (len(cells) != n * n or cells != [divmod(k, n) for k in range(n * n)]
            or any(type(k) is not int for cell in cells for k in cell)):
        raise ValueError(f"the bins are not the {n}x{n} grid's in row-major order")
    maps = {name: np.full((n, n), np.nan) for name in BELL_LABELS}
    for (i, j), b in zip(cells, bundle["bins"]):
        if type(b["low_statistics"]) is not bool:
            raise ValueError(f"bin ({i}, {j}): low_statistics must be a boolean")
        if not b["low_statistics"]:
            for name in BELL_LABELS:
                maps[name][i, j] = _numbers(b["bell"][name],
                                            f"bin ({i}, {j}): {name} is not a finite number")
    return maps


def cmd_report(args) -> int:
    if args.band is not None:
        lo, hi = args.band
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"--band needs finite LO <= HI, got {lo} {hi}")
    tomo, recon = _load(Path(getattr(args, "in")) / "tomography.json", lambda d: (
        {k: float(_numbers(d[k], f"{k} is not a number", finite=False))  # NaN over no bins
         for k in ("average_concurrence", "concurrence_se")}, _bell_maps(d)))
    analytic = _load(Path(args.analytic) / "bell_maps.json", lambda d: {
        name: _numbers(d["maps"][name], f"map {name} is not a matrix of finite numbers")
        for name in BELL_LABELS})

    lines = []
    metrics = {}
    for name in BELL_LABELS:
        a = analytic[name]
        r = recon[name]
        if a.shape != r.shape:
            raise ConfigurationError(
                f"grid size mismatch for {name}: analytic {a.shape} vs reconstructed {r.shape}"
            )
        valid = np.isfinite(r)
        diff = (r - a)[valid]
        rms = float(np.sqrt(np.mean(diff**2))) if diff.size else float("nan")
        mx = float(np.max(np.abs(diff))) if diff.size else float("nan")
        if diff.size and np.std(a[valid]) > 0 and np.std(r[valid]) > 0:
            corr = float(np.corrcoef(a[valid].ravel(), r[valid].ravel())[0, 1])
        else:
            corr = float("nan")
        metrics[name] = {"rms": rms, "max": mx, "correlation": corr}
        lines.append(f"{name:10s} rms={rms:.4f} max={mx:.4f} corr={corr:.4f}")

    avg_c = tomo["average_concurrence"]
    se = tomo["concurrence_se"]
    lines.append(f"average concurrence {avg_c:.4f} (spread between bins {se:.4f})")
    band_ok = None
    if args.band is not None:
        lo, hi = args.band
        band_ok = bool(lo <= avg_c <= hi)
        lines.append(
            f"concurrence band check: {avg_c:.4f} within [{lo:.3f}, {hi:.3f}]: "
            f"{'yes' if band_ok else 'NO'} "
            "(band comparison against the reference range, not a point match)"
        )
    report = {
        "bell_map_errors": metrics,
        "average_concurrence": avg_c,
        "concurrence_se": se,
        "band": list(args.band) if args.band is not None else None,
        "band_ok": band_ok,
        "version": __version__,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _writejson(out / "report.json", report)
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="evblab",
        description="simulate, generate, and analyze entangled-vector-beam runs",
    )
    p.add_argument("--version", action="version", version=f"evblab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def plate_flags(sp):
        sp.add_argument("--qs", type=float, required=True,
                        help="signal plate charge (half-integer)")
        sp.add_argument("--qi", type=float, required=True,
                        help="idler plate charge (half-integer)")
        sp.add_argument("--delta-s", type=float, default=math.pi,
                        help="signal plate retardation in radians (default pi)")
        sp.add_argument("--delta-i", type=float, default=math.pi,
                        help="idler plate retardation in radians (default pi)")
        sp.add_argument("--waist-px", type=float, default=10.0,
                        help="beam waist at the camera, pixels")

    sim = sub.add_parser("simulate", help="write analytic Bell probability maps")
    plate_flags(sim)
    sim.add_argument("--ntheta", type=int, default=16)
    sim.add_argument("--average-bins", action="store_true",
                     help="average the maps over angular bins instead of sampling centers")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    gen = sub.add_parser("generate", help="synthesize a 16-setting event run")
    plate_flags(gen)
    gen.add_argument("--pairs", type=float, default=100_000,
                     help="source pairs per setting run")
    gen.add_argument("--pair-rate", type=float, default=10_000.0,
                     help="source pairs per second")
    gen.add_argument("--efficiency", type=float, default=1.0)
    gen.add_argument("--dark-rate", type=float, default=0.0,
                     help="dark events per second per pixel")
    gen.add_argument("--jitter-ns", type=float, default=1.0)
    gen.add_argument("--werner-p", type=float, default=1.0,
                     help="polarization purity: 1 = pure state, 0 = white noise")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    coi = sub.add_parser("coincide", help="find pairs and build polar histograms")
    coi.add_argument("--in", required=True, help="run directory with manifest.json")
    coi.add_argument("--out", required=True)
    coi.add_argument("--window-ns", type=float, default=10.0)
    coi.add_argument("--ntheta", type=int, default=16)
    coi.add_argument("--r-max", type=float, default=20.0)
    coi.add_argument("--subtract-accidentals", action="store_true")
    coi.set_defaults(func=cmd_coincide)

    tom = sub.add_parser("tomo", help="per-bin density matrices and metrics")
    tom.add_argument("--in", required=True, help="directory with histograms.json")
    tom.add_argument("--out", required=True)
    tom.add_argument("--mle", action="store_true",
                     help="refine each bin by maximum likelihood")
    tom.add_argument("--min-counts", type=int, default=200)
    tom.set_defaults(func=cmd_tomo)

    rep = sub.add_parser("report", help="compare reconstruction against analytic maps")
    rep.add_argument("--in", required=True, help="tomography output directory")
    rep.add_argument("--analytic", required=True, help="simulate output directory")
    rep.add_argument("--out", required=True)
    rep.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                     help="reference concurrence band to check the average against")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # FormatError and ConfigurationError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
