import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evblab import cli, coincidence
from evblab.cli import main
from evblab.coincidence import CoincidenceConfig, find_coincidences
from evblab.eventsim import RunManifest, default_manifest, read_events
from evblab.polarimetry import standard_set
from evblab.qplate_state import BELL_LABELS, QPlateParams


def run_cli(*args):
    return main(list(args))


def test_missing_required_flag_exits_2(tmp_path):
    # argparse usage errors exit with status 2
    proc = subprocess.run(
        [sys.executable, "-m", "evblab.cli", "simulate", "--out", str(tmp_path)],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert b"--qs" in proc.stderr or b"usage" in proc.stderr.lower()


def test_cli_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "evblab.cli", "--version"], capture_output=True
    )
    assert proc.returncode == 0


def test_simulate_tuned_zero_maps(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--qs", "0.5", "--qi", "0.5", "--ntheta", "8",
                   "--out", str(out)) == 0
    phim = np.loadtxt(out / "bell_phi_minus.csv", delimiter=",")
    assert phim.shape == (8, 8)
    assert np.max(np.abs(phim)) < 1e-12
    bundle = json.loads((out / "bell_maps.json").read_text())
    assert bundle["config"]["qs"] == 0.5
    assert len(bundle["theta_centers"]) == 8
    assert (out / "torus.csv").exists()
    assert (out / "bell_psi_minus.pgm").read_bytes()[:2] == b"P5"


def test_simulate_opposite_charges_antidiagonal_pattern(tmp_path):
    out = tmp_path / "sim2"
    run_cli("simulate", "--qs", "-0.5", "--qi", "0.5", "--ntheta", "16",
            "--out", str(out))
    psim = np.loadtxt(out / "bell_psi_minus.csv", delimiter=",")
    centers = (np.arange(16) + 0.5) * 2 * np.pi / 16
    TS, TI = np.meshgrid(centers, centers, indexing="ij")
    np.testing.assert_allclose(psim, np.cos(TS + TI) ** 2, atol=1e-9)


def test_plate_charge_beyond_mode_bound_exits_1(tmp_path, capsys):
    # |q| = 4.5 makes |l| = 9 > 8: every path that builds the state rejects it
    for cmd in ("simulate", "generate"):
        assert run_cli(cmd, "--qs", "4.5", "--qi", "0.5", "--out", str(tmp_path / cmd)) == 1
        assert "exceeds the supported bound 8" in capsys.readouterr().err
        assert not (tmp_path / cmd).exists()


def test_generate_requires_positive_duration(tmp_path, capsys):
    # the error names the flag that was set, not the duration derived from it
    for pairs in ("0", "-5", "inf"):
        out = tmp_path / f"run{pairs}"
        assert run_cli("generate", "--qs", "0.5", "--qi", "0.5", "--pairs", pairs,
                       "--out", str(out)) == 1
        assert "error: pairs must be positive" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("rate", ["0", "-5", "inf"])
def test_generate_rejects_nonpositive_pair_rate(tmp_path, rate):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "evblab.cli", "generate", "--qs", "0.5", "--qi", "0.5",
         "--pairs", "100", "--pair-rate", rate, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error: pair rate must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_generate_deterministic_across_thread_env(tmp_path, monkeypatch):
    args = ["generate", "--qs", "0.5", "--qi", "1", "--pairs", "3000",
            "--seed", "5", "--jitter-ns", "0.5"]
    monkeypatch.setenv("EVBLAB_THREADS", "1")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    monkeypatch.setenv("EVBLAB_THREADS", "3")
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 17  # 16 event files + manifest
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_prints_acceptance(tmp_path, capsys):
    # pairs per angle draw: 1/envelope, so about 1/2 for HH (two interfering
    # terms) and exactly 1 for HL (one term) of the (1/2, 1) plates
    assert run_cli("generate", "--qs", "0.5", "--qi", "1", "--pairs", "8000", "--seed", "5",
                   "--out", str(tmp_path / "run")) == 0
    lines = dict(l.split(": ", 1) for l in capsys.readouterr().out.splitlines() if ": " in l)
    accept = {lab: float(lines[lab].rsplit("acceptance ", 1)[1].rstrip(")")) for lab in ("HH", "HL")}
    assert abs(accept["HH"] - 0.5) < 0.05
    assert accept["HL"] == 1.0


def test_generate_rejects_non_integer_thread_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EVBLAB_THREADS", "two")
    assert run_cli("generate", "--qs", "0.5", "--qi", "0.5", "--pairs", "100",
                   "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "EVBLAB_THREADS" in err and "'two'" in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    run_dir = root / "run"
    rc = main(["generate", "--qs", "0.5", "--qi", "0.5", "--pairs", "60000",
               "--seed", "3", "--jitter-ns", "0", "--out", str(run_dir)])
    assert rc == 0
    return run_dir


def test_coincide_outputs(small_run, tmp_path, capsys):
    out = tmp_path / "coinc"
    rc = main(["coincide", "--in", str(small_run), "--out", str(out),
               "--ntheta", "8"])
    assert rc == 0
    bundle = json.loads((out / "histograms.json").read_text())
    assert sorted(bundle["settings"]) == sorted(standard_set().labels)
    hh = bundle["settings"]["HH"]
    assert np.array(hh["counts_theta"]).shape == (8, 8)
    # the bundle is the only histogram output; tomo reads nothing else
    assert not list(out.glob("hist_*.json"))
    # the contended count goes to the summary lines, not into the bundle
    manifest = RunManifest.from_json((small_run / "manifest.json").read_text())
    events = read_events(small_run / manifest.settings["HH"])
    n = find_coincidences(events, manifest.geometry, CoincidenceConfig()).n_contended
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("HH:"))
    assert line.endswith(f" beyond r_max, {n} contended)")
    assert "contended" not in (out / "histograms.json").read_text()


def test_coincide_rejects_corrupt_magic(small_run, tmp_path):
    import shutil

    broken = tmp_path / "broken_run"
    shutil.copytree(small_run, broken)
    victim = broken / "events_HH.evb"
    raw = bytearray(victim.read_bytes())
    raw[:4] = b"ZZZZ"
    victim.write_bytes(bytes(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "evblab.cli", "coincide", "--in", str(broken),
         "--out", str(tmp_path / "x")],
        capture_output=True,
    )
    assert proc.returncode == 1
    assert b"EVB1" in proc.stderr


def test_coincide_missing_file_names_setting(small_run, tmp_path):
    import shutil

    broken = tmp_path / "missing_run"
    shutil.copytree(small_run, broken)
    (broken / "events_AL.evb").unlink()
    proc = subprocess.run(
        [sys.executable, "-m", "evblab.cli", "coincide", "--in", str(broken),
         "--out", str(tmp_path / "y")],
        capture_output=True,
    )
    assert proc.returncode == 1
    assert b"AL" in proc.stderr


def test_tomo_and_report_end_to_end(small_run, tmp_path):
    coinc = tmp_path / "c"
    tomo = tmp_path / "t"
    sim = tmp_path / "s"
    rep = tmp_path / "r"
    assert main(["coincide", "--in", str(small_run), "--out", str(coinc),
                 "--ntheta", "8"]) == 0
    assert main(["tomo", "--in", str(coinc), "--out", str(tomo),
                 "--min-counts", "100"]) == 0
    data = json.loads((tomo / "tomography.json").read_text())
    assert data["n_theta"] == 8
    assert 0.5 < data["average_concurrence"] <= 1.0
    assert (tomo / "concurrence.csv").exists()
    assert (tomo / "bell_psi_minus.pgm").exists()

    # 8 angular bins smear the state rotation heavily, so the recovered
    # average concurrence sits well below 1 even on a clean run
    assert main(["simulate", "--qs", "0.5", "--qi", "0.5", "--ntheta", "8",
                 "--average-bins", "--out", str(sim)]) == 0
    assert main(["report", "--in", str(tomo), "--analytic", str(sim),
                 "--out", str(rep), "--band", "0.7", "1.0"]) == 0
    report = json.loads((rep / "report.json").read_text())
    assert set(report["bell_map_errors"]) == {
        "phi_plus", "phi_minus", "psi_plus", "psi_minus"
    }
    assert report["band_ok"] is True
    text = (rep / "report.txt").read_text()
    assert "band comparison" in text
    # concurrence_se is how the state varies over the grid, not an error bar
    assert f"(spread between bins {report['concurrence_se']:.4f})" in text
    assert "+/-" not in text


def test_tomo_mle_reports_nonconverged_bins(small_run, tmp_path, capsys):
    coinc = tmp_path / "c"
    tomo = tmp_path / "t"
    assert main(["coincide", "--in", str(small_run), "--out", str(coinc),
                 "--ntheta", "4"]) == 0
    assert main(["tomo", "--in", str(coinc), "--out", str(tomo), "--mle"]) == 0
    data = json.loads((tomo / "tomography.json").read_text())
    n = data["mle_nonconverged"]
    assert 0 <= n <= data["bins_used"]
    assert f"MLE did not converge in {n} of {data['bins_used']} bins" in capsys.readouterr().out


def test_report_identical_inputs_zero_rms(small_run, tmp_path):
    sim = tmp_path / "sim"
    rep = tmp_path / "rep"
    assert main(["simulate", "--qs", "0.5", "--qi", "1", "--ntheta", "8",
                 "--out", str(sim)]) == 0
    # build a fake tomography bundle whose bins carry the analytic Bell overlaps
    fake = tmp_path / "fake_tomo"
    fake.mkdir()
    maps = json.loads((sim / "bell_maps.json").read_text())["maps"]
    (fake / "tomography.json").write_text(json.dumps({
        "average_concurrence": 1.0, "concurrence_se": 0.0, "n_theta": 8,
        "bins": [{"bin_s": i, "bin_i": j, "low_statistics": False,
                  "bell": {name: m[i][j] for name, m in maps.items()}}
                 for i in range(8) for j in range(8)],
    }))
    assert main(["report", "--in", str(fake), "--analytic", str(sim),
                 "--out", str(rep)]) == 0
    report = json.loads((rep / "report.json").read_text())
    for err in report["bell_map_errors"].values():
        assert err["rms"] == pytest.approx(0.0, abs=1e-12)
        assert err["max"] == pytest.approx(0.0, abs=1e-12)


def test_report_reads_only_the_bundles(small_run, tmp_path):
    # the CSV and PGM maps that tomo writes are exports: report gives the same
    # output without them, low-statistics bins included
    coinc, tomo, sim = tmp_path / "c", tmp_path / "t", tmp_path / "s"
    assert main(["coincide", "--in", str(small_run), "--out", str(coinc),
                 "--ntheta", "8"]) == 0
    hists = json.loads((coinc / "histograms.json").read_text())["settings"].values()
    totals = sum(np.asarray(d["counts_theta"]) for d in hists)
    assert main(["tomo", "--in", str(coinc), "--out", str(tomo),
                 "--min-counts", str(int(np.median(totals)))]) == 0
    assert 0 < json.loads((tomo / "tomography.json").read_text())["bins_used"] < 64
    assert main(["simulate", "--qs", "0.5", "--qi", "0.5", "--ntheta", "8",
                 "--average-bins", "--out", str(sim)]) == 0

    def report(out):
        assert main(["report", "--in", str(tomo), "--analytic", str(sim),
                     "--out", str(out), "--band", "0.5", "1.0"]) == 0
        return [(out / f).read_bytes() for f in ("report.json", "report.txt")]

    before = report(tmp_path / "r1")
    exports = [*tomo.glob("*.csv"), *tomo.glob("*.pgm")]
    assert len(exports) == 12  # concurrence, purity and four Bell maps
    for f in exports:
        f.unlink()
    assert report(tmp_path / "r2") == before


def test_report_grid_mismatch_is_error(small_run, tmp_path):
    sim8 = tmp_path / "sim8"
    sim16 = tmp_path / "sim16"
    coinc = tmp_path / "c2"
    tomo = tmp_path / "t2"
    assert main(["simulate", "--qs", "0.5", "--qi", "0.5", "--ntheta", "16",
                 "--out", str(sim16)]) == 0
    assert main(["coincide", "--in", str(small_run), "--out", str(coinc),
                 "--ntheta", "8"]) == 0
    assert main(["tomo", "--in", str(coinc), "--out", str(tomo),
                 "--min-counts", "100"]) == 0
    rc = main(["report", "--in", str(tomo), "--analytic", str(sim16),
               "--out", str(tmp_path / "r2")])
    assert rc == 1


def test_simulate_partial_tuning_populates_all_maps(tmp_path):
    out = tmp_path / "pt"
    assert run_cli("simulate", "--qs", "0.5", "--qi", "1",
                   "--delta-s", str(np.pi / 2), "--delta-i", str(np.pi / 2),
                   "--ntheta", "8", "--out", str(out)) == 0
    for name in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
        m = np.loadtxt(out / f"bell_{name}.csv", delimiter=",")
        assert m.max() > 1e-3  # every Bell state contributes when half-tuned


def test_coincide_subtract_accidentals(tmp_path):
    run_dir = tmp_path / "noisy_run"
    assert main(["generate", "--qs", "0.5", "--qi", "0.5", "--pairs", "20000",
                 "--dark-rate", "50", "--jitter-ns", "0", "--seed", "8",
                 "--out", str(run_dir)]) == 0
    plain = tmp_path / "plain"
    subtracted = tmp_path / "sub"
    assert main(["coincide", "--in", str(run_dir), "--out", str(plain)]) == 0
    assert main(["coincide", "--in", str(run_dir), "--out", str(subtracted),
                 "--subtract-accidentals"]) == 0
    a = json.loads((plain / "histograms.json").read_text())
    b = json.loads((subtracted / "histograms.json").read_text())
    assert b["config"]["subtract_accidentals"] is True
    for lab in a["settings"]:
        tot_a = np.array(a["settings"][lab]["counts_theta"]).sum()
        tot_b = np.array(b["settings"][lab]["counts_theta"]).sum()
        assert tot_b <= tot_a


def test_coincide_splits_each_setting_once(small_run, tmp_path, monkeypatch):
    # matching and the accidentals pass share one ROI split per setting
    real = coincidence.split_rois
    calls = []

    def spy(events, geometry):
        if not isinstance(events, coincidence.RoiStreams):  # a split passes through
            calls.append(len(events))
        return real(events, geometry)

    monkeypatch.setattr(coincidence, "split_rois", spy)
    monkeypatch.setattr(cli, "split_rois", spy)
    assert main(["coincide", "--in", str(small_run), "--out", str(tmp_path / "c"),
                 "--subtract-accidentals"]) == 0
    assert len(calls) == 16


def test_coincide_reads_each_event_file_once(small_run, tmp_path, monkeypatch):
    # the pooled centroids come from the jobs' ROI images, not from a pass of their own
    real = cli.read_events
    paths = []

    def spy(path):
        paths.append(path)
        return real(path)

    monkeypatch.setattr(cli, "read_events", spy)
    assert main(["coincide", "--in", str(small_run), "--out", str(tmp_path / "c"),
                 "--subtract-accidentals"]) == 0
    assert len(paths) == len(set(paths)) == 16


def test_coincide_deterministic_across_thread_env(tmp_path, monkeypatch, capsys):
    # settings are matched on a worker pool; the bundle and the summary lines
    # keep manifest order and do not depend on the worker count
    run_dir = tmp_path / "noisy_run"
    assert main(["generate", "--qs", "0.5", "--qi", "0.5", "--pairs", "20000",
                 "--dark-rate", "50", "--jitter-ns", "1", "--werner-p", "0.7",
                 "--seed", "4", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    outputs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("EVBLAB_THREADS", threads)
        out = tmp_path / f"c{threads}"
        assert main(["coincide", "--in", str(run_dir), "--out", str(out),
                     "--subtract-accidentals"]) == 0
        text = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append(((out / "histograms.json").read_bytes(), text))
    assert outputs[0] == outputs[1]
    labels = RunManifest.from_json((run_dir / "manifest.json").read_text()).settings
    assert [ln.split(":")[0] for ln in outputs[0][1].splitlines()[:-1]] == list(labels)


def test_coincide_rejects_non_integer_thread_cap(small_run, tmp_path, monkeypatch, capsys):
    reads = []

    def spy(path):
        reads.append(path)
        return read_events(path)

    monkeypatch.setattr(cli, "read_events", spy)
    monkeypatch.setenv("EVBLAB_THREADS", "two")
    out = tmp_path / "c"
    assert main(["coincide", "--in", str(small_run), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "EVBLAB_THREADS" in err and "'two'" in err
    assert not out.exists()
    assert reads == []


def test_coincide_rejects_unsorted_event_file(small_run, tmp_path, capsys):
    import shutil

    from evblab.eventsim import write_events

    broken = tmp_path / "unsorted_run"
    shutil.copytree(small_run, broken)
    events = read_events(broken / "events_HV.evb")
    events["t"][11] = events["t"][10] - 1
    write_events(broken / "events_HV.evb", events)
    out = tmp_path / "c"
    assert main(["coincide", "--in", str(broken), "--out", str(out)]) == 1
    assert "not sorted by time" in capsys.readouterr().err
    assert not out.exists()


def test_coincide_rejects_accidentals_offset_beyond_int64(small_run, tmp_path, capsys):
    # the accidentals shift is 1000 windows: 1e19 ns would overflow int64 times
    out = tmp_path / "c"
    assert main(["coincide", "--in", str(small_run), "--out", str(out),
                 "--subtract-accidentals", "--window-ns", "1e16"]) == 1
    assert "error: accidentals offset 1e+19 ns exceeds 2**62 ns" in capsys.readouterr().err
    assert not out.exists()


def test_coincide_zero_event_files(tmp_path):
    # a run with efficiency 0 still produces valid (empty) histograms
    run_dir = tmp_path / "empty_run"
    assert main(["generate", "--qs", "0.5", "--qi", "0.5", "--pairs", "100",
                 "--efficiency", "0", "--seed", "1", "--out", str(run_dir)]) == 0
    out = tmp_path / "empty_coinc"
    assert main(["coincide", "--in", str(run_dir), "--out", str(out)]) == 0
    bundle = json.loads((out / "histograms.json").read_text())
    assert all(
        np.array(d["counts_theta"]).sum() == 0 for d in bundle["settings"].values()
    )


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--qs", "0.5", "--qi", "0.5", "--ntheta", "3"], "need at least 4 angular bins"),
    (["coincide", "--in", "{missing}"], "no manifest.json in"),
    (["tomo", "--in", "{missing}"], "no histograms.json in"),
    (["report", "--in", "{missing}", "--analytic", "{missing}"], "missing input"),
    (["coincide", "--in", "{run}", "--ntheta", "0"], "need at least one bin per axis"),
    (["coincide", "--in", "{run}", "--r-max", "-1"], "r_max must be positive"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--dark-rate", "inf"],
     "dark rate must be finite and nonnegative, got inf"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--dark-rate", "nan"],
     "dark rate must be finite and nonnegative, got nan"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--jitter-ns", "nan"],
     "jitter must be finite and nonnegative, got nan"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--jitter-ns", "inf"],
     "jitter must be finite and nonnegative, got inf"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--pairs", "2000", "--pair-rate", "1e-8",
      "--seed", "1"],
     "run span 2e+20 ns (duration 2e+11 s plus 10 jitter widths of 1 ns) reaches 2**62 ns"),
    (["generate", "--qs", "0.5", "--qi", "0.5", "--jitter-ns", "1e30", "--seed", "1"],
     "10 jitter widths of 1e+30 ns) reaches 2**62 ns"),
    (["report", "--in", "{missing}", "--analytic", "{missing}", "--band", "0.6", "0.5"],
     "--band needs finite LO <= HI, got 0.6 0.5"),
    (["report", "--in", "{missing}", "--analytic", "{missing}", "--band", "nan", "1"],
     "--band needs finite LO <= HI, got nan 1.0"),
    (["coincide", "--in", "{run}", "--window-ns", "inf"],
     "coincidence window must be positive and finite, got inf"),
    (["coincide", "--in", "{run}", "--r-max", "inf"], "r_max must be positive and finite, got inf"),
    (["coincide", "--in", "{run}", "--window-ns", "1e16", "--subtract-accidentals"],
     "accidentals offset 1e+19 ns exceeds 2**62 ns"),
    (["simulate", "--qs", "inf", "--qi", "0.5"], "charge q must be a finite half-integer, got inf"),
    (["generate", "--qs", "0.5", "--qi", "nan"], "charge q must be a finite half-integer, got nan"),
], ids=["simulate-ntheta", "coincide-no-run", "tomo-no-bundle", "report-no-inputs",
        "coincide-ntheta", "coincide-r-max", "generate-seed", "generate-dark-rate-inf",
        "generate-dark-rate-nan", "generate-jitter-nan", "generate-jitter-inf",
        "generate-time-span", "generate-jitter-span", "report-band-reversed", "report-band-nan",
        "coincide-window-inf", "coincide-r-max-inf", "coincide-accidentals-offset",
        "simulate-qs-inf", "generate-qi-nan"])
def test_bad_input_leaves_no_output_directory(small_run, tmp_path, monkeypatch, capsys,
                                              argv, message):
    # flags and inputs are checked before any event file is read or --out is made
    reads = []

    def spy(path):
        reads.append(path)
        return read_events(path)

    monkeypatch.setattr(cli, "read_events", spy)
    out = tmp_path / "out"
    argv = [a.format(run=small_run, missing=tmp_path / "missing") for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert reads == []


def test_coincide_reads_a_manifest_with_beam_centres(small_run, tmp_path):
    # manifests used to record each beam's centre, always its ROI centre:
    # one of that format loads to the same geometry and gives the same histograms
    old = tmp_path / "old"
    old.mkdir()
    for f in small_run.glob("*.evb"):
        (old / f.name).symlink_to(f)
    d = json.loads((small_run / "manifest.json").read_text())
    assert "centroid_s" not in d["geometry"]
    d["geometry"] = {"centroid_i": [97.5, 29.5], "centroid_s": [29.5, 29.5], "height": 64,
                     "roi_idler": [78, 10, 40, 40], "roi_signal": [10, 10, 40, 40],
                     "waist_px": 10.0, "width": 128}
    (old / "manifest.json").write_text(json.dumps(d, indent=2, sort_keys=True))
    loaded = RunManifest.from_json((old / "manifest.json").read_text())
    assert loaded == RunManifest.from_json((small_run / "manifest.json").read_text())
    for run, out in ((small_run, tmp_path / "new_c"), (old, tmp_path / "old_c")):
        assert main(["coincide", "--in", str(run), "--out", str(out)]) == 0
    assert ((tmp_path / "old_c" / "histograms.json").read_bytes()
            == (tmp_path / "new_c" / "histograms.json").read_bytes())


def test_tomo_reads_a_bundle_with_radial_maps(small_run, tmp_path):
    # bundles used to carry a radial map and its bin count per setting, the
    # --nr flag in their config and the centroids at top level: a bundle of
    # that format loads and gives the same tomography outputs, byte for byte
    coinc, old = tmp_path / "coinc", tmp_path / "old"
    assert main(["coincide", "--in", str(small_run), "--out", str(coinc)]) == 0
    bundle = json.loads((coinc / "histograms.json").read_text())
    bundle["config"]["nr"] = 5
    for key in ("centroid_s", "centroid_i"):
        bundle[key] = bundle["settings"]["HH"][key]
    for d in bundle["settings"].values():
        d["n_r"], d["counts_r"] = 5, np.arange(25).reshape(5, 5).tolist()
    old.mkdir()
    (old / "histograms.json").write_text(json.dumps(bundle, indent=2, sort_keys=True))
    for src, out in ((coinc, tmp_path / "new_t"), (old, tmp_path / "old_t")):
        assert main(["tomo", "--in", str(src), "--out", str(out), "--mle"]) == 0
    names = sorted(f.name for f in (tmp_path / "new_t").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "old_t").iterdir())
    for name in names:
        assert ((tmp_path / "old_t" / name).read_bytes()
                == (tmp_path / "new_t" / name).read_bytes()), name


def bundle_with_maps(counts, n_theta=16) -> str:
    """A complete bundle, with the radial keys of older bundles, but for its
    maps: each setting's ``counts_theta`` is ``counts`` under ``n_theta``."""
    return json.dumps({"settings": {label: {
        "setting": label, "n_theta": n_theta, "n_r": 5, "counts_r": [[0] * 5] * 5,
        "r_max": 20.0, "centroid_s": [29.5, 29.5],
        "centroid_i": [97.5, 29.5], "counts_theta": counts, "total_pairs": 900,
        "total_singles": 0, "dropped_by_radius": 0, "skipped_outside_roi": 0, "total_events": 1800,
    } for label in standard_set().labels}})


# readers before the shape check took 3x3 maps and laid 9 bins along row 0
SMALL_MAPS = bundle_with_maps([[100] * 3] * 3)

BASE_MANIFEST = json.loads(default_manifest(QPlateParams(0.5), QPlateParams(1.0)).to_json())


def manifest_with(section, **fields) -> str:
    """A complete manifest but for ``fields`` changed in its ``section``."""
    return json.dumps({**BASE_MANIFEST, section: {**BASE_MANIFEST[section], **fields}})


# a complete manifest but for an efficiency of 2, which NoiseModel rejects
NOISY_MANIFEST = manifest_with("noise", efficiency=2)


def tomography_with(n_theta=1, averages=(0.5, 0.1), **fields) -> str:
    """A tomography bundle of one used bin, (0, 0), but for ``n_theta``, the
    average concurrence and its spread, and the bin's ``fields``."""
    return json.dumps({"average_concurrence": averages[0], "concurrence_se": averages[1],
                       "n_theta": n_theta,
                       "bins": [{"bin_s": 0, "bin_i": 0, "low_statistics": False,
                                 "bell": dict.fromkeys(BELL_LABELS, 0.25), **fields}]})


def bell_maps_of(value) -> str:
    """An analytic bundle whose four maps are 1x1 and hold ``value``."""
    return json.dumps({"maps": {name: [[value]] for name in BELL_LABELS}})


def maps_with(bad) -> str:
    """A bundle of 16x16 maps of 100 counts but for ``bad`` in bin (3, 5)."""
    counts = [[100] * 16 for _ in range(16)]
    counts[3][5] = bad
    return bundle_with_maps(counts)


@pytest.mark.parametrize("command,name,text", [
    ("coincide", "manifest.json", "{}"),
    ("coincide", "manifest.json", "[1]"),
    ("tomo", "histograms.json", "{}"),
    ("tomo", "histograms.json", '{"settings": {"HH": {}}}'),
    ("tomo", "histograms.json", '{"settings": []}'),
    ("tomo", "histograms.json", "[1]"),
    ("tomo", "histograms.json", SMALL_MAPS),
    ("report", "tomography.json", "{}"),
    ("report", "bell_maps.json", '{"maps": {}}'),
    ("report", "bell_maps.json", "[1]"),
    ("coincide", "manifest.json", '{\n  "geometry": {\n    "height": 64,\n    "roi_idler": ['),
    ("tomo", "histograms.json", SMALL_MAPS[:200]),
    ("tomo", "histograms.json", bundle_with_maps([[100, 100], [100]])),
    ("coincide", "manifest.json", "{}".encode("utf-16")),
    ("coincide", "manifest.json", NOISY_MANIFEST),
    ("coincide", "manifest.json", manifest_with("geometry", roi_signal=[10.5, 10, 40, 40])),
    ("coincide", "manifest.json", manifest_with("geometry", width=128.0)),
    ("coincide", "manifest.json", manifest_with("settings", HH=5)),
    ("tomo", "histograms.json", bundle_with_maps([[100] * 4] * 4, n_theta=4.0)),
    ("tomo", "histograms.json", maps_with(math.nan)),
    ("tomo", "histograms.json", maps_with(math.inf)),
    ("tomo", "histograms.json", maps_with(-1)),
    ("report", "tomography.json", json.dumps({"average_concurrence": 0.5,
                                              "concurrence_se": 0.1, "n_theta": 0, "bins": []})),
    ("report", "tomography.json", tomography_with(n_theta=1.0)),
    ("report", "tomography.json", tomography_with(bin_s=0.0)),
    ("report", "tomography.json", tomography_with(bin_i=-1)),
    ("report", "tomography.json", tomography_with(bin_s=1)),
    ("report", "tomography.json", tomography_with(n_theta=2)),
    ("report", "tomography.json", tomography_with(bell={"phi_plus": 1.0})),
    ("report", "tomography.json", tomography_with(averages=("0.5", 0.1))),
    ("report", "tomography.json", tomography_with(averages=(0.5, True))),
    ("report", "tomography.json", tomography_with(averages=(10**400, 0.1))),
    ("report", "tomography.json", tomography_with(bell=dict.fromkeys(BELL_LABELS, "0.25"))),
    ("report", "tomography.json", tomography_with(bell=dict.fromkeys(BELL_LABELS, True))),
    ("report", "tomography.json", tomography_with(bell=dict.fromkeys(BELL_LABELS, math.nan))),
    ("report", "tomography.json", tomography_with(low_statistics="no")),
    ("report", "tomography.json", tomography_with(low_statistics=0)),
    ("report", "bell_maps.json", bell_maps_of("0.25")),
    ("report", "bell_maps.json", bell_maps_of(True)),
    ("report", "bell_maps.json", bell_maps_of(math.nan)),
], ids=["manifest-empty", "manifest-list", "histograms-empty", "histograms-setting-empty",
        "histograms-settings-list", "histograms-list", "histograms-map-shape",
        "tomography-empty", "bell-maps-empty", "bell-maps-list", "manifest-truncated",
        "histograms-truncated", "histograms-ragged", "manifest-utf16", "manifest-efficiency-2",
        "manifest-float-roi", "manifest-float-width", "manifest-filename-int",
        "histograms-float-ntheta", "histograms-nan-count", "histograms-infinite-count",
        "histograms-negative-count", "tomography-ntheta-0", "tomography-float-ntheta",
        "tomography-float-bin", "tomography-negative-bin", "tomography-bin-beyond-grid",
        "tomography-missing-bins", "tomography-bell-missing-label",
        "tomography-string-average", "tomography-bool-spread", "tomography-huge-average",
        "tomography-string-bell", "tomography-bool-bell", "tomography-nan-bell",
        "tomography-string-low-statistics", "tomography-int-low-statistics",
        "bell-maps-strings", "bell-maps-bools", "bell-maps-nan"])
def test_malformed_bundle_exits_with_one_error_line(tmp_path, capsys, command, name, text):
    # JSON of the wrong shape, text not UTF-8, or a field its parser rejects is a
    # data error naming the file, not a traceback
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / name).write_bytes(text.encode() if isinstance(text, str) else text)
    if command == "report" and name != "tomography.json":
        (src / "tomography.json").write_text(tomography_with())
    extra = ["--analytic", str(src)] if command == "report" else []
    assert main([command, "--in", str(src), *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src / name}: malformed input (") and err.count("\n") == 1
    assert not out.exists()


def test_report_takes_nan_averages_of_no_used_bins(tmp_path):
    # a run whose bins are all low-statistics writes NaN averages: report
    # takes them, and writes NaN errors for maps with no bin to compare
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "tomography.json").write_text(
        tomography_with(averages=(math.nan, math.nan), low_statistics=True, bell=None))
    (src / "bell_maps.json").write_text(bell_maps_of(0.25))
    assert main(["report", "--in", str(src), "--analytic", str(src), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert math.isnan(report["average_concurrence"]) and math.isnan(report["concurrence_se"])
    assert all(math.isnan(e["rms"]) for e in report["bell_map_errors"].values())


def test_bundles_echo_their_parsed_flags(small_run, tmp_path):
    # each bundle's config is exactly its subcommand's flags, minus the
    # directories; the JSON text pins the types too
    sim, coinc, tomo = tmp_path / "sim", tmp_path / "coinc", tmp_path / "tomo"
    assert main(["simulate", "--qs", "0.5", "--qi", "1", "--ntheta", "8",
                 "--average-bins", "--out", str(sim)]) == 0
    assert main(["coincide", "--in", str(small_run), "--out", str(coinc), "--ntheta", "4",
                 "--r-max", "25", "--window-ns", "5"]) == 0
    assert main(["tomo", "--in", str(coinc), "--out", str(tomo), "--mle",
                 "--min-counts", "100"]) == 0
    expected = {
        sim / "bell_maps.json": {"qs": 0.5, "qi": 1.0, "delta_s": math.pi, "delta_i": math.pi,
                                 "waist_px": 10.0, "ntheta": 8, "average_bins": True},
        coinc / "histograms.json": {"window_ns": 5.0, "ntheta": 4, "r_max": 25.0,
                                    "subtract_accidentals": False},
        tomo / "tomography.json": {"mle": True, "min_counts": 100},
    }
    for path, config in expected.items():
        got = json.loads(path.read_text())["config"]
        assert got == config
        assert json.dumps(got, sort_keys=True) == json.dumps(config, sort_keys=True)


def test_readme_command_lines_parse():
    # every evblab line of the README's command-line block parses, its
    # [optional] flags included, so a removed flag cannot stay in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("evblab ")]
    assert len(lines) == 5
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(re.sub(r"\[([^]]*)\]", r"\1", line))[1:])
        assert args.command == line.split()[1]
