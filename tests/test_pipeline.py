"""Integration checks that chain generation, matching, binning, tomography."""

import math

import numpy as np
import pytest

from evblab.coincidence import CoincidenceConfig, PolarBinning, bin_polar, find_coincidences, pooled_centroids
from evblab.eventsim import CameraGeometry, NoiseModel, Rect, default_manifest, generate_run, read_events
from evblab.polarimetry import expected_histogram, pass_probability, setting_from_label, standard_set
from evblab.qplate_state import QPlateParams, evb_state
from evblab.tomography import angular_tomography

TSET = standard_set()


def run_pipeline(man, tmp_path, n_theta=16):
    generate_run(man, tmp_path)
    events = {lab: read_events(tmp_path / f) for lab, f in man.settings.items()}
    cs, ci = pooled_centroids(events.values(), man.geometry)
    binning = PolarBinning(n_theta=n_theta, r_max=20.0, centroid_s=cs, centroid_i=ci)
    hists = []
    for lab in TSET.labels:
        res = find_coincidences(events[lab], man.geometry, CoincidenceConfig())
        hists.append(bin_polar(res, binning, lab))
    return hists


def test_histogram_matches_expectation_within_poisson_bands(tmp_path):
    # ~1e5 detected HH pairs of the tuned half-charge state: theta bins sit
    # within Poisson error bands of the analytic expectation (99% within 4
    # sigma).  The wide-beam geometry keeps pixel quantization sub-Poisson.
    geo = CameraGeometry(width=176, height=96, roi_signal=Rect(4, 8, 80, 80),
                         roi_idler=Rect(92, 8, 80, 80), waist_px=20.0)
    man = default_manifest(
        QPlateParams(0.5, waist=20.0), QPlateParams(0.5, waist=20.0),
        n_pairs=400_000, noise=NoiseModel(jitter_sigma=0.0), rng_seed=51,
        geometry=geo,
    )
    generate_run(man, tmp_path)
    ev = read_events(tmp_path / man.settings["HH"])
    res = find_coincidences(ev, man.geometry, CoincidenceConfig())
    binning = PolarBinning(n_theta=16, r_max=40.0,
                           centroid_s=geo.roi_signal.center(),
                           centroid_i=geo.roi_idler.center())
    hist = bin_polar(res, binning, "HH")

    state = evb_state(man.qplate_s, man.qplate_i)
    ref_binning = PolarBinning(n_theta=16, r_max=40.0, centroid_s=(0, 0),
                               centroid_i=(0, 0))
    expected = expected_histogram(state, setting_from_label("HH"), ref_binning,
                                  man.n_source_pairs).counts_theta
    sigma = np.sqrt(np.maximum(expected, 1.0))
    pulls = (hist.counts_theta - expected) / sigma
    frac_in_band = np.mean(np.abs(pulls) < 4.0)
    assert frac_in_band >= 0.99
    assert hist.total_pairs > 80_000


def test_epr_reconstruction_is_pure_and_maximally_entangled(tmp_path):
    # zero-retardation plates leave the polarization singlet untouched; the
    # reconstructed per-bin states must be pure within 1% with concurrence ~1
    man = default_manifest(
        QPlateParams(0.5, delta=0.0), QPlateParams(0.5, delta=0.0),
        n_pairs=400_000, noise=NoiseModel(jitter_sigma=0.0), rng_seed=53,
    )
    # spatially integrated reconstruction (1x1 grid), the analogue of a
    # single polarization tomography of the input state
    hists = run_pipeline(man, tmp_path, n_theta=1)
    tomo = angular_tomography(hists, TSET, min_counts=200)
    assert tomo.average_purity == pytest.approx(1.0, abs=0.01)
    assert tomo.average_concurrence >= 0.99
    assert tomo.result(0, 0).bell["psi_minus"] > 0.99

    # binned reconstructions stay near-pure too, degraded only by per-bin
    # counting noise (the singlet is angle-uniform)
    hists4 = run_pipeline(man, tmp_path / "binned", n_theta=4)
    tomo4 = angular_tomography(hists4, TSET, min_counts=200)
    assert tomo4.bins_used == 16
    assert tomo4.average_purity >= 0.97
    assert tomo4.average_concurrence >= 0.97
    for r in tomo4.results:
        assert r.bell["psi_minus"] > 0.95


def test_tuned_pipeline_diagonal_bins_are_psi_minus(tmp_path):
    # equal-charge plates: at theta_s = theta_i the state is the singlet, and
    # the phi-/psi+ overlaps stay near zero everywhere
    man = default_manifest(
        QPlateParams(0.5), QPlateParams(0.5), n_pairs=600_000,
        noise=NoiseModel(jitter_sigma=0.0), rng_seed=57,
    )
    hists = run_pipeline(man, tmp_path, n_theta=8)
    tomo = angular_tomography(hists, TSET, min_counts=200)
    for a in range(8):
        r = tomo.result(a, a)
        assert r.bell["psi_minus"] > 0.8
        assert r.bell["phi_minus"] < 0.1
        assert r.bell["psi_plus"] < 0.1
    maps = tomo.bell_maps()
    assert np.nanmax(maps["phi_minus"]) < 0.1
    assert np.nanmax(maps["psi_plus"]) < 0.1


def test_detected_pair_totals_follow_pass_probabilities(tmp_path):
    man = default_manifest(
        QPlateParams(0.5), QPlateParams(0.5), n_pairs=100_000,
        noise=NoiseModel(jitter_sigma=0.0), rng_seed=59,
    )
    hists = run_pipeline(man, tmp_path)
    state = evb_state(man.qplate_s, man.qplate_i)
    by_label = {h.setting: h for h in hists}
    n = man.n_source_pairs
    for lab in ("HH", "RL", "AA"):
        p = pass_probability(state, setting_from_label(lab))
        got = by_label[lab].total_pairs
        sigma = math.sqrt(n * p * (1 - p))
        # radial cut and off-sensor losses bite a few percent
        assert n * p * 0.92 - 5 * sigma < got < n * p + 5 * sigma


def test_werner_noise_lowers_concurrence_not_flux(tmp_path):
    man = default_manifest(
        QPlateParams(0.5), QPlateParams(0.5), n_pairs=300_000,
        noise=NoiseModel(jitter_sigma=0.0, werner_p=0.5), rng_seed=61,
    )
    hists = run_pipeline(man, tmp_path, n_theta=8)
    tomo = angular_tomography(hists, TSET, min_counts=200)
    # binning loss applies on top of the Werner reduction (3p-1)/2 = 0.25
    assert 0.1 < tomo.average_concurrence < 0.3
    assert tomo.average_purity < 0.6
