"""End-to-end acceptance criteria.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete.
"""

import json
import time

import numpy as np
import pytest
from conftest import make_gaussian_spectrum, sideband_peak_ratio, simpson_response, two_level_evolve

from tweezersim.analysis import (
    aggregate_signals,
    nonthermal_correction,
    optimize_threshold,
    temperature_from_spectrum,
)
from tweezersim.cli import main
from tweezersim.dynamics import (
    NoiseModel,
    PulseSpec,
    QuasiStatic,
    SpectralDensity,
    sample_noise,
    sideband_rabi,
)
from tweezersim.protocols import (
    ProtocolConfig,
    run_algorithmic_cooling,
    run_loss_detection,
    run_repeated_readout,
)
from tweezersim.response import (
    ResponseQuery,
    infidelity,
    response_closed_form,
    response_function,
)
from tweezersim.states import (
    ElectronicLevel,
    ThermalSpec,
    prepare_state,
    remove_one_quantum,
    thermal_distribution,
)

ETA = 0.36
RABI = 2 * np.pi * 2e3


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {desc}{detail}")
    return ok


def test_01_response_quadrature_matches_closed_form():
    t0 = time.monotonic()
    freqs = np.logspace(1, 4, 50)
    worst = 0.0
    for channel in ("trap_frequency", "laser_frequency"):
        got = simpson_response(ResponseQuery(ETA, RABI, freqs, channel=channel))
        ref = response_closed_form(freqs, ETA, RABI)
        worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert _report(
        1,
        "quadrature response matches closed form within 1e-6 on the 50-point log grid",
        ok,
        f" (worst rel {worst:.2e}, {elapsed:.1f}s)",
    )


def test_02_quasi_static_trap_noise_infidelity():
    t0 = time.monotonic()
    sigma = 0.005 * 2 * np.pi * 35e3  # 0.5% of the trap frequency
    rf = response_function(ResponseQuery(ETA, RABI, np.array([0.0, 1.0])))
    chi = infidelity(QuasiStatic(sigma), rf)
    elapsed = time.monotonic() - t0
    ok = 4.8e-2 <= chi <= 6.4e-2 and elapsed < 1.0
    assert _report(
        2,
        "quasi-static trap-noise infidelity lands in [4.8, 6.4]e-2",
        ok,
        f" (chi = {chi:.4e}, {elapsed:.2f}s)",
    )


def test_03_perturbative_vs_trajectory_consistency():
    t0 = time.monotonic()
    f_max = 8e3
    grid = np.linspace(0.0, f_max, 4001)
    rf = response_function(ResponseQuery(ETA, RABI, grid, channel="laser_frequency"))
    s0 = 0.02 / np.trapezoid(rf.values, grid)
    psd = SpectralDensity(np.array([0.0, f_max]), np.array([s0, s0]))
    chi = infidelity(psd, rf)

    model = NoiseModel(laser_frequency=psd)
    pulse = PulseSpec.bsb_pi(ETA, RABI)
    n_steps, n_traj = 2000, 2000
    dt = pulse.duration / n_steps
    freq = np.empty((n_traj, n_steps))
    for i in range(n_traj):
        freq[i] = sample_noise(model, pulse.duration, dt, seed=1000 + i).laser_frequency
    state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
    # the two-level model the response describes, on the n_max = 4 ladder
    out = two_level_evolve(
        state.amps.reshape(1, -1, 1), pulse, ETA, np.zeros_like(freq), freq, np.ones_like(freq), dt
    )
    infid = 1.0 - np.abs(out[:, 5 + 1, 0]) ** 2  # population left outside (up, 1)
    se = infid.std(ddof=1) / np.sqrt(n_traj)
    diff = abs(float(infid.mean()) - chi)
    elapsed = time.monotonic() - t0
    ok = diff <= 3 * se and elapsed < 300.0
    assert _report(
        3,
        "Monte Carlo pi-pulse infidelity matches the PSD-weighted response within 3 SE",
        ok,
        f" (MC {infid.mean():.5f} vs chi {chi:.5f}, 3SE {3 * se:.5f}, {elapsed:.0f}s)",
    )


def test_04_second_sideband_transfer_deficit():
    ratio = sideband_rabi(1, 2, ETA, RABI) / sideband_rabi(0, 1, ETA, RABI)
    t12 = float(np.sin(ratio * np.pi / 2) ** 2)
    ok = abs((1 - t12) - 0.236) <= 0.01
    assert _report(
        4,
        "second-sideband transfer deficit 1 - t(1->2) = 0.236 +- 0.01 at eta = 0.36",
        ok,
        f" (1 - t12 = {1 - t12:.4f})",
    )


def test_05_algorithmic_cooling_ideal_model():
    t0 = time.monotonic()
    shots = 10_000
    details = []
    ok = True
    for i, p0 in enumerate((0.3, 0.5, 0.7, 0.9)):
        q = 1.0 - p0
        nbar = q / (1.0 - q)
        cfg = ProtocolConfig(
            kind="algorithmic_cooling",
            shots=shots,
            seed=500 + i,
            n_max=24,  # deep enough that truncation cannot shift 3 sigma
            data_nbar=nbar,
            gate_errors=None,
        )
        _, summary = run_algorithmic_cooling(cfg)
        target = 1.0 - q**2
        sigma = np.sqrt(target * (1 - target) / shots)
        got = summary["ground_state_fraction"]
        ok &= abs(got - target) <= 3 * sigma
        details.append(f"p0={p0}: {got:.4f} vs {target:.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert _report(
        5,
        "ideal cooling returns ground-state fractions 1 - q^2 within binomial 3 sigma",
        ok,
        f" ({'; '.join(details)}; {elapsed:.0f}s)",
    )


def test_06_nonthermal_correction_endpoints_and_bound():
    t12 = 0.764
    lo = nonthermal_correction(0.08, t12)
    hi = nonthermal_correction(0.24, t12)
    ok = abs(lo - 0.005) <= 5e-4 and abs(hi - 0.028) <= 5e-4
    # exact ladder-sum oracle confirms the overestimation bound
    ratio = sideband_rabi(1, 2, ETA, RABI) / sideband_rabi(0, 1, ETA, RABI)
    t12_model = float(np.sin(ratio * np.pi / 2) ** 2)
    for q in np.linspace(0.1, 0.7, 13):
        nbar = q / (1 - q)
        dist = remove_one_quantum(thermal_distribution(ThermalSpec(nbar=nbar, n_max=40)))
        r = sideband_peak_ratio(dist, rabi=RABI)
        over = (1.0 - r) - dist[0]
        ok &= 0.0 <= over <= nonthermal_correction(r, t12_model) + 0.25 * r**2
    assert _report(
        6,
        "nonthermal correction endpoints 0.005/0.028 and the overestimation bound hold",
        ok,
        f" (r=0.08 -> {lo:.4f}, r=0.24 -> {hi:.4f})",
    )


def test_07_repeated_readout_fidelity_growth():
    t0 = time.monotonic()
    shots = 100_000
    cfg = ProtocolConfig(kind="repeated_readout", shots=shots, n_cyc=4, seed=700)
    table = run_repeated_readout(cfg)
    present = table.signals[table.scenario == "present"]
    absent = table.signals[table.scenario == "absent"]
    res1 = optimize_threshold(
        aggregate_signals(present, 1), aggregate_signals(absent, 1), 0.5, n_cyc=1
    )
    res4 = optimize_threshold(
        aggregate_signals(present, 4), aggregate_signals(absent, 4), 0.5, n_cyc=4
    )
    res4_p9 = optimize_threshold(
        aggregate_signals(present, 4), aggregate_signals(absent, 4), 0.9, n_cyc=4
    )
    elapsed = time.monotonic() - t0
    # the stated band applies at P1 = 0.5; at the 0.9 prior the optimal
    # fidelity is higher still, so only the floor binds there
    ok = (
        abs(res1.fidelity - 0.900) <= 0.005
        and 0.98 <= res4.fidelity <= 0.995
        and res4_p9.fidelity >= 0.98
        and elapsed < 300.0
    )
    assert _report(
        7,
        "aggregated readout F grows from 0.900(5) at one round into [0.98, 0.995] at four",
        ok,
        f" (F1 = {res1.fidelity:.4f}, F4 = {res4.fidelity:.4f}, "
        f"F4[P1=0.9] = {res4_p9.fidelity:.4f}, {elapsed:.0f}s)",
    )


def test_08_loss_detection_histogram_structure():
    t0 = time.monotonic()
    shots = 6000
    cfg = ProtocolConfig(
        kind="loss_detection",
        shots=shots,
        seed=800,
        data_psi="down",  # full transduction exercised: every atom must shelve
        shelving_transfer_fidelity=0.92,
        analyzer_phases=(0.0,),
    )
    table, _ = run_loss_detection(cfg)
    present = table.scenario == "present"
    sub_peak = float(np.mean(table.ancilla_labels[present, 0] != "down"))
    res = optimize_threshold(table.signals[present, 0], table.signals[~present, 0], 0.5)
    elapsed = time.monotonic() - t0
    ok = 0.06 <= sub_peak <= 0.10 and 0.85 <= res.fidelity <= 0.91
    assert _report(
        8,
        "shelving at 0.92 gives a 6-10% near-zero sub-peak and F in [0.85, 0.91]",
        ok,
        f" (sub-peak {sub_peak:.4f}, F {res.fidelity:.4f}, {elapsed:.0f}s)",
    )


def test_09_thermometry_interval_coverage():
    t0 = time.monotonic()
    n_sets = 300
    ok = True
    details = []
    asym_seen = False
    for nbar in (0.002, 0.05, 0.3):
        rng = np.random.default_rng(900)
        hits = 0
        for _ in range(n_sets):
            est = temperature_from_spectrum(make_gaussian_spectrum(nbar, rng))
            lo, hi = est.nbar_ci
            assert lo >= 0.0
            hits += lo <= nbar <= hi
            if nbar == 0.002 and not np.isclose(est.nbar - lo, hi - est.nbar, rtol=1e-6):
                asym_seen = True
        cov = hits / n_sets
        ok &= 0.63 <= cov <= 0.73
        details.append(f"nbar={nbar}: {cov:.3f}")
    ok &= asym_seen
    elapsed = time.monotonic() - t0
    assert _report(
        9,
        "profile-likelihood 1-sigma intervals cover truth at 68 +- 5 percent",
        ok,
        f" ({'; '.join(details)}; asymmetric at 0.002: {asym_seen}; {elapsed:.0f}s)",
    )


def test_10_worker_count_determinism(tmp_path):
    config = {
        "seed": 424242,
        "protocol": {"kind": "repeated_readout", "shots": 300, "n_cyc": 3},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(config))
    blobs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        assert main(
            ["simulate", "--config", str(path), "--threads", str(workers), "--out", str(out)]
        ) == 0
        blobs.append((out / "shots.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]

    cool_cfg = {
        "seed": 77,
        "protocol": {"kind": "algorithmic_cooling", "shots": 300, "data_nbar": 1.0},
    }
    cpath = tmp_path / "cool.json"
    cpath.write_text(json.dumps(cool_cfg))
    cool_blobs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"c{workers}"
        assert main(
            ["simulate", "--config", str(cpath), "--threads", str(workers), "--out", str(out)]
        ) == 0
        cool_blobs.append((out / "shots.csv").read_bytes())
    ok = ok and cool_blobs[0] == cool_blobs[1] == cool_blobs[2]
    assert _report(
        10,
        "shot CSVs are byte-identical for worker counts 1, 4, and 16",
        ok,
    )
