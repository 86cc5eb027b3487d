"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, warms up once in
``setup`` (imports, config load and validation, imaging calibration, and
one small untimed unit), and then runs timed units. A unit is the smallest
piece of work timed on its own; ``ops`` counts the work it completed in
the workload's throughput unit. Output checks and digests run outside the
timed region.

Why these four (no workload runs ``response``: its closed form is cheap
and its quadrature is not on any planned optimisation path):

* pulse_ensemble -- noisy blue-sideband pi pulses through
  ``dynamics.evolve_batch``; nearly all time is in ``kernels``. The laser
  PSD keeps H time-dependent, so a constant-H shortcut is bypassed here.
* readout_chain -- ``simulate`` (repeated readout, fig2) then ``detect``;
  the shot engine (``protocols``/``gates``/``states``) and CSV I/O, no
  kernel call at all.
* loss_shelving -- ``simulate`` (loss detection, fig3) with quasi-static
  trap noise; one kernel call per shelving pulse, interleaved with gates.
  Its noise is quasi-static only, so a constant-H shortcut shows here.
* thermometry_chain -- ``spectrum`` then ``fit`` pairs; ``analysis`` does
  nearly all the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

ETA = 0.36
RABI_HZ = 2000.0
TRAP = {"frequency_hz": 35000.0, "mass_amu": 88.0, "wavelength_nm": 698.0, "eta": ETA}


def unit_seed(seed, *key):
    """64-bit seed for one unit, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, dtype=np.uint64)[0])


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


class Unit:
    """Result of one timed unit: completed ops, named sub-timings (ms) and data."""

    def __init__(self, ops, parts=None, data=None):
        self.ops = ops
        self.parts = parts or {}
        self.data = data


class CliWorkload:
    """Runs tweezersim CLI commands in-process with stdout captured."""

    def __init__(self, root, seed, work_dir):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    def preset(self, name):
        path = os.path.join(self.root, "src", "tweezersim", "presets", name + ".json")
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def cli(self, *argv):
        from tweezersim import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"tweezersim {' '.join(argv)} exited {code}")

    def path(self, *parts):
        return os.path.join(self.work_dir, *parts)


class PulseEnsemble:
    name = "pulse_ensemble"
    ops_name = "traj_per_s"
    ops_per_unit = 4  # trajectories
    n_max = 12
    steps = 2000
    unit_s = 1.0  # rough seconds per unit; sizes the traced run

    def __init__(self, root, seed, work_dir):
        self.seed = seed

    def setup(self):
        from tweezersim import dynamics, states

        self.dynamics = dynamics
        self.trap = states.TrapSpec(
            omega_t=2 * math.pi * TRAP["frequency_hz"],
            mass=TRAP["mass_amu"] * 1.66053906892e-27,
            k=2 * math.pi / (TRAP["wavelength_nm"] * 1e-9),
            eta=ETA,
        )
        rabi = 2 * math.pi * RABI_HZ
        self.pulse = dynamics.PulseSpec.bsb_pi(ETA, rabi)
        self.model = dynamics.NoiseModel(
            trap_frequency=dynamics.QuasiStatic(0.05 * ETA * rabi),
            laser_frequency=dynamics.SpectralDensity(np.array([0.0, 5e3]), np.array([2e3, 2e3])),
        )
        self.state = states.prepare_state(states.ElectronicLevel.DOWN, 0, n_max=self.n_max)
        self._evolve(self._noise(0, 1, 100))

    def _noise(self, i, n_traj, steps):
        dt = self.pulse.duration / steps
        return [
            self.dynamics.sample_noise(self.model, self.pulse.duration, dt, unit_seed(self.seed, i, j))
            for j in range(n_traj)
        ]

    def _evolve(self, rows):
        trap = np.stack([r.trap_frequency for r in rows])
        freq = np.stack([r.laser_frequency for r in rows])
        return self.dynamics.evolve_batch(
            self.state, self.pulse, self.trap, trap, freq, np.ones_like(trap), rows[0].dt
        )

    def run_unit(self, i):
        rows = self._noise(i, self.ops_per_unit, self.steps)
        return Unit(self.ops_per_unit, data=(rows, self._evolve(rows)))

    def check_unit(self, i, unit):
        norms = np.sum(np.abs(unit.data[1]) ** 2, axis=1)
        bad = int(np.sum(np.abs(norms - 1.0) > 1e-10))
        return [f"{bad} final norms off by more than 1e-10"] if bad else []

    def digests(self, i, unit):
        return {"final_amplitudes": hashlib.sha256(unit.data[1].tobytes()).hexdigest()}

    def final_checks(self, unit0):
        """Two trajectories against a product of dense matrix exponentials."""
        from scipy.linalg import expm

        rows, out = unit0.data
        failures = []
        for j in range(2):
            r = rows[j]
            times = r.times()
            hs = np.stack(
                [self.dynamics.build_hamiltonian(self.pulse, self.trap, r, t, n_max=self.n_max) for t in times]
            )
            steps = expm(-1j * hs * r.dt)
            psi = self.state.amps.reshape(-1).astype(np.complex128)
            for u in steps:
                psi = u @ psi
            err = float(np.max(np.abs(psi - out[j])))
            if err > 1e-9:
                failures.append(f"trajectory {j} differs from the expm reference by {err:.2e}")
        return failures


class ReadoutChain(CliWorkload):
    name = "readout_chain"
    ops_name = "shots_per_s"
    shots = 500
    ops_per_unit = 2 * shots  # scenario-shots
    unit_s = 0.45

    def setup(self):
        cfg = self.preset("fig2")
        cfg["protocol"]["shots"] = self.shots
        write_json(self.path("simulate.json"), cfg)
        warm = json.loads(json.dumps(cfg))
        warm["protocol"]["shots"] = 5
        write_json(self.path("warmup.json"), warm)
        write_json(
            self.path("detect.json"),
            {
                "protocol": {"p1_priors": cfg["protocol"]["p1_priors"]},
                "detect": {"input_csv": "run/shots.csv", "n_cyc_list": [1, 2, 3, 4]},
            },
        )
        self.cli("simulate", "--config", self.path("warmup.json"), "--seed", "1", "--out", self.path("run"))
        self.cli("detect", "--config", self.path("detect.json"), "--out", self.path("run"))

    def run_unit(self, i):
        seed = str(unit_seed(self.seed, i))
        self.cli("simulate", "--config", self.path("simulate.json"), "--seed", seed, "--out", self.path("run"))
        self.cli("detect", "--config", self.path("detect.json"), "--out", self.path("run"))
        return Unit(self.ops_per_unit)

    def check_unit(self, i, unit):
        failures = []
        rows = read_csv(self.path("run", "shots.csv"))
        if len(rows) != self.shots * 2 * 4:
            failures.append(f"shots.csv has {len(rows)} rows, expected {self.shots * 8}")
        for row in read_csv(self.path("run", "detect.csv")):
            p1, f, f1, f0 = (float(row[k]) for k in ("p1", "fidelity", "f1", "f0"))
            if abs(f - (p1 * f1 + (1 - p1) * f0)) > 1e-12 or not 0.5 <= f <= 1.0:
                failures.append(f"detect.csv row {row} breaks F = P1*F1 + (1-P1)*F0 or F in [0.5, 1]")
        return failures

    def digests(self, i, unit):
        return {name: sha256_file(self.path("run", name)) for name in ("shots.csv", "detect.csv")}


class LossShelving(CliWorkload):
    name = "loss_shelving"
    ops_name = "shots_per_s"
    shots = 1
    phases = (0.0, math.pi / 2)
    ops_per_unit = 2 * shots * len(phases)  # scenario-shots
    unit_s = 0.7

    def setup(self):
        cfg = self.preset("fig3")
        cfg["protocol"]["shots"] = self.shots
        cfg["protocol"]["analyzer_phases_rad"] = list(self.phases)
        cfg["protocol"]["steps_per_pulse"] = 2000
        cfg["noise"] = {"trap_frequency": {"kind": "quasi_static", "sigma_hz": 175}}
        write_json(self.path("simulate.json"), cfg)
        warm = json.loads(json.dumps(cfg))
        warm["protocol"]["shots"] = 1
        warm["protocol"]["analyzer_phases_rad"] = [0.0]
        write_json(self.path("warmup.json"), warm)
        self.cli("simulate", "--config", self.path("warmup.json"), "--seed", "1", "--out", self.path("run"))

    def run_unit(self, i):
        seed = str(unit_seed(self.seed, i))
        self.cli("simulate", "--config", self.path("simulate.json"), "--seed", seed, "--out", self.path("run"))
        return Unit(self.ops_per_unit)

    def check_unit(self, i, unit):
        failures = []
        rows = read_csv(self.path("run", "shots.csv"))
        expected = self.ops_per_unit
        if len(rows) != expected:
            failures.append(f"shots.csv has {len(rows)} rows, expected {expected}")
        for row in read_csv(self.path("run", "fringe.csv")):
            if not 0.0 <= float(row["p_up"]) <= 1.0:
                failures.append(f"fringe.csv p_up {row['p_up']} outside [0, 1]")
        return failures

    def digests(self, i, unit):
        return {name: sha256_file(self.path("run", name)) for name in ("shots.csv", "fringe.csv")}


class ThermometryChain(CliWorkload):
    name = "thermometry_chain"
    ops_name = "spectra_per_s"
    # (slot, nbar, after_cooling, fit mode); a unit runs one pair per slot
    pairs = (
        ("b0", 0.002, False, "baseline"),
        ("b1", 0.05, False, "baseline"),
        ("b2", 0.3, False, "baseline"),
        ("c0", 0.3, True, "cooled"),
    )
    ops_per_unit = len(pairs)  # spectrum->fit pairs
    baseline_share = sum(mode == "baseline" for *_, mode in pairs) / len(pairs)
    unit_s = 0.4

    def setup(self):
        for slot, nbar, cooled, mode in self.pairs:
            common = {"trap": TRAP, "pulse": {"rabi_hz": RABI_HZ}}
            write_json(
                self.path(f"spectrum_{slot}.json"),
                {**common, "spectrum": {"nbar": nbar, "after_cooling": cooled}},
            )
            write_json(
                self.path(f"fit_{slot}.json"),
                {**common, "fit": {"input_csv": f"{slot}/spectrum.csv", "mode": mode}},
            )
        for slot in ("b1", "c0"):
            self._pair(slot, 1)

    def _pair(self, slot, seed):
        self.cli("spectrum", "--config", self.path(f"spectrum_{slot}.json"), "--seed", str(seed),
                 "--out", self.path(slot))
        self.cli("fit", "--config", self.path(f"fit_{slot}.json"), "--out", self.path(slot))

    def run_unit(self, i):
        parts = {"fit_baseline_ms": [], "fit_cooled_ms": []}
        for k, (slot, _, _, mode) in enumerate(self.pairs):
            t0 = time.perf_counter()
            self._pair(slot, unit_seed(self.seed, i, k))
            parts[f"fit_{mode}_ms"].append(1e3 * (time.perf_counter() - t0))
        return Unit(self.ops_per_unit, parts=parts)

    def check_unit(self, i, unit):
        failures = []
        for slot, _, _, mode in self.pairs:
            with open(self.path(slot, "fit.json"), "r", encoding="utf-8") as fh:
                fit = json.load(fh)
            if mode == "baseline":
                lo, hi = fit["nbar_ci"]
                hi = math.inf if hi is None else hi
                if not (fit["nbar"] >= 0 and lo <= fit["nbar"] <= hi):
                    failures.append(f"{slot}: nbar {fit['nbar']} outside [0, inf) or its interval [{lo}, {hi}]")
            elif not 0.0 <= fit["ground_state_fraction"] <= 1.0:
                failures.append(f"{slot}: ground-state fraction {fit['ground_state_fraction']} outside [0, 1]")
        return failures

    def digests(self, i, unit):
        return {
            f"{slot}/{name}": sha256_file(self.path(slot, name))
            for slot, *_ in self.pairs
            for name in ("spectrum.csv", "fit.json")
        }


WORKLOADS = {w.name: w for w in (PulseEnsemble, ReadoutChain, LossShelving, ThermometryChain)}
