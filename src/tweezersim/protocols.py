"""Preset protocol circuits and the Monte Carlo shot engine.

Three protocols run over the gate layer: repeated ancilla-based
readout, coherence-preserving loss detection with motional shelving,
and algorithmic cooling. Each job (a scenario, and for loss detection a
phase) runs its shots in chunks of CHUNK_SHOTS, chunk c on its own stream
PCG64(SeedSequence(seed, spawn_key=(scenario index, [phase index,] c))).
Chunk c of every job runs in lockstep: one PairBatch (see gates.py) that
every gate, measurement and pulse updates at once. The chunk size is a
constant, so results do not depend on the worker count or thread order.
A pulse drives each shot's Fock window (see WINDOW) itself.

The ancilla-flip block (a CNOT up to calibrated phases) decomposes as
local Z on the data, X^(1/2) on the ancilla, CZ, and a second X^(1/2)
whose phase compensates the entangling step; with the ideal CZ of this
model the compensated phase is pi. In the algorithmic-cooling circuit
the ancilla ends on the equator in one of two orthogonal states
correlated with whether the data atom started in the motional ground
state; the labeling below (plus for ground-state data) is a fixed
convention of this gate set.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import binomial_stderr
from .dynamics import (
    DEFAULT_STEPS_PER_PULSE,
    NoiseModel,
    PulseKind,
    PulseSpec,
    evolve_rows,
    omega_01,
    sideband_ladder,
    spectroscopy_pi_duration,
)
from .errors import ValidationError
from .gates import (
    GateErrorSpec,
    ImagingSpec,
    PairBatch,
    Streams,
    apply_cz,
    calibrate_imaging,
    cnot_block,
    expose_to_imaging,
    heating_jump,
    image_ancilla,
    level_labels,
    measure_data,
    project_level,
    rotate,
)
from .states import (
    DEFAULT_N_MAX,
    ElectronicLevel,
    ThermalSpec,
    TrapSpec,
    _check_probability_vector,
    thermal_distribution,
)

SCENARIOS = ("present", "absent")
PROTOCOL_KINDS = (
    "repeated_readout",
    "loss_detection",
    "algorithmic_cooling",
    "phase_calibration",
)

#: Shots per chunk. A constant, so that no output depends on the worker
#: count; one chunk's pair state is 64 W bytes per shot (see WINDOW).
CHUNK_SHOTS = 1024
RNG_SCHEME = (
    "PCG64(SeedSequence(seed, spawn_key=(scenario, [phase,] chunk))), "
    f"one stream per chunk of {CHUNK_SHOTS} shots"
)

#: Ancilla end states of the cooling circuit (fixed phase convention):
#: data initially in the motional ground state -> ANC_PLUS, else ANC_MINUS.
ANC_PLUS = np.array([1.0, 1.0j]) / np.sqrt(2.0)  # (down, up) amplitudes
ANC_MINUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)

_ELECTRONIC = {
    "up": np.array([0.0, 1.0]),
    "down": np.array([1.0, 0.0]),
    "plus": np.array([1.0, 1.0]) / np.sqrt(2.0),
}

#: Fock levels W per shot that each circuit reaches (its PairBatch window):
#: readout drives no motion, the red sideband couples n to n - 1, and the
#: blue sideband n to n - 1 and n + 1.
WINDOW = {"repeated_readout": 1, "algorithmic_cooling": 2, "loss_detection": 3}

DEFAULT_TRAP = TrapSpec(
    omega_t=2 * np.pi * 35e3,
    mass=88 * 1.66053906892e-27,
    k=2 * np.pi / 698e-9,
)


@dataclass
class SidebandSpectrum:
    """Excitation-vs-detuning data with binomial errors and pulse metadata."""

    detuning_hz: np.ndarray
    p_exc: np.ndarray
    stderr: np.ndarray
    shots: np.ndarray
    duration: float = None
    rabi: float = None
    eta: float = None

    def __post_init__(self):
        self.detuning_hz = np.asarray(self.detuning_hz, dtype=float)
        self.p_exc = np.asarray(self.p_exc, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        self.shots = np.asarray(self.shots)
        columns = np.array((self.detuning_hz, self.p_exc, self.stderr, self.shots), dtype=float)
        if not np.isfinite(columns).all():
            raise ValidationError("detuning_hz, p_exc, stderr and shots must be finite")
        if not ((self.p_exc >= 0) & (self.p_exc <= 1)).all():
            raise ValidationError("excitation probabilities must lie in [0, 1]")
        if not (self.stderr > 0).all():
            raise ValidationError("stderr must be positive on every row")
        if not ((self.shots >= 0) & (self.shots == np.floor(self.shots))).all():
            raise ValidationError("shots must be integers >= 0")


@dataclass
class ProtocolConfig:
    """Knobs shared by the protocol runners; validated per kind."""

    kind: str
    shots: int = 1000
    seed: int = 12345
    n_cyc: int = 4
    p1_priors: tuple = (0.5, 0.9)
    scenarios: tuple = SCENARIOS
    n_max: int = DEFAULT_N_MAX
    data_psi: str = None  # "up" | "down" | "plus"; default and allowed per kind
    data_nbar: float = 0.0
    gate_errors: GateErrorSpec = field(default_factory=GateErrorSpec)
    imaging: ImagingSpec = None
    trap: TrapSpec = None
    rabi: float = 2 * np.pi * 2e3
    noise: NoiseModel = None
    shelving_transfer_fidelity: float = None
    steps_per_pulse: int = DEFAULT_STEPS_PER_PULSE
    analyzer_phases: tuple = tuple(np.linspace(0, 2 * np.pi, 13))
    comp_phase: float = np.pi
    local_z_phase: float = 0.0
    ancilla_absent_prob: float = 0.0
    ideal_cooling_rsb: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValidationError(f"unknown protocol kind {self.kind!r}")
        if self.shots < 1:
            raise ValidationError(f"shots must be >= 1, got {self.shots}")
        if self.kind == "repeated_readout" and self.n_cyc < 1:
            raise ValidationError("n_cyc must be >= 1 for repeated readout")
        for i, s in enumerate(self.scenarios):  # a repeated scenario's jobs would share one seed
            if s not in SCENARIOS or s in self.scenarios[:i]:
                raise ValidationError(f"protocol.scenarios must be distinct entries of {SCENARIOS}, got {s!r}")
        if self.trap is None:
            self.trap = DEFAULT_TRAP
        if self.imaging is None:
            self.imaging = calibrate_imaging(target_fidelity=0.90, p1=0.5)
        # (default, allowed) data start states; cooling and the phase scan are built for one each
        default, allowed = {
            "loss_detection": ("plus", _ELECTRONIC), "algorithmic_cooling": ("down", ("down",)),
            "phase_calibration": ("up", ("up",)),
        }.get(self.kind, ("up", _ELECTRONIC))
        if self.data_psi is None:
            self.data_psi = default
        if self.data_psi not in allowed:
            raise ValidationError(
                f"protocol.data_psi must be {' or '.join(allowed)} or null for {self.kind}, "
                f"got {self.data_psi!r}"
            )
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not self.data_nbar / (self.data_nbar + 1.0) < 1.0:  # else no thermal distribution
            raise ValidationError(f"protocol.data_nbar (cool: each nbar_list or p0_list entry) "
                                  f"must stay below 9e15, got {self.data_nbar:g}")


@dataclass
class ShotTable:
    """Classical outcomes, one row per (scenario, [phase,] shot).

    ``signals`` and ``ancilla_labels`` have one column per imaging round
    (NaN signals where nothing was imaged); ``data_n`` is -1 where no
    Fock number was read out. ``aux`` is the analyzer phase (loss
    detection), the initial Fock number (cooling) or "" (readout);
    ``events`` counts the stochastic events by kind (gates.EVENT_KINDS).
    """

    scenario: np.ndarray
    shot: np.ndarray
    signals: np.ndarray
    ancilla_labels: np.ndarray
    data_label: np.ndarray
    data_n: np.ndarray
    data_lost: np.ndarray
    aux: np.ndarray
    events: Counter = field(default_factory=Counter)

    @classmethod
    def concat(cls, tables, order=slice(None)) -> "ShotTable":
        """The tables' rows joined, then taken in `order`."""
        return cls(**{f.name: np.concatenate([getattr(t, f.name) for t in tables])[order] for f in fields(cls)
                      if f.name != "events"}, events=sum((t.events for t in tables), Counter()))


def _run_chunks(config: ProtocolConfig, jobs, anc_level, circuit) -> ShotTable:
    """config.shots shots of each (key, scenario) job as one ShotTable,
    job-major, each job's shots in order. Chunk c of every job starts as
    one _new_pairs batch, job-major, whose rng (a gates.Streams) gives
    each job's segment its own stream PCG64(SeedSequence(config.seed,
    spawn_key=(*key, c))). circuit(batch, job, n) runs the jobs in
    lockstep, given each row's job index and initial Fock number,
    returning (signals, ancilla_labels, data level, data n, aux). Each row
    draws what it would alone. config.workers threads run the chunk
    indices.
    """
    n_chunks = -(-config.shots // CHUNK_SHOTS)
    scenarios = np.array([scenario for _, scenario in jobs])

    def run(c):
        shots = np.arange(c * CHUNK_SHOTS, min((c + 1) * CHUNK_SHOTS, config.shots))
        rng = Streams([np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(*k, c)))
                       for k, _ in jobs], [shots.size * (j + 1) for j in range(len(jobs))])
        job = np.repeat(np.arange(len(jobs)), shots.size)
        batch, n = _new_pairs(config, rng, scenarios[job] == "present", anc_level)
        signals, labels, level, n, aux = circuit(batch, job, n)
        lost = batch.data_lost
        return job, ShotTable(scenarios[job], np.tile(shots, len(jobs)), signals, labels,
                              level_labels(level, lost), np.where(lost, -1, n), lost, aux, batch.events)

    if config.workers <= 1 or n_chunks == 1:
        runs = [run(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=min(config.workers, n_chunks)) as ex:
            runs = list(ex.map(run, range(n_chunks)))
    job_major = np.argsort(np.concatenate([job for job, _ in runs]), kind="stable")
    return ShotTable.concat([t for _, t in runs], job_major)


def _new_pairs(config: ProtocolConfig, rng: Streams, present, anc_level) -> tuple:
    """Fresh pairs, one per row of rng, and the data atoms' initial Fock
    numbers: where present (a row mask), the configured data state at a
    Fock number drawn from the thermal distribution at data_nbar (an
    absent data atom sits in (up, 0), masked), and a ground-state-motion
    ancilla at anc_level that is absent with ancilla_absent_prob. The
    pairs hold the window of config.kind (see WINDOW), n0 = n - 1 where
    W > 1, clipped. Each segment of rng draws as Generator.choice would
    over its rows alone: one uniform per row into the normalized CDF."""
    n = np.zeros(present.size, dtype=np.intp)
    if config.data_nbar > 0:
        cdf = np.cumsum(thermal_distribution(ThermalSpec(nbar=config.data_nbar, n_max=config.n_max)))
        n[present] = (cdf / cdf[-1]).searchsorted(rng.random(n.size, where=present), side="right")[present]
    w = min(WINDOW[config.kind], config.n_max + 1)
    n0 = np.minimum(np.maximum(n - (w > 1), 0), config.n_max + 1 - w)
    amps = np.zeros((n.size, 2, w), dtype=np.complex128)
    amps[np.arange(n.size), :, n - n0] = np.where(present[:, None], _ELECTRONIC[config.data_psi], _ELECTRONIC["up"])
    batch = PairBatch.prepare(
        amps,
        np.eye(2)[int(anc_level)],
        data_lost=~present,
        anc_lost=rng.random(n.size) < config.ancilla_absent_prob,
        rng=rng,
        errors=config.gate_errors,
    )
    batch.n0, batch.n_max = n0, config.n_max
    return batch, n


def _fresh_ancilla(batch: PairBatch, config: ProtocolConfig, level) -> PairBatch:
    """Replace every imaged (level-definite) ancilla by a fresh one at level."""
    fresh, other = batch.psi[..., int(level)], batch.psi[..., 1 - int(level)]
    fresh += other  # one anc level is empty: the sum is the data's state
    other[...] = 0.0
    batch.anc_lost = batch.rng.random(batch.size) < config.ancilla_absent_prob
    return batch


def _evolve_data(batch: PairBatch, pulse: PulseSpec, config: ProtocolConfig) -> PairBatch:
    """Drive every present data atom through a pulse, each under its own
    noise realization; the ancilla levels are spectators. evolve_rows and
    its guards run on each shot's window, and each job segment of the
    batch's Streams draws its present rows' noise from its Generator."""
    on = np.flatnonzero(~batch.data_lost)
    if on.size:
        rng = Streams(batch.rng.generators, np.searchsorted(on, batch.rng.stops).tolist())
        out = evolve_rows(batch.psi[on].reshape(on.size, -1, 2), pulse, config.trap, config.noise,
                          config.steps_per_pulse, rng, batch.n0[on], batch.n_max)
        batch.psi[on] = out.reshape(-1, *batch.psi.shape[1:])
    return batch


# ---------------------------------------------------------------------------
# circuit blocks


def _ideal_rsb(batch: PairBatch) -> PairBatch:
    """Perfect red-sideband pi pulse on every present data atom, a signed
    shift of the window's slots: (down, s) -> (up, s - 1) and (up, s - 1)
    -> -(down, s) for s >= 1. (down, 0) and (up, W - 1) keep their
    amplitudes: on the full ladder they are uncoupled (n = 0, and n_max at
    this truncation), and a cooling window starts with neither occupied."""
    on = ~batch.data_lost
    down = batch.psi[on, 0, 1:]
    batch.psi[on, 0, 1:] = -batch.psi[on, 1, :-1]
    batch.psi[on, 1, :-1] = down
    return batch


def cooling_gates(batch: PairBatch) -> PairBatch:
    """The five gates that follow the red-sideband pi pulse on the data in
    the six-gate algorithmic-cooling sequence.

    X^(1/2) on the ancilla (selective), CZ, global X^(-1/2), CZ, global
    X^(-1/2). Data and ancilla both start in the ground electronic
    state; ideally the data ends in the clock state with one motional
    quantum removed and the ancilla ends in ANC_PLUS/ANC_MINUS according
    to the data's initial motional state.
    """
    rotate(batch, "anc", 0.0, np.pi / 2)
    for _ in range(2):
        apply_cz(batch)
        for which in ("data", "anc"):
            rotate(batch, which, 0.0, -np.pi / 2)
    return batch


def _shelving_pulse(config: ProtocolConfig) -> PulseSpec:
    """Blue-sideband shelving pulse on the 0<->1 pair.

    A full pi pulse by default; when shelving_transfer_fidelity t is set
    the duration is shortened so the pair transfer equals t exactly.
    """
    omega01 = omega_01(config.trap, config.rabi)
    if config.shelving_transfer_fidelity is None:
        duration = np.pi / omega01
    else:
        t = config.shelving_transfer_fidelity
        if not 0.0 < t <= 1.0:
            raise ValidationError("shelving_transfer_fidelity must be in (0, 1]")
        duration = 2.0 * math.asin(math.sqrt(t)) / omega01
    return PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=config.rabi, duration=duration)


# ---------------------------------------------------------------------------
# protocol runners


def run_repeated_readout(config: ProtocolConfig) -> ShotTable:
    """Repeated ancilla-based presence readout.

    Per shot and scenario: the data atom (clock state if present) is kept
    while a fresh clock-state ancilla is brought in each round, flipped
    conditionally by the CNOT block, and imaged. Signals are recorded per
    round; the data atom state carries across rounds and is read out
    projectively at the end.
    """
    imaging = config.imaging

    def circuit(batch, job, n_init):
        signals = np.empty((batch.size, config.n_cyc))
        labels = np.empty((batch.size, config.n_cyc), dtype="<U5")
        for rnd in range(config.n_cyc):
            if rnd:
                _fresh_ancilla(batch, config, ElectronicLevel.UP)
            cnot_block(batch, config.comp_phase, config.local_z_phase)
            signals[:, rnd], labels[:, rnd] = image_ancilla(batch, imaging)
            heating_jump(batch, imaging.data_heating_quanta_per_round)
        return signals, labels, *measure_data(batch), np.full(batch.size, "")

    return _run_chunks(config, [((SCENARIOS.index(s),), s) for s in config.scenarios], ElectronicLevel.UP, circuit)


def run_loss_detection(config: ProtocolConfig, reference: bool = False):
    """Coherence-preserving loss detection via motional shelving.

    Sequence per shot: shelve the data superposition into the motional
    manifold (blue sideband through the dynamics engine), CNOT block,
    image the ancilla (the data atom is exposed to the imaging light:
    unshelved ground-state population is removed), unshelve, analyzer
    pi/2 pulse of each phase of config.analyzer_phases, projective readout
    of the data.

    With reference=True the entangling gate and the imaging exposure are
    skipped (drive blocked), giving the idle-sequence fringe.

    Returns (table, fringe) where fringe maps scenario -> (phases,
    up-fraction, stderr).
    """
    analyzer_phases = np.asarray(config.analyzer_phases, dtype=float)
    shelve = _shelving_pulse(config)
    unshelve = replace(shelve, phase=shelve.phase + np.pi)

    jobs = [((SCENARIOS.index(scenario), k), scenario)
            for scenario in config.scenarios for k in range(analyzer_phases.size)]
    job_phase = np.tile(analyzer_phases, len(config.scenarios))

    def circuit(batch, job, n_init):
        phi = job_phase[job]
        _evolve_data(batch, shelve, config)
        cnot_block(batch, config.comp_phase, config.local_z_phase, entangle=not reference)
        if reference:
            signals = np.full(batch.size, np.nan)
            anc_up = batch.populations("anc")[:, 0] <= 0.5
            labels = level_labels(anc_up.astype(int), batch.anc_lost)
        else:
            signals, labels = image_ancilla(batch, config.imaging)
            expose_to_imaging(batch, config.imaging)
        _evolve_data(batch, unshelve, config)
        rotate(batch, "data", phi, np.pi / 2)
        return signals[:, None], labels[:, None], project_level(batch, "data", ~batch.data_lost), -1, phi

    table = _run_chunks(config, jobs, ElectronicLevel.UP, circuit)
    # up-fractions per (scenario, phase); the sums are exact, so any summation order gives their bits
    up = (table.data_label == "up").reshape(len(config.scenarios), analyzer_phases.size, -1).mean(axis=2)
    return table, {scenario: (analyzer_phases.copy(), u, binomial_stderr(u, config.shots))
                   for scenario, u in zip(config.scenarios, up)}


def run_algorithmic_cooling(config: ProtocolConfig):
    """One round of algorithmic cooling on a thermal data atom.

    Returns (table, summary); the summary holds the measured
    ground-state fraction, the fraction conditioned on the correct
    (clock) electronic state, the wrong-state fraction, and the ideal
    one-quantum-removal reference for the configured nbar. The table's
    ancilla label is 'plus'/'minus' by the ancilla's overlap with
    ANC_PLUS after the data readout.
    """
    # the 1 -> 0 red-sideband Rabi frequency equals the 0 -> 1 blue one
    rsb_pulse = PulseSpec(PulseKind.RED_SIDEBAND, rabi=config.rabi,
                          duration=np.pi / omega_01(config.trap, config.rabi))

    def circuit(batch, job, n_init):
        if config.ideal_cooling_rsb:
            _ideal_rsb(batch)
        else:
            _evolve_data(batch, rsb_pulse, config)
        cooling_gates(batch)
        level, n = measure_data(batch)
        anc = batch.psi.sum(axis=(1, 2))  # the data is in one basis state now
        plus = np.abs(anc @ np.conjugate(ANC_PLUS)) ** 2 > 0.5
        anc_labels = np.where(batch.anc_lost, "lost", np.where(plus, "plus", "minus"))
        return np.full((batch.size, 1), np.nan), anc_labels[:, None], level, n, n_init

    table = _run_chunks(config, [((0,), "present")], ElectronicLevel.DOWN, circuit)
    kept = ~table.data_lost
    n_kept = int(np.count_nonzero(kept))
    up = kept & (table.data_label == "up")
    ground = table.data_n == 0
    q = config.data_nbar / (config.data_nbar + 1.0)
    summary = {
        "shots": config.shots,
        "survivors": n_kept,
        "ground_state_fraction": float(np.mean(ground[kept])) if n_kept else 0.0,
        "ground_state_fraction_correct_state": (
            float(np.mean(ground[up])) if up.any() else 0.0
        ),
        "wrong_state_fraction": float(np.mean(table.data_label[kept] == "down"))
        if n_kept
        else 0.0,
        "ideal_ground_state_fraction": 1.0 - q**2,
        "initial_ground_state_fraction": 1.0 - q,
    }
    return table, summary


def calibrate_phase(config: ProtocolConfig):
    """Deterministic scan of the compensated ancilla rotation over
    config.analyzer_phases, data atom in up.

    Returns a dict with the scanned phases, the ancilla ground-state
    population per scenario, and the largest deviation of the data-atom
    reduced state across the scan (zero for an ideal local-Z
    implementation).
    """
    phases = np.asarray(config.analyzer_phases, dtype=float)
    data = np.broadcast_to(_ELECTRONIC["up"][:, None], (phases.size, 2, 1))  # motion stays at n = 0
    p_down = {}
    data_dev = 0.0
    for scenario in config.scenarios:
        batch = PairBatch.prepare(data, _ELECTRONIC["up"], data_lost=scenario == "absent")
        cnot_block(batch, comp_phase=phases, local_z_phase=config.local_z_phase)
        p_down[scenario] = batch.populations("anc")[:, 0]
        if scenario == "present":
            rho = np.einsum("blnk,bmok->blnmo", batch.psi, batch.psi.conj())
            data_dev = float(np.max(np.abs(rho - rho[0])))
    return {"phases": phases, "p_down": p_down, "data_state_deviation": data_dev}


# ---------------------------------------------------------------------------
# sideband spectroscopy (semi-analytic ladder model)


def detuned_transfer(omega, delta, duration):
    """Two-level transfer probability at coupling omega and detuning delta
    (scalars or arrays); 0 where both vanish."""
    w_eff = np.sqrt(np.multiply(omega, omega) + np.multiply(delta, delta))
    ratio = omega / np.where(w_eff == 0.0, 1.0, w_eff)  # w_eff = 0: omega = 0, the sine too
    # float_power squares through pow(), as Python's ** does
    return np.float_power(ratio, 2) * np.float_power(np.sin(w_eff * duration / 2.0), 2)


def simulate_sideband_spectrum(
    initial_dist,
    detunings_hz,
    trap: TrapSpec = None,
    rabi: float = 2 * np.pi * 2e3,
    duration: float = None,
    shots_per_point: int = None,
    rng=None,
    include_carrier: bool = False,
    wrong_state_fraction: float = 0.0,
) -> SidebandSpectrum:
    """Sideband spectrum of a motional population distribution.

    For each detuning from the carrier the excitation probability is the
    population-weighted sum of detuned-Rabi transfers on the resolved
    red and blue sideband ladders (Laguerre-scaled couplings); the probe
    duration defaults to the 0<->1 pi time so t01 = 1. With
    shots_per_point the curve is binomially sampled, otherwise exact
    values with zero stderr are returned (infinite-shots mode). A
    nonzero wrong_state_fraction w rescales the curve to (1-w) p + w,
    modeling population that resonant light removes before thermometry.
    """
    if trap is None:
        trap = DEFAULT_TRAP
    dist = _check_probability_vector(initial_dist)
    if not 0.0 <= wrong_state_fraction < 1.0:
        raise ValidationError("wrong_state_fraction must be in [0, 1)")
    t_pi = spectroscopy_pi_duration(trap, rabi)  # checks Omega_01 whatever the duration
    duration = t_pi if duration is None else duration
    detunings_hz = np.asarray(detunings_hz, dtype=float)
    n_max = dist.size - 1
    f_trap = trap.omega_t / (2 * np.pi)

    carrier, side = map(np.array, sideband_ladder(n_max, trap.eta, rabi))

    d_blue = 2 * np.pi * (detunings_hz - f_trap)
    d_red = 2 * np.pi * (detunings_hz + f_trap)
    d_car = 2 * np.pi * detunings_hz
    # one row per populated n, one column per detuning
    n = np.flatnonzero(dist)
    t = np.zeros((n.size, detunings_hz.size))
    up, down = n < n_max, n >= 1
    t[up] += detuned_transfer(side[n[up], None], d_blue, duration)
    t[down] += detuned_transfer(side[n[down] - 1, None], d_red, duration)  # n <-> n - 1
    if include_carrier:
        t += detuned_transfer(carrier[n, None], d_car, duration)
    # a sequential sum in n order, not numpy's pairwise one
    p_exc = np.minimum(np.cumsum(dist[n, None] * np.minimum(t, 1.0), axis=0)[-1], 1.0)
    p_exc = (1.0 - wrong_state_fraction) * p_exc + wrong_state_fraction

    if shots_per_point is None:
        stderr = np.full(p_exc.size, 1e-6)  # infinite-shots mode
        shots = np.full(p_exc.size, 0)
        measured = p_exc
    else:
        if rng is None:
            raise ValidationError("binomial sampling requires an rng")
        counts = rng.binomial(shots_per_point, p_exc)
        measured = counts / shots_per_point
        stderr = binomial_stderr(measured, shots_per_point)
        shots = np.full(p_exc.size, shots_per_point)
    return SidebandSpectrum(
        detuning_hz=detunings_hz,
        p_exc=measured,
        stderr=stderr,
        shots=shots,
        duration=duration,
        rabi=rabi,
        eta=trap.eta,
    )
