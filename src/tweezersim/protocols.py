"""Preset protocol circuits and the Monte Carlo shot engine.

Three protocols run over the gate layer: repeated ancilla-based
readout, coherence-preserving loss detection with motional shelving,
and algorithmic cooling. Shots run in chunks of CHUNK_SHOTS. A chunk is
one PairBatch (see gates.py) that every gate, measurement and pulse
updates at once, and it draws all its randomness from its own stream,
PCG64(SeedSequence(seed, spawn_key=(scenario index, [phase index,]
chunk index))). The chunk size is a constant, so results do not depend
on the worker count or on the order in which the worker threads run
the chunks.

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

from .dynamics import (
    DEFAULT_STEPS_PER_PULSE,
    NoiseModel,
    PulseKind,
    PulseSpec,
    evolve_rows,
    sideband_rabi,
    spectroscopy_pi_duration,
)
from .errors import ValidationError
from .gates import (
    GateErrorSpec,
    ImagingSpec,
    PairBatch,
    apply_cz,
    apply_data_unitary,
    calibrate_imaging,
    expose_to_imaging,
    heating_jump,
    image_ancilla,
    level_labels,
    local_z,
    measure_data,
    project_level,
    rotate,
)
from .states import (
    DEFAULT_N_MAX,
    ElectronicLevel,
    ThermalSpec,
    TrapSpec,
    thermal_distribution,
)

SCENARIOS = ("present", "absent")
PROTOCOL_KINDS = (
    "repeated_readout",
    "loss_detection",
    "algorithmic_cooling",
    "phase_calibration",
    "sideband_scan",
)

#: Shots per chunk. A constant, so that no output depends on the worker
#: count; one chunk's arrays stay near a megabyte at the default n_max.
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
    side: str = "both"

    def __post_init__(self):
        self.detuning_hz = np.asarray(self.detuning_hz, dtype=float)
        self.p_exc = np.asarray(self.p_exc, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        self.shots = np.asarray(self.shots)
        if np.any(self.p_exc < 0) or np.any(self.p_exc > 1):
            raise ValidationError("excitation probabilities must lie in [0, 1]")


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
    data_psi: str = None  # "up" | "down" | "plus"; default depends on kind
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
    include_carrier_in_scan: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValidationError(f"unknown protocol kind {self.kind!r}")
        if self.shots < 1:
            raise ValidationError(f"shots must be >= 1, got {self.shots}")
        if self.kind == "repeated_readout" and self.n_cyc < 1:
            raise ValidationError("n_cyc must be >= 1 for repeated readout")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ValidationError(f"unknown scenario {s!r}")
        if self.trap is None:
            self.trap = DEFAULT_TRAP
        if self.imaging is None:
            self.imaging = calibrate_imaging(target_fidelity=0.90, p1=0.5)
        if self.data_psi is None:
            self.data_psi = {"loss_detection": "plus", "algorithmic_cooling": "down"}.get(
                self.kind, "up"
            )
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")




@dataclass
class ShotTable:
    """Classical outcomes, one row per (scenario, [phase,] shot).

    ``signals`` and ``ancilla_labels`` have one column per imaging round
    (NaN signals where nothing was imaged); ``data_n`` is -1 where no
    Fock number was read out. ``aux`` is the analyzer phase (loss
    detection), the initial Fock number (cooling) or None; ``events``
    counts the stochastic events by kind (gates.EVENT_KINDS).
    """

    scenario: np.ndarray
    shot: np.ndarray
    signals: np.ndarray
    ancilla_labels: np.ndarray
    data_label: np.ndarray
    data_n: np.ndarray
    data_lost: np.ndarray
    aux: np.ndarray = None
    events: Counter = field(default_factory=Counter)

    @classmethod
    def concat(cls, tables) -> "ShotTable":
        if len(tables) == 1:
            return tables[0]
        cols = {
            f.name: None if tables[0].aux is None and f.name == "aux"
            else np.concatenate([getattr(t, f.name) for t in tables])
            for f in fields(cls)
            if f.name != "events"
        }
        return cls(**cols, events=sum((t.events for t in tables), Counter()))


def _run_chunks(config: ProtocolConfig, chunk, *key) -> ShotTable:
    """chunk(rng, shots) -> ShotTable for every chunk of config.shots shots,
    each with its own stream keyed by (*key, chunk index), on
    config.workers threads; the tables are joined in shot order."""
    n_chunks = -(-config.shots // CHUNK_SHOTS)

    def run(c):
        ss = np.random.SeedSequence(config.seed, spawn_key=(*key, c))
        shots = np.arange(c * CHUNK_SHOTS, min((c + 1) * CHUNK_SHOTS, config.shots))
        return chunk(np.random.Generator(np.random.PCG64(ss)), shots)

    if config.workers <= 1 or n_chunks == 1:
        return ShotTable.concat([run(c) for c in range(n_chunks)])
    with ThreadPoolExecutor(max_workers=min(config.workers, n_chunks)) as ex:
        return ShotTable.concat(list(ex.map(run, range(n_chunks))))


def _data_amps(electronic, n, n_max: int) -> np.ndarray:
    """Data amplitudes (shots, 2, n_max + 1): one electronic state in Fock state n per shot."""
    amps = np.zeros((n.size, 2, n_max + 1), dtype=np.complex128)
    amps[np.arange(n.size), :, n] = electronic
    return amps


def _initial_n(config: ProtocolConfig, rng, size: int) -> np.ndarray:
    """Fock numbers drawn from the thermal distribution at data_nbar."""
    if config.data_nbar > 0:
        p = thermal_distribution(ThermalSpec(nbar=config.data_nbar, n_max=config.n_max))
        return rng.choice(config.n_max + 1, p=p, size=size)
    return np.zeros(size, dtype=np.intp)


def _new_pairs(config: ProtocolConfig, rng, shots, present: bool, anc_level) -> PairBatch:
    """Fresh pairs: the configured data state (an absent data atom sits in
    (up, 0), masked) and a ground-state-motion ancilla at anc_level that
    is absent with ancilla_absent_prob."""
    if present:
        electronic = _ELECTRONIC.get(config.data_psi)
        if electronic is None:
            raise ValidationError(f"unknown data_psi {config.data_psi!r}")
        data = _data_amps(electronic, _initial_n(config, rng, shots.size), config.n_max)
    else:
        data = _data_amps(_ELECTRONIC["up"], np.zeros(shots.size, dtype=np.intp), config.n_max)
    return PairBatch.prepare(
        data,
        np.eye(2)[int(anc_level)],
        data_lost=not present,
        anc_lost=rng.random(shots.size) < config.ancilla_absent_prob,
        rng=rng,
        errors=config.gate_errors,
    )


def _fresh_ancilla(batch: PairBatch, config: ProtocolConfig, level) -> PairBatch:
    """Replace every imaged (level-definite) ancilla by a fresh one at level."""
    data = batch.psi.sum(axis=3)  # one anc level is empty: the data's state
    batch.psi = data[..., None] * np.eye(2)[int(level)]
    batch.anc_lost = batch.rng.random(batch.size) < config.ancilla_absent_prob
    return batch


def _evolve_data(batch: PairBatch, pulse: PulseSpec, config: ProtocolConfig) -> PairBatch:
    """Drive every present data atom through a pulse, each under its own
    noise realization; the ancilla levels are spectators."""
    on = ~batch.data_lost
    if on.any():
        amps = batch.psi[on].reshape(-1, 2 * (config.n_max + 1), 2)
        out = evolve_rows(
            amps, pulse, config.trap, config.noise, config.steps_per_pulse, batch.rng
        )
        batch.psi[on] = out.reshape(-1, 2, config.n_max + 1, 2)
    return batch


# ---------------------------------------------------------------------------
# circuit blocks


def cnot_block(batch: PairBatch, comp_phase=np.pi, local_z_phase: float = 0.0,
               entangle: bool = True) -> PairBatch:
    """Ancilla-flip block: Z_local(data), X^(1/2)(anc), CZ, X^(1/2)(anc, phase).

    comp_phase = pi is the calibrated point of this gate set: it flips
    the ancilla when the data atom is present (in the clock state) and
    returns it unchanged when the data atom is absent. comp_phase may
    hold one value per shot.
    """
    local_z(batch, "data", local_z_phase)
    rotate(batch, "anc", 0.0, np.pi / 2)
    if entangle:
        apply_cz(batch)
    return rotate(batch, "anc", comp_phase, np.pi / 2)


def ideal_rsb_map(n_max: int) -> np.ndarray:
    """Perfect red-sideband pi unitary on (level, n): removes one quantum
    from every excited Fock level, leaves (down, 0) untouched."""
    m = n_max + 1
    u = np.zeros((2, m, 2, m), dtype=np.complex128)
    u[0, 0, 0, 0] = 1.0
    for n in range(1, m):
        u[1, n - 1, 0, n] = 1.0
        u[0, n, 1, n - 1] = -1.0
    u[1, m - 1, 1, m - 1] = 1.0  # uncoupled at this truncation
    return u


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
    omega01 = sideband_rabi(0, 1, config.trap.eta, config.rabi)
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

    def chunk(rng, shots, scenario):
        batch = _new_pairs(config, rng, shots, scenario == "present", ElectronicLevel.UP)
        signals = np.empty((shots.size, config.n_cyc))
        labels = np.empty((shots.size, config.n_cyc), dtype="<U5")
        for rnd in range(config.n_cyc):
            if rnd:
                _fresh_ancilla(batch, config, ElectronicLevel.UP)
            cnot_block(batch, config.comp_phase, config.local_z_phase)
            signals[:, rnd], labels[:, rnd] = image_ancilla(batch, imaging)
            heating_jump(batch, imaging.data_heating_quanta_per_round)
        level, n = measure_data(batch)
        return ShotTable(
            np.full(shots.size, scenario), shots, signals, labels,
            level_labels(level, batch.data_lost), np.where(batch.data_lost, -1, n),
            batch.data_lost, events=batch.events,
        )

    return ShotTable.concat([
        _run_chunks(config, lambda rng, shots, s=s: chunk(rng, shots, s), SCENARIOS.index(s))
        for s in config.scenarios
    ])


def run_loss_detection(config: ProtocolConfig, analyzer_phases=None, reference: bool = False):
    """Coherence-preserving loss detection via motional shelving.

    Sequence per shot: shelve the data superposition into the motional
    manifold (blue sideband through the dynamics engine), CNOT block,
    image the ancilla (the data atom is exposed to the imaging light:
    unshelved ground-state population is removed), unshelve, analyzer
    pi/2 pulse of the scanned phase, projective readout of the data.

    With reference=True the entangling gate and the imaging exposure are
    skipped (drive blocked), giving the idle-sequence fringe.

    Returns (table, fringe) where fringe maps scenario -> (phases,
    up-fraction, stderr).
    """
    if analyzer_phases is None:
        analyzer_phases = config.analyzer_phases
    analyzer_phases = np.asarray(analyzer_phases, dtype=float)
    shelve = _shelving_pulse(config)
    unshelve = replace(shelve, phase=shelve.phase + np.pi)

    def chunk(rng, shots, scenario, phi):
        batch = _new_pairs(config, rng, shots, scenario == "present", ElectronicLevel.UP)
        _evolve_data(batch, shelve, config)
        cnot_block(batch, config.comp_phase, config.local_z_phase, entangle=not reference)
        if reference:
            signals = np.full(shots.size, np.nan)
            anc_up = batch.populations("anc")[:, 0] <= 0.5
            labels = level_labels(anc_up.astype(int), batch.anc_lost)
        else:
            signals, labels = image_ancilla(batch, config.imaging)
            expose_to_imaging(batch, config.imaging)
        _evolve_data(batch, unshelve, config)
        rotate(batch, "data", phi, np.pi / 2)
        level = project_level(batch, "data", ~batch.data_lost)
        return ShotTable(
            np.full(shots.size, scenario), shots, signals[:, None], labels[:, None],
            level_labels(level, batch.data_lost), np.full(shots.size, -1),
            batch.data_lost, np.full(shots.size, phi), batch.events,
        )

    tables = []
    fringe = {}
    for scenario in config.scenarios:
        up_fraction = np.zeros(analyzer_phases.size)
        for k, phi in enumerate(analyzer_phases):
            table = _run_chunks(
                config, lambda rng, shots, s=scenario, p=phi: chunk(rng, shots, s, p),
                SCENARIOS.index(scenario), k,
            )
            up_fraction[k] = np.mean(table.data_label == "up")
            tables.append(table)
        stderr = np.sqrt(np.clip(up_fraction * (1 - up_fraction), 1e-12, None) / config.shots)
        fringe[scenario] = (analyzer_phases.copy(), up_fraction, stderr)
    return ShotTable.concat(tables), fringe


def run_algorithmic_cooling(config: ProtocolConfig):
    """One round of algorithmic cooling on a thermal data atom.

    Returns (table, summary); the summary holds the measured
    ground-state fraction, the fraction conditioned on the correct
    (clock) electronic state, the wrong-state fraction, and the ideal
    one-quantum-removal reference for the configured nbar. The table's
    ancilla label is 'plus'/'minus' by the ancilla's overlap with
    ANC_PLUS after the data readout.
    """
    rsb_map = ideal_rsb_map(config.n_max) if config.ideal_cooling_rsb else None
    omega10 = sideband_rabi(1, 0, config.trap.eta, config.rabi)
    rsb_pulse = PulseSpec(PulseKind.RED_SIDEBAND, rabi=config.rabi, duration=np.pi / omega10)

    def chunk(rng, shots):
        n_init = _initial_n(config, rng, shots.size)
        batch = PairBatch.prepare(
            _data_amps(_ELECTRONIC["down"], n_init, config.n_max),
            _ELECTRONIC["down"],
            anc_lost=rng.random(shots.size) < config.ancilla_absent_prob,
            rng=rng,
            errors=config.gate_errors,
        )
        if rsb_map is not None:
            apply_data_unitary(batch, rsb_map)
        else:
            _evolve_data(batch, rsb_pulse, config)
        cooling_gates(batch)
        level, n = measure_data(batch)
        anc = batch.psi.sum(axis=(1, 2))  # the data is in one basis state now
        plus = np.abs(anc @ np.conjugate(ANC_PLUS)) ** 2 > 0.5
        anc_labels = np.where(batch.anc_lost, "lost", np.where(plus, "plus", "minus"))
        return ShotTable(
            np.full(shots.size, "present"), shots, np.full((shots.size, 1), np.nan),
            anc_labels[:, None], level_labels(level, batch.data_lost),
            np.where(batch.data_lost, -1, n), batch.data_lost, n_init, batch.events,
        )

    table = _run_chunks(config, chunk, 0)
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


def calibrate_phase(config: ProtocolConfig, phases=None):
    """Deterministic phase scan of the compensated ancilla rotation.

    Returns a dict with the scanned phases, the ancilla ground-state
    population per scenario, and the largest deviation of the data-atom
    reduced state across the scan (zero for an ideal local-Z
    implementation).
    """
    if phases is None:
        phases = config.analyzer_phases
    phases = np.asarray(phases, dtype=float)
    data = _data_amps(_ELECTRONIC["up"], np.zeros(phases.size, dtype=np.intp), config.n_max)
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


def detuned_transfer(omega: float, delta: float, duration: float) -> float:
    """Two-level transfer probability at coupling omega and detuning delta."""
    w_eff = math.sqrt(omega * omega + delta * delta)
    if w_eff == 0.0:
        return 0.0
    return (omega / w_eff) ** 2 * math.sin(w_eff * duration / 2.0) ** 2


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
    modeling population removed by the pre-thermometry pushout.
    """
    if trap is None:
        trap = DEFAULT_TRAP
    dist = np.asarray(initial_dist, dtype=float)
    if abs(dist.sum() - 1.0) > 1e-9 or np.any(dist < -1e-12):
        raise ValidationError("initial_dist must be a probability vector")
    if not 0.0 <= wrong_state_fraction < 1.0:
        raise ValidationError("wrong_state_fraction must be in [0, 1)")
    if duration is None:
        duration = spectroscopy_pi_duration(trap.eta, rabi)
    detunings_hz = np.asarray(detunings_hz, dtype=float)
    n_max = dist.size - 1
    f_trap = trap.omega_t / (2 * np.pi)

    blue = np.array([sideband_rabi(n, n + 1, trap.eta, rabi) for n in range(n_max)])
    red = np.array([sideband_rabi(n, n - 1, trap.eta, rabi) for n in range(1, n_max + 1)])
    carrier = np.array([sideband_rabi(n, n, trap.eta, rabi) for n in range(n_max + 1)])

    p_exc = np.zeros(detunings_hz.size)
    for i, f in enumerate(detunings_hz):
        total = 0.0
        d_blue = 2 * np.pi * (f - f_trap)
        d_red = 2 * np.pi * (f + f_trap)
        d_car = 2 * np.pi * f
        for n in range(n_max + 1):
            if dist[n] == 0.0:
                continue
            t = 0.0
            if n < n_max:
                t += detuned_transfer(blue[n], d_blue, duration)
            if n >= 1:
                t += detuned_transfer(red[n - 1], d_red, duration)
            if include_carrier:
                t += detuned_transfer(carrier[n], d_car, duration)
            total += dist[n] * min(t, 1.0)
        p_exc[i] = min(total, 1.0)
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
        stderr = np.sqrt(np.clip(measured * (1 - measured), 1e-12, None) / shots_per_point)
        shots = np.full(p_exc.size, shots_per_point)
    return SidebandSpectrum(
        detuning_hz=detunings_hz,
        p_exc=measured,
        stderr=stderr,
        shots=shots,
        duration=duration,
        rabi=rabi,
        eta=trap.eta,
        side="both",
    )


def sideband_peak_ratio(dist, trap: TrapSpec = None, rabi: float = 2 * np.pi * 2e3,
                        duration: float = None) -> float:
    """Exact resonant-ladder ratio of cooling to heating peak heights.

    Sums the on-resonance transfers of each sideband family; the flat
    far-detuned tail of the opposite sideband is excluded, matching what
    a peak fit above a floating background measures. For a thermal
    distribution this ratio equals the Boltzmann ratio q identically.
    """
    if trap is None:
        trap = DEFAULT_TRAP
    dist = np.asarray(dist, dtype=float)
    n_max = dist.size - 1
    if duration is None:
        duration = spectroscopy_pi_duration(trap.eta, rabi)
    e_red = sum(
        dist[n] * detuned_transfer(sideband_rabi(n, n - 1, trap.eta, rabi), 0.0, duration)
        for n in range(1, n_max + 1)
    )
    e_blue = sum(
        dist[n] * detuned_transfer(sideband_rabi(n, n + 1, trap.eta, rabi), 0.0, duration)
        for n in range(n_max)
    )
    return float(e_red / e_blue)
