"""Programmed drives, stochastic noise, and time evolution.

The model is the resonant rotating-frame Hamiltonian of a driven
spin-motion ladder. After the rotating-wave approximation each drive
kind couples disjoint (down, n) <-> (up, n') pairs whose strengths carry
generalized-Laguerre matrix elements, with three noise channels entering
as

    H_noise(t) = dwt(t) * n_hat  +  0.5 * fdot(t) * sigma_z
                 + amplitude noise scaling the coupling,

where dwt is trap-frequency noise, fdot laser-frequency noise (the time
derivative of laser phase) and the drive detuning appears as an energy
offset of the up manifold. Two evolution modes exist: ``rwa-ladder``
(full Fock ladder, default) and ``two-level`` (restricted to the
{(down,0), (up,1)} blue-sideband pair with coupling eta*rabi/2 and no
Debye-Waller factor, the form used by the response module).

Phase convention: a noiseless resonant blue-sideband pi pulse maps
(down,0) -> +(up,1), i.e. the documented global phase is zero; sideband
couplings carry an extra factor i relative to the carrier, and the pulse
``phase`` multiplies the coupling by exp(i*phase). The laser phase
reference restarts at every pulse.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre

from . import kernels
from .errors import (
    NumericsError,
    StepSizeError,
    TruncationError,
    ValidationError,
)
from .states import DEFAULT_N_MAX, NORM_TOL, HybridAtomState, TrapSpec

#: Default number of piecewise-constant steps for a noisy pulse.
DEFAULT_STEPS_PER_PULSE = 2000
#: Population allowed to leak past the Fock truncation before erroring.
TRUNCATION_LEAK_TOL = 1e-6
#: Oversampling of the synthesis grid relative to 1/duration.
PSD_OVERSAMPLE = 8


class PulseKind(str, enum.Enum):
    CARRIER = "carrier"
    RED_SIDEBAND = "red_sideband"
    BLUE_SIDEBAND = "blue_sideband"
    FREE = "free"


@dataclass(frozen=True)
class PulseSpec:
    """A square drive pulse.

    rabi is the carrier angular Rabi frequency (rad/s), detuning the
    angular offset from the nominal resonance of ``kind`` (rad/s).
    """

    kind: PulseKind
    rabi: float
    duration: float
    detuning: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", PulseKind(self.kind))
        if self.duration < 0:
            raise ValidationError(f"duration must be >= 0, got {self.duration}")
        if self.rabi < 0:
            raise ValidationError(f"rabi must be >= 0, got {self.rabi}")

    @classmethod
    def bsb_pi(cls, eta: float, rabi: float, detuning: float = 0.0, phase: float = 0.0):
        """Blue-sideband pi pulse with T_pi = pi / (eta * rabi)."""
        return cls(
            PulseKind.BLUE_SIDEBAND,
            rabi=rabi,
            duration=math.pi / (eta * rabi),
            detuning=detuning,
            phase=phase,
        )


@dataclass(frozen=True)
class QuasiStatic:
    """Shot-constant Gaussian noise with standard deviation sigma (rad/s)."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")


@dataclass(frozen=True)
class SpectralDensity:
    """Tabulated one-sided PSD, S in (rad/s)^2 per Hz on a Hz grid.

    The PSD is taken to vanish outside the tabulated support.
    """

    frequencies_hz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        s = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.shape != s.shape or f.size < 2:
            raise ValidationError("PSD needs matching 1-d arrays with >= 2 points")
        if np.any(np.diff(f) <= 0):
            raise ValidationError("PSD frequency grid must be strictly increasing")
        if f[0] < 0:
            raise ValidationError("PSD frequencies must be >= 0")
        if np.any(s < 0):
            raise ValidationError("PSD values must be >= 0")
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "values", s)

    @property
    def f_max(self) -> float:
        return float(self.frequencies_hz[-1])


CHANNELS = ("trap_frequency", "laser_frequency", "laser_amplitude")


@dataclass(frozen=True)
class NoiseModel:
    """Per-channel noise description; None means a quiet channel."""

    trap_frequency: object = None
    laser_frequency: object = None
    laser_amplitude: object = None

    def channel(self, name: str):
        if name not in CHANNELS:
            raise ValidationError(f"unknown noise channel {name!r}")
        return getattr(self, name)

    def f_max(self) -> float:
        fm = 0.0
        for name in CHANNELS:
            ch = getattr(self, name)
            if isinstance(ch, SpectralDensity):
                fm = max(fm, ch.f_max)
        return fm


@dataclass
class NoiseRealization:
    """One sampled time series per channel on a uniform step grid.

    Series are sampled at step midpoints (i + 1/2) * dt and are a
    deterministic function of (model, duration, dt, seed).
    """

    dt: float
    trap_frequency: np.ndarray
    laser_frequency: np.ndarray
    laser_amplitude: np.ndarray
    seed: object = None

    @property
    def n_steps(self) -> int:
        return self.trap_frequency.shape[0]

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt

    @classmethod
    def zeros(cls, duration: float, n_steps: int = 1) -> "NoiseRealization":
        z = np.zeros(n_steps)
        return cls(dt=duration / n_steps, trap_frequency=z, laser_frequency=z.copy(), laser_amplitude=z.copy())


def _synthesize_psd_series(psd: SpectralDensity, duration: float, times: np.ndarray, rng) -> np.ndarray:
    """Random-phase harmonic synthesis of a series with the given PSD.

    Bins of width df = 1 / (PSD_OVERSAMPLE * duration) at midpoint
    frequencies get fixed amplitudes sqrt(2 S df) and independent uniform
    phases, so the ensemble periodogram converges to S(f) and the
    ensemble variance equals the integrated PSD.
    """
    df = 1.0 / (PSD_OVERSAMPLE * duration)
    n_bins = int(math.ceil(psd.f_max / df))
    f_k = (np.arange(n_bins) + 0.5) * df
    s_k = np.interp(f_k, psd.frequencies_hz, psd.values, left=0.0, right=0.0)
    amps = np.sqrt(2.0 * s_k * df)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_bins)
    return np.cos(2.0 * np.pi * np.outer(times, f_k) + phases) @ amps


def sample_noise(model: NoiseModel, duration: float, dt: float, seed) -> NoiseRealization:
    """Draw one noise realization for a pulse of the given duration.

    QuasiStatic channels become shot-constant Gaussian draws; tabulated
    PSDs are synthesized spectrally. Channels are drawn in the fixed
    order trap_frequency, laser_frequency, laser_amplitude so the result
    is reproducible from the seed alone.
    """
    if duration <= 0:
        raise ValidationError(f"duration must be > 0, got {duration}")
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    n_steps = int(round(duration / dt))
    if n_steps < 1 or abs(n_steps * dt - duration) > 1e-9 * duration:
        raise ValidationError("dt must divide duration")
    f_max = model.f_max()
    if f_max > 0 and dt > 1.0 / (20.0 * f_max):
        raise ValidationError(
            f"dt = {dt} too coarse for PSD content up to {f_max} Hz; need dt <= {1.0 / (20.0 * f_max)}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    times = (np.arange(n_steps) + 0.5) * dt
    series = {}
    for name in CHANNELS:
        ch = model.channel(name)
        if ch is None:
            series[name] = np.zeros(n_steps)
        elif isinstance(ch, QuasiStatic):
            series[name] = np.full(n_steps, rng.normal(0.0, ch.sigma))
        elif isinstance(ch, SpectralDensity):
            series[name] = _synthesize_psd_series(ch, duration, times, rng)
        else:
            raise ValidationError(f"unsupported channel spec {type(ch).__name__}")
    return NoiseRealization(
        dt=dt,
        trap_frequency=series["trap_frequency"],
        laser_frequency=series["laser_frequency"],
        laser_amplitude=series["laser_amplitude"],
        seed=seed,
    )


def sideband_rabi(n_from: int, n_to: int, eta: float, rabi: float) -> float:
    """Effective angular Rabi frequency of the (n_from <-> n_to) coupling.

    rabi * exp(-eta^2/2) * eta^|dn| * sqrt(n_<! / n_>!) * L^|dn|_{n_<}(eta^2),
    valid to first sideband order (|dn| <= 1).
    """
    if n_from < 0 or n_to < 0:
        raise ValidationError("Fock numbers must be >= 0")
    dn = abs(n_to - n_from)
    if dn > 1:
        raise ValidationError(f"|n_to - n_from| must be 0 or 1, got {dn}")
    lo = min(n_from, n_to)
    x = eta * eta
    # sqrt(n_<!/n_>!) = 1/sqrt(n_>) for dn = 1, 1 for dn = 0
    root = 1.0 if dn == 0 else 1.0 / math.sqrt(lo + 1)
    return rabi * math.exp(-x / 2.0) * eta**dn * root * float(eval_genlaguerre(lo, dn, x))


def spectroscopy_pi_duration(eta: float, rabi: float) -> float:
    """Duration making the 0<->1 sideband transfer a pi pulse (t01 = 1)."""
    return math.pi / sideband_rabi(0, 1, eta, rabi)


MODES = ("rwa-ladder", "two-level")


def _index(level: int, n: int, n_levels_m: int) -> int:
    return level * n_levels_m + n


def _pair_tables(pulse: PulseSpec, eta: float, n_max: int, mode: str):
    """Coupled-pair indices, couplings, and the uncoupled single states."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    m = n_max + 1
    pairs_g, pairs_e, coup = [], [], []
    if pulse.kind is PulseKind.FREE:
        pass
    elif mode == "two-level":
        if pulse.kind is not PulseKind.BLUE_SIDEBAND:
            raise ValidationError("two-level mode is defined for the blue sideband")
        pairs_g.append(_index(0, 0, m))
        pairs_e.append(_index(1, 1, m))
        coup.append(1j * np.exp(1j * pulse.phase) * eta * pulse.rabi / 2.0)
    elif pulse.kind is PulseKind.CARRIER:
        for n in range(m):
            pairs_g.append(_index(0, n, m))
            pairs_e.append(_index(1, n, m))
            coup.append(np.exp(1j * pulse.phase) * sideband_rabi(n, n, eta, pulse.rabi) / 2.0)
    elif pulse.kind is PulseKind.BLUE_SIDEBAND:
        for n in range(m - 1):
            pairs_g.append(_index(0, n, m))
            pairs_e.append(_index(1, n + 1, m))
            coup.append(1j * np.exp(1j * pulse.phase) * sideband_rabi(n, n + 1, eta, pulse.rabi) / 2.0)
    elif pulse.kind is PulseKind.RED_SIDEBAND:
        for n in range(1, m):
            pairs_g.append(_index(0, n, m))
            pairs_e.append(_index(1, n - 1, m))
            coup.append(1j * np.exp(1j * pulse.phase) * sideband_rabi(n, n - 1, eta, pulse.rabi) / 2.0)
    paired = set(pairs_g) | set(pairs_e)
    singles = np.array([i for i in range(2 * m) if i not in paired], dtype=np.int64)
    return (
        np.array(pairs_g, dtype=np.int64),
        np.array(pairs_e, dtype=np.int64),
        np.array(coup, dtype=np.complex128),
        singles,
    )


def _edges(pulse: PulseSpec, n_max: int, mode: str) -> list:
    """Flat indices of the states the drive would couple past n_max."""
    if mode == "rwa-ladder" and pulse.kind is PulseKind.BLUE_SIDEBAND:
        return [_index(0, n_max, n_max + 1)]  # (down, n_max)
    if mode == "rwa-ladder" and pulse.kind is PulseKind.RED_SIDEBAND:
        return [_index(1, n_max, n_max + 1)]  # (up, n_max)
    return []


def _static_vectors(pulse: PulseSpec, n_max: int):
    """Static diagonal (detuning), Fock-number and sigma_z weight vectors."""
    m = n_max + 1
    nvec = np.tile(np.arange(m, dtype=float), 2)
    zvec = np.concatenate([-np.ones(m), np.ones(m)])
    static = np.zeros(2 * m)
    if pulse.kind is not PulseKind.FREE:
        static[m:] = -pulse.detuning  # up manifold offset in the drive frame
    return static, nvec, zvec


def _amp_factor(pulse: PulseSpec, realization: NoiseRealization) -> np.ndarray:
    if pulse.rabi > 0:
        return 1.0 + realization.laser_amplitude / pulse.rabi
    return np.ones(realization.n_steps)


def build_hamiltonian(
    pulse: PulseSpec,
    trap: TrapSpec,
    realization: NoiseRealization,
    t: float,
    mode: str = "rwa-ladder",
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """Dense Hermitian operator at time t (hbar = 1 units).

    Diagnostic and test entry point; `evolve` applies the same blocks
    directly without assembling the matrix.
    """
    if t < 0 or t > realization.duration * (1 + 1e-12):
        raise ValidationError(f"t = {t} outside [0, {realization.duration}]")
    pg, pe, coup, _ = _pair_tables(pulse, trap.eta, n_max, mode)
    static, nvec, zvec = _static_vectors(pulse, n_max)
    i = min(int(t / realization.dt), realization.n_steps - 1)
    diag = (
        static
        + realization.trap_frequency[i] * nvec
        + 0.5 * realization.laser_frequency[i] * zvec
    )
    h = np.diag(diag.astype(np.complex128))
    af = _amp_factor(pulse, realization)[i]
    for g, e, c in zip(pg, pe, coup):
        h[e, g] = c * af
        h[g, e] = np.conj(c * af)
    return h


def _series(pulse: PulseSpec, r: NoiseRealization):
    """Kernel series of one realization: trap, frequency, amplitude factor, dt."""
    return r.trap_frequency, r.laser_frequency, _amp_factor(pulse, r), r.dt


def _run_kernel(
    amps0, pulse, trap, trap_series, freq_series, ampf_series, dt, mode, n_max, guards=True
):
    """Guarded kernel call: propagate flat amplitudes amps0 through a pulse.

    amps0 has shape (dim,) or (dim, k). 1-d series (one trajectory)
    return amps0 evolved; 2-d series (n_traj, n_steps) with a flat amps0
    return (n_traj, dim), each row evolved from amps0. Raises
    StepSizeError when dt * max|H| > 0.1 in any trajectory of more than
    one step. With guards on, applies _check_truncation to every
    trajectory, taking the k columns as one state (the levels of a
    spectator partner atom).
    """
    pg, pe, coup, singles = _pair_tables(pulse, trap.eta, n_max, mode)
    static, nvec, zvec = _static_vectors(pulse, n_max)

    if trap_series.shape[-1] > 1:
        # piecewise-constant approximation in play: enforce the step bound
        bound = (
            abs(pulse.detuning)
            + n_max * np.max(np.abs(trap_series), axis=-1, initial=0.0)
            + 0.5 * np.max(np.abs(freq_series), axis=-1, initial=0.0)
            + np.max(np.abs(coup), initial=0.0) * np.max(np.abs(ampf_series), axis=-1)
        )
        worst = float(np.max(bound)) * dt
        if worst > 0.1:
            raise StepSizeError(f"dt * max|H| = {worst:.3f} rad exceeds 0.1; reduce dt")
    args = (pg, pe, coup, singles, static, nvec, zvec, trap_series, freq_series, ampf_series, dt)
    if trap_series.ndim == 1:
        out = kernels.evolve_blocks(amps0.copy(), *args)
    else:
        out = np.empty((trap_series.shape[0], amps0.size), dtype=np.complex128)
        kernels.evolve_blocks_batch(amps0, *args, out)
    if guards:
        before = amps0.reshape(1, amps0.shape[0], -1)
        _check_truncation(before, out.reshape((-1,) + before.shape[1:]), pulse, n_max, mode)
    return out


def _check_truncation(before, after, pulse, n_max, mode):
    """Truncation guards on rows of states before and after a pulse.

    before and after have shape (rows, dim, k), k columns per row (a
    partner atom's levels); before may have a single row shared by all.
    Raises TruncationError when a row populates a truncation edge the
    drive couples out of space, or when a pulse moves more than
    TRUNCATION_LEAK_TOL of a row's population into the top Fock level.
    """
    def pop(a, idx):
        return (np.abs(a[:, idx]) ** 2).sum(axis=(1, 2))

    edge_pop = float(np.max(pop(before, _edges(pulse, n_max, mode)), initial=0.0))
    if edge_pop > TRUNCATION_LEAK_TOL:
        raise TruncationError(
            f"population {edge_pop:.3e} at the truncation edge would couple "
            f"past n_max = {n_max}; increase n_max"
        )
    top = [n_max, 2 * n_max + 1]
    leak = float(np.max(pop(after, top) - pop(before, top)))
    if leak > TRUNCATION_LEAK_TOL:
        raise TruncationError(
            f"pulse moved {leak:.3e} population into the top "
            f"Fock level n = {n_max}; increase n_max"
        )


def evolve(
    state: HybridAtomState,
    pulse: PulseSpec,
    trap: TrapSpec,
    realization: NoiseRealization = None,
    mode: str = "rwa-ladder",
) -> HybridAtomState:
    """Apply the time-ordered pulse propagator to a state.

    With no realization the pulse is noiseless and is applied in a single
    exact step. Norm is preserved within 1e-10 per operation.
    """
    if state.lost:
        raise ValidationError("cannot evolve a lost atom")
    state.check_norm()
    if pulse.duration == 0:
        return state.copy()
    if realization is None:
        realization = NoiseRealization.zeros(pulse.duration)
    if abs(realization.duration - pulse.duration) > 1e-9 * max(pulse.duration, 1e-300):
        raise ValidationError(
            f"realization duration {realization.duration} != pulse duration {pulse.duration}"
        )
    amps = _run_kernel(
        state.amps.reshape(-1), pulse, trap, *_series(pulse, realization), mode, state.n_max
    )
    out = HybridAtomState(amps.reshape(2, -1))
    if abs(out.norm_sq() - 1.0) > NORM_TOL:
        raise NumericsError(f"evolution norm drift {out.norm_sq() - 1.0:.3e}")
    return out


def propagator(
    pulse: PulseSpec,
    trap: TrapSpec,
    realization: NoiseRealization = None,
    mode: str = "rwa-ladder",
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """Full (2(n_max+1))^2 propagator matrix, for tests and diagnostics."""
    r = realization if realization is not None else NoiseRealization.zeros(pulse.duration)
    identity = np.eye(2 * (n_max + 1), dtype=np.complex128)
    return _run_kernel(identity, pulse, trap, *_series(pulse, r), mode, n_max, guards=False)


def evolve_batch(
    state: HybridAtomState,
    pulse: PulseSpec,
    trap: TrapSpec,
    realizations_trap: np.ndarray,
    realizations_freq: np.ndarray,
    realizations_ampf: np.ndarray,
    dt: float,
    mode: str = "rwa-ladder",
) -> np.ndarray:
    """Evolve one initial state under many noise series (rows) at once.

    Series arrays have shape (n_traj, n_steps); amplitude rows are the
    multiplicative factor (rabi + d_rabi) / rabi. Returns final flat
    amplitudes of shape (n_traj, 2 * (n_max + 1)).
    """
    if state.lost:
        raise ValidationError("cannot evolve a lost atom")
    state.check_norm()
    return _run_kernel(
        state.amps.reshape(-1).astype(np.complex128),
        pulse,
        trap,
        realizations_trap,
        realizations_freq,
        realizations_ampf,
        dt,
        mode,
        state.n_max,
    )


def evolve_rows(
    amps: np.ndarray,
    pulse: PulseSpec,
    trap: TrapSpec,
    noise: NoiseModel = None,
    steps: int = DEFAULT_STEPS_PER_PULSE,
    rng=None,
    mode: str = "rwa-ladder",
) -> np.ndarray:
    """Evolve one state per row, each under its own noise realization.

    amps has shape (rows, 2 * (n_max + 1), k): flat (level, n)
    amplitudes with k spectator columns (a partner atom's levels) that
    the pulse does not touch; each row has norm 1. With noise None the
    pulse is noiseless and every row shares one exact step; otherwise a
    realization of `steps` steps is drawn from rng for each row, in row
    order. The step-size, truncation and norm guards apply per row.
    """
    n_max = amps.shape[1] // 2 - 1
    norm_sq = np.sum(np.abs(amps) ** 2, axis=(1, 2))
    if np.any(np.abs(norm_sq - 1.0) > NORM_TOL):
        raise ValidationError("every row must have norm 1")
    if noise is None:
        out = propagator(pulse, trap, None, mode, n_max) @ amps
        _check_truncation(amps, out, pulse, n_max, mode)
    else:
        dt = pulse.duration / steps
        out = np.stack([
            _run_kernel(a, pulse, trap, *_series(pulse, sample_noise(noise, pulse.duration, dt, rng)),
                        mode, n_max)
            for a in amps
        ])
    drift = float(np.max(np.abs(np.sum(np.abs(out) ** 2, axis=(1, 2)) - 1.0), initial=0.0))
    if drift > NORM_TOL:
        raise NumericsError(f"evolution norm drift {drift:.3e}")
    return out


def load_psd_csv(path, convention: str = "frequency") -> SpectralDensity:
    """Read a two-column CSV (frequency Hz, S value) into a SpectralDensity.

    convention="frequency": values are already (rad/s)^2/Hz.
    convention="phase": values are rad^2/Hz of laser phase and are
    converted with the (2 pi f)^2 weight to frequency-noise units.
    Lines that do not parse as two floats (headers, comments) are skipped.
    """
    if convention not in ("frequency", "phase"):
        raise ValidationError(f"convention must be 'frequency' or 'phase', got {convention!r}")
    freqs, vals = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.replace(",", " ").split()
            if len(parts) < 2:
                continue
            try:
                f, s = float(parts[0]), float(parts[1])
            except ValueError:
                continue
            freqs.append(f)
            vals.append(s)
    if len(freqs) < 2:
        raise ValidationError(f"PSD file {path} has fewer than 2 numeric rows")
    f = np.asarray(freqs)
    s = np.asarray(vals)
    if convention == "phase":
        s = (2.0 * np.pi * f) ** 2 * s
    return SpectralDensity(f, s)
