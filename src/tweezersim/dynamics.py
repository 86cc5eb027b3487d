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
offset of the up manifold. Every pulse, noisy or noiseless, runs the
kernel on per-row windows n0..n0 + W - 1 of the Fock ladder 0..n_max.

Phase convention: a noiseless resonant blue-sideband pi pulse maps
(down,0) -> +(up,1), i.e. the documented global phase is zero; sideband
couplings carry an extra factor i relative to the carrier, and the pulse
``phase`` multiplies the coupling by exp(i*phase). The laser phase
reference restarts at every pulse.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

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
        """Blue-sideband pulse of the two-level pi time pi / (eta * rabi). The
        ladder's (down,0) <-> (up,1) coupling is Omega_01 = eta exp(-eta^2/2)
        rabi, so at eta = 0.36 it transfers 0.9903; the protocols time their
        pulses with omega_01."""
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


@functools.lru_cache(maxsize=4)
def _psd_basis(n_steps: int, n_bins: int) -> np.ndarray:
    """Read-only (2 n_bins, n_steps) array of cos, then sin, of 2 pi f_k t_i.

    f_k t_i = (2k + 1)(2i + 1) / (4 PSD_OVERSAMPLE n_steps) depends on the
    grid shape alone; the integer numerator is reduced modulo the period
    first, so every angle lies in [0, 2 pi). The step bound keeps n_bins
    below 0.4 n_steps, and the cache holds at most four bases.
    """
    period = 4 * PSD_OVERSAMPLE * n_steps
    theta = np.outer(2 * np.arange(n_bins) + 1, 2 * np.arange(n_steps) + 1) % period * (2.0 * np.pi / period)
    return _read_only(np.concatenate([np.cos(theta), np.sin(theta)]))[0]


def sample_noise_rows(model: NoiseModel, duration: float, dt: float, rows: int, rng) -> tuple:
    """Trap-frequency, laser-frequency and laser-amplitude series of `rows`
    realizations, each (rows, n_steps), sampled at step midpoints.

    rng is a Generator, drawn from, a seed for a new one, or a list of one
    Generator per row. Row r is what the r-th of successive sample_noise
    calls on its Generator returns: each row draws its channels in
    CHANNELS order. QuasiStatic channels are shot-constant Gaussian draws.
    A SpectralDensity uses random-phase harmonic synthesis: bins of width
    df = 1 / (PSD_OVERSAMPLE * duration) at midpoint frequencies get
    amplitudes sqrt(2 S df) and uniform phases, so the ensemble periodogram
    converges to S(f). With the cached basis a channel's rows are one
    matrix product, whose bits depend on its row count.
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
    rngs = rng if isinstance(rng, list) else [np.random.default_rng(rng)] * rows
    df = 1.0 / (PSD_OVERSAMPLE * duration)
    amps, draw = {}, {}
    for name in CHANNELS:
        ch = getattr(model, name)
        if isinstance(ch, QuasiStatic):
            draw[name] = functools.partial(np.random.Generator.normal, loc=0.0, scale=ch.sigma, size=1)
        elif isinstance(ch, SpectralDensity):
            f_k = (np.arange(int(math.ceil(ch.f_max / df))) + 0.5) * df
            amps[name] = np.sqrt(2.0 * np.interp(f_k, ch.frequencies_hz, ch.values, left=0.0, right=0.0) * df)
            draw[name] = functools.partial(np.random.Generator.uniform, low=0.0, high=2.0 * np.pi, size=f_k.size)
        elif ch is not None:
            raise ValidationError(f"unsupported channel spec {type(ch).__name__}")
    per_row = [[d(g) for d in draw.values()] for g in rngs]
    series = {}
    for name, drawn in zip(draw, zip(*per_row)):
        drawn = np.stack(drawn)  # (rows, 1) values or (rows, n_bins) phases
        if name in amps:
            a = amps[name]
            coef = np.concatenate([a * np.cos(drawn), -a * np.sin(drawn)], axis=1)
            series[name] = coef @ _psd_basis(n_steps, a.size)
        else:
            series[name] = np.repeat(drawn, n_steps, axis=1)
    return tuple(series[name] if name in series else np.zeros((rows, n_steps)) for name in CHANNELS)


def sample_noise(model: NoiseModel, duration: float, dt: float, seed) -> NoiseRealization:
    """One noise realization: the one-row case of sample_noise_rows."""
    trap, freq, amp = (s[0] for s in sample_noise_rows(model, duration, dt, 1, seed))
    return NoiseRealization(dt=dt, trap_frequency=trap, laser_frequency=freq, laser_amplitude=amp)


def _laguerre_ladder(n_top: int, alpha: int, x: float) -> list:
    """Generalized Laguerre values L^alpha_n(x) for n = 0..n_top, alpha 0 or 1.

    The integer-n recurrence in the order scipy's eval_genlaguerre runs it,
    so each value carries the same bits: d = -x/(alpha+1), p = d + 1, then
    d = -x/(k+alpha+1) p + k/(k+alpha+1) d and p += d for k = 1..n-1, and a
    closing factor binom(n+alpha, n), which is 1 or n + 1. The iterates for
    n are a prefix of those for n_top, so the ladder is one O(n_top) pass.
    """
    out = [1.0, -x + alpha + 1][: n_top + 1]
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n_top):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
        out.append(p if alpha == 0 else (k + 2) * p)
    return out


def sideband_ladder(n_max: int, eta: float, rabi: float) -> tuple:
    """Carrier (n <-> n, n = 0..n_max) and sideband (n <-> n + 1,
    n = 0..n_max - 1) angular Rabi frequencies, as lists whose entries
    equal sideband_rabi's; the n <-> n - 1 coupling is the sideband entry
    n - 1."""
    x = eta * eta
    base = rabi * math.exp(-x / 2.0)
    carrier = [base * lag for lag in _laguerre_ladder(n_max, 0, x)]
    # sqrt(n_<! / n_>!) = 1 / sqrt(n + 1) for n <-> n + 1
    side = [base * eta * (1.0 / math.sqrt(n + 1)) * lag
            for n, lag in enumerate(_laguerre_ladder(n_max - 1, 1, x))]
    return carrier, side


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
    return sideband_ladder(lo + dn, eta, rabi)[dn][lo]


def omega_01(trap: TrapSpec, rabi: float) -> float:
    """sideband_rabi(0, 1, trap.eta, rabi), which times sideband pi pulses and
    spectra. ValidationError unless it is >= 1e-150 and rabi, omega_t <= 1e150
    (rad/s), which keeps the pi time, squared couplings and detunings and their
    products with the pi time finite."""
    w = sideband_rabi(0, 1, trap.eta, rabi)
    if not (w >= 1e-150 and rabi <= 1e150 and trap.omega_t <= 1e150):
        raise ValidationError(
            f"trap.frequency_hz, trap.mass_amu, trap.wavelength_nm, trap.eta and pulse.rabi_hz give "
            f"Omega_01 = {w:g}, rabi = {rabi:g}, omega_t = {trap.omega_t:g} rad/s; the sideband model "
            f"needs Omega_01 >= 1e-150 and rabi, omega_t <= 1e150"
        )
    return w


def spectroscopy_pi_duration(trap: TrapSpec, rabi: float) -> float:
    """Duration making the 0<->1 sideband transfer a pi pulse (t01 = 1)."""
    return math.pi / omega_01(trap, rabi)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=256)
def _pair_tables(pulse: PulseSpec, eta: float, n_max: int):
    """Coupled-pair indices, couplings, and the uncoupled single states.

    Flat index level * (n_max + 1) + n. Computed once per (pulse, eta,
    n_max); the arrays are read-only.
    """
    m = n_max + 1
    pairs_g, pairs_e, coup = [], [], []
    carrier, side = sideband_ladder(n_max, eta, pulse.rabi)
    if pulse.kind is PulseKind.CARRIER:
        for n in range(m):
            pairs_g.append(n)
            pairs_e.append(m + n)
            coup.append(np.exp(1j * pulse.phase) * carrier[n] / 2.0)
    elif pulse.kind is PulseKind.BLUE_SIDEBAND:
        for n in range(m - 1):
            pairs_g.append(n)
            pairs_e.append(m + n + 1)
            coup.append(1j * np.exp(1j * pulse.phase) * side[n] / 2.0)
    elif pulse.kind is PulseKind.RED_SIDEBAND:
        for n in range(1, m):
            pairs_g.append(n)
            pairs_e.append(m + n - 1)
            coup.append(1j * np.exp(1j * pulse.phase) * side[n - 1] / 2.0)
    paired = set(pairs_g) | set(pairs_e)
    singles = np.array([i for i in range(2 * m) if i not in paired], dtype=np.int64)
    return _read_only(
        np.array(pairs_g, dtype=np.int64),
        np.array(pairs_e, dtype=np.int64),
        np.array(coup, dtype=np.complex128),
        singles,
    )


@functools.lru_cache(maxsize=256)
def _static_vectors(pulse: PulseSpec, n_max: int):
    """Static diagonal (detuning), Fock-number and sigma_z weight vectors (read-only)."""
    m = n_max + 1
    nvec = np.tile(np.arange(m, dtype=float), 2)
    zvec = np.concatenate([-np.ones(m), np.ones(m)])
    static = np.zeros(2 * m)
    if pulse.kind is not PulseKind.FREE:
        static[m:] = -pulse.detuning  # up manifold offset in the drive frame
    return _read_only(static, nvec, zvec)


def _amp_factor(pulse: PulseSpec, laser_amplitude: np.ndarray) -> np.ndarray:
    """Coupling factor (rabi + d_rabi) / rabi of an amplitude-noise series."""
    if pulse.rabi > 0:
        return 1.0 + laser_amplitude / pulse.rabi
    return np.ones(laser_amplitude.shape)


def build_hamiltonian(
    pulse: PulseSpec,
    trap: TrapSpec,
    realization: NoiseRealization,
    t: float,
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """Dense Hermitian operator at time t (hbar = 1 units).

    Diagnostic and test entry point; the kernel applies the same blocks
    directly without assembling the matrix.
    """
    if t < 0 or t > realization.duration * (1 + 1e-12):
        raise ValidationError(f"t = {t} outside [0, {realization.duration}]")
    pg, pe, coup, _ = _pair_tables(pulse, trap.eta, n_max)
    static, nvec, zvec = _static_vectors(pulse, n_max)
    i = min(int(t / realization.dt), realization.n_steps - 1)
    diag = (
        static
        + realization.trap_frequency[i] * nvec
        + 0.5 * realization.laser_frequency[i] * zvec
    )
    h = np.diag(diag.astype(np.complex128))
    af = _amp_factor(pulse, realization.laser_amplitude)[i]
    for g, e, c in zip(pg, pe, coup):
        h[e, g] = c * af
        h[g, e] = np.conj(c * af)
    return h


def _run_kernel(amps0, pulse, trap, trap_series, freq_series, ampf_series, dt, n_max, n0=None, guards=True):
    """Guarded kernel call: propagate rows of flat amplitudes through a pulse.

    The series have shape (rows, n_steps), one noise realization per
    row. amps0 has shape (rows, 2 W, k), row t evolving under
    realization t, or (1, 2 W, k) for one state shared by every row; the
    k columns are one state (the levels of a spectator partner atom).
    Slot s holds Fock level n0[t] + s: the pairs and singles are a W-level
    ladder's, and row t's couplings and Fock numbers the n_max ladder's
    at n0[t] + pair and n0[t] + slot (n0 None: the full ladder). Returns
    (rows, 2 W, k). Raises StepSizeError when dt * max|H| > 0.1 (bounded
    on the n_max ladder) in any row of more than one step; with guards
    on, applies _check_guards.
    """
    w = amps0.shape[1] // 2
    pg, pe, coup, singles = _pair_tables(pulse, trap.eta, w - 1)
    static, nvec, zvec = _static_vectors(pulse, w - 1)
    ladder = _pair_tables(pulse, trap.eta, n_max)[2]
    if n0 is not None:
        coup, nvec = ladder[n0[:, None] + np.arange(coup.size)], n0[:, None] + nvec

    if trap_series.shape[1] > 1:
        # piecewise-constant approximation in play: enforce the step bound
        bound = (
            abs(pulse.detuning)
            + n_max * np.max(np.abs(trap_series), axis=1, initial=0.0)
            + 0.5 * np.max(np.abs(freq_series), axis=1, initial=0.0)
            + np.max(np.abs(ladder), initial=0.0) * np.max(np.abs(ampf_series), axis=1)
        )
        worst = float(np.max(bound)) * dt
        if worst > 0.1:
            raise StepSizeError(f"dt * max|H| = {worst:.3f} rad exceeds 0.1; reduce dt")
    shape = (trap_series.shape[0],) + amps0.shape[1:]
    out = np.empty(shape, dtype=np.complex128)
    kernels.evolve_blocks_batch(
        np.broadcast_to(amps0, shape), pg, pe, coup, singles, static, nvec, zvec,
        trap_series, freq_series, ampf_series, dt, out,
    )
    if guards:
        _check_guards(amps0, out, pulse, n_max, 0 if n0 is None else n0)
    return out


def _check_guards(before, after, pulse, n_max, n0):
    """Norm and truncation guards on rows of states before and after a pulse.

    before and after have shape (rows, 2 W, k), k columns per row (a
    partner atom's levels), slot s of a row at Fock level n0 + s (n0 per
    row, or one for all); before may have a single row shared by all.
    Raises ValidationError when a row enters without norm 1,
    TruncationError when a row populates an edge slot, one whose drive
    partner n +- 1 >= 0 lies outside its window (on the full ladder: past
    n_max), or when a pulse moves more than TRUNCATION_LEAK_TOL of a
    row's population into the top Fock level n_max, and NumericsError
    when a row leaves with its norm off by more than NORM_TOL.
    """
    w = before.shape[1] // 2
    p_before, p_after = ((np.abs(a) ** 2).sum(axis=2).reshape(-1, 2, w) for a in (before, after))
    if np.any(np.abs(p_before.sum(axis=(1, 2)) - 1.0) > NORM_TOL):
        raise ValidationError("every row must have norm 1")
    n0, edge_pop = np.reshape(n0, -1), 0.0
    if pulse.kind in (PulseKind.BLUE_SIDEBAND, PulseKind.RED_SIDEBAND):
        # a sideband drives one level's last slot to n0 + W and the other's
        # slot 0 to n0 - 1, which exists when n0 > 0
        rise = int(pulse.kind is PulseKind.RED_SIDEBAND)  # the level driven to n + 1
        edge_pop = float(np.max(p_before[:, rise, -1] + (n0 > 0) * p_before[:, 1 - rise, 0]))
    if edge_pop > TRUNCATION_LEAK_TOL:
        raise TruncationError(
            f"population {edge_pop:.3e} at the truncation edge would couple "
            f"past n_max = {n_max} or its window"
        )
    leak = float(np.max((n0 + w - 1 == n_max) * (p_after - p_before)[:, :, -1].sum(axis=1)))
    if leak > TRUNCATION_LEAK_TOL:
        raise TruncationError(
            f"pulse moved {leak:.3e} population into the top "
            f"Fock level n = {n_max}"
        )
    drift = float(np.max(np.abs(p_after.sum(axis=(1, 2)) - 1.0)))
    if not drift <= NORM_TOL:  # a NaN drift fails too
        raise NumericsError(f"evolution norm drift {drift:.3e}")


def evolve_batch(
    state: HybridAtomState,
    pulse: PulseSpec,
    trap: TrapSpec,
    realizations_trap: np.ndarray,
    realizations_freq: np.ndarray,
    realizations_ampf: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Evolve one initial state under many noise series (rows) at once.

    Series arrays have shape (n_traj, n_steps); amplitude rows are the
    multiplicative factor (rabi + d_rabi) / rabi. Returns final flat
    amplitudes of shape (n_traj, 2 * (n_max + 1)).
    """
    out = _run_kernel(state.amps.reshape(1, -1, 1), pulse, trap, realizations_trap, realizations_freq,
                      realizations_ampf, dt, state.amps.shape[1] - 1)
    return out.reshape(out.shape[:2])


def evolve_rows(
    amps: np.ndarray,
    pulse: PulseSpec,
    trap: TrapSpec,
    noise: NoiseModel = None,
    steps: int = DEFAULT_STEPS_PER_PULSE,
    rng=None,
    n0: np.ndarray = None,
    n_max: int = None,
) -> np.ndarray:
    """Evolve one state per row, each under its own noise realization.

    amps has shape (rows, 2 W, k): each row's window of W Fock levels,
    flat (level, slot) amplitudes with slot s at Fock level n0[row] + s
    of the ladder 0..n_max, and k spectator columns (a partner atom's
    levels) that the pulse does not touch; each row has norm 1. Without
    n0 and n_max the window is the full ladder (n0 = 0, n_max = W - 1).
    Every pulse runs the kernel on the windows, rows a chunk at a time.
    With noise None or a model with no channel the pulse is noiseless:
    zero series in one exact step, and nothing is drawn. Otherwise the
    rows draw their realizations in row order from rng (as in
    sample_noise_rows), each Generator's rows in the chunks it would draw
    alone. Without a SpectralDensity channel each row's H is constant over
    the pulse, so its realization has one exact step and `steps` is not
    used; with one, it has `steps` steps. The step-size, truncation and
    norm guards apply per row.
    """
    w = amps.shape[1] // 2
    if n0 is None:
        n_max = w - 1
    elif n_max is None or n0.size and (n0.min() < 0 or n0.max() + w - 1 > n_max):
        raise ValidationError(f"n0 needs n_max, and every window must lie in the ladder 0..n_max = {n_max}")
    quiet = noise is None or all(noise.channel(c) is None for c in CHANNELS)
    if quiet or noise.f_max() == 0:  # H is constant over the pulse
        steps = 1
    dt = pulse.duration / steps
    out = np.empty(amps.shape, dtype=np.complex128)
    per_call = kernels._rows_per_chunk(steps, _pair_tables(pulse, trap.eta, w - 1)[0].size)
    n_rows = amps.shape[0]
    rngs = rng if isinstance(rng, list) else [np.random.default_rng(rng)] * n_rows
    # (start, stop) pieces of one Generator's rows, as it would draw them alone; a chunk packs them
    chunks, start = [], 0
    for stop in range(1, n_rows + 1):
        if stop == n_rows or rngs[stop] is not rngs[start] or stop - start == per_call:
            if chunks and stop - chunks[-1][0][0] <= per_call:
                chunks[-1].append((start, stop))
            else:
                chunks.append([(start, stop)])
            start = stop
    for pieces in chunks:
        rows = slice(pieces[0][0], pieces[-1][1])
        trap_2d, freq_2d, amp_2d = (np.zeros((rows.stop - rows.start, 1)),) * 3 if quiet else (
            np.concatenate(s) for s in zip(*(sample_noise_rows(noise, pulse.duration, dt, b - a, rngs[a:b])
                                             for a, b in pieces)))
        out[rows] = _run_kernel(amps[rows], pulse, trap, trap_2d, freq_2d, _amp_factor(pulse, amp_2d), dt,
                                n_max, None if n0 is None else n0[rows])
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
