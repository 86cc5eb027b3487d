"""Hybrid electronic-motional atom states and thermal motional algebra.

The simulation unit is a single atom with two long-lived electronic
levels (optical-qubit ground and clock states) tensored with a truncated
harmonic-oscillator Fock ladder, plus a classical ``lost`` flag. A third
electronic label exists purely for bookkeeping of leakage events, which
are converted to loss immediately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar

from .errors import TruncationError, ValidationError

NORM_TOL = 1e-10
#: Default Fock truncation. Boltzmann ratios q <= 0.7 keep the discarded
#: tail below 1e-4 at this depth; configurable everywhere it matters.
DEFAULT_N_MAX = 12


class ElectronicLevel(enum.IntEnum):
    """Electronic levels of the optical qubit."""

    DOWN = 0  # ground state, bright to fast imaging
    UP = 1  # clock state, dark to fast imaging
    RYDBERG = 2  # transient leakage label only; never holds amplitude


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal (Boltzmann) motional distribution with mean occupation nbar.

    The Boltzmann ratio q = nbar / (nbar + 1) fixes p_n = (1 - q) q^n,
    renormalized over the truncated ladder.
    """

    nbar: float
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        if self.nbar < 0:
            raise ValidationError(f"nbar must be >= 0, got {self.nbar}")
        if self.n_max < 2:
            raise ValidationError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def q(self) -> float:
        return self.nbar / (self.nbar + 1.0)


@dataclass(frozen=True)
class TrapSpec:
    """Harmonic trap and drive-geometry parameters.

    All frequencies are angular (rad/s). When ``eta`` is not supplied it
    is derived as eta = k * sqrt(hbar / (2 m omega_t)).
    """

    omega_t: float  # trap angular frequency, rad/s
    mass: float  # atomic mass, kg
    k: float  # drive-laser wavenumber, 1/m
    eta: float = None  # Lamb-Dicke parameter; derived when None

    def __post_init__(self):
        if self.omega_t <= 0 or self.mass <= 0 or self.k <= 0:
            raise ValidationError("omega_t, mass and k must all be positive")
        if self.eta is None:
            object.__setattr__(self, "eta", lamb_dicke(self.k, self.mass, self.omega_t))
        elif self.eta <= 0:
            raise ValidationError(f"eta must be positive, got {self.eta}")


def lamb_dicke(k: float, mass: float, omega_t: float) -> float:
    """Lamb-Dicke parameter eta = k sqrt(hbar / (2 m omega_t)).

    Monotone decreasing in omega_t and mass, linear in k.
    """
    if k < 0 or mass <= 0 or omega_t <= 0:
        raise ValidationError("lamb_dicke requires k >= 0, mass > 0, omega_t > 0")
    return k * np.sqrt(hbar / (2.0 * mass * omega_t))


def thermal_distribution(spec: ThermalSpec) -> np.ndarray:
    """Renormalized Boltzmann occupation probabilities over n = 0..n_max.

    p_n = (1 - q) q^n / (1 - q^(n_max + 1)); the truncated tail is folded
    back by renormalization so the result is an exact probability vector.
    """
    q = spec.q
    n = np.arange(spec.n_max + 1)
    if q == 0.0:
        p = np.zeros(spec.n_max + 1)
        p[0] = 1.0
        return p
    p = (1.0 - q) * q**n
    return p / (1.0 - q ** (spec.n_max + 1))


def _check_probability_vector(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 1 or dist.size < 1:
        raise ValidationError("distribution must be a 1-d vector")
    if np.any(dist < -1e-12):
        raise ValidationError("distribution has negative entries")
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValidationError(f"distribution sums to {dist.sum()}, expected 1")
    return dist


def remove_one_quantum(dist: np.ndarray) -> np.ndarray:
    """Ideal removal of one motional quantum from a population vector.

    Shifts every occupation down one level and merges n=1 into the ground
    state: out[0] = p0 + p1, out[n] = p[n+1]. Total probability is
    conserved exactly; a Boltzmann input with ratio q maps to ground-state
    occupancy 1 - q^2.
    """
    dist = _check_probability_vector(dist)
    out = np.zeros_like(dist)
    out[0] = dist[0] + dist[1] if dist.size > 1 else dist[0]
    out[1:-1] = dist[2:]
    return out


@dataclass
class HybridAtomState:
    """Pure state over (electronic level, Fock number) plus a lost flag.

    ``amps`` has shape (2, n_max + 1), rows ordered (DOWN, UP). When
    ``lost`` is set the amplitudes are meaningless and ignored by every
    operation.
    """

    amps: np.ndarray
    lost: bool = False

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.ndim != 2 or self.amps.shape[0] != 2 or self.amps.shape[1] < 3:
            raise ValidationError(
                f"amps must have shape (2, n_max+1) with n_max >= 2, got {self.amps.shape}"
            )
        if not self.lost:
            self.check_norm()

    @property
    def n_max(self) -> int:
        return self.amps.shape[1] - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def check_norm(self):
        if abs(self.norm_sq() - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm^2 = {self.norm_sq()}, expected 1")

    def population(self, level: ElectronicLevel = None, n: int = None) -> float:
        if self.lost:
            return 0.0
        a = self.amps
        if level is not None:
            a = a[int(level)][None, :]
        p = np.abs(a) ** 2
        if n is not None:
            p = p[:, n]
        return float(np.sum(p))

    def motional_distribution(self) -> np.ndarray:
        """Motional populations marginalized over the electronic level."""
        if self.lost:
            return np.zeros(self.n_max + 1)
        return np.sum(np.abs(self.amps) ** 2, axis=0)

    def copy(self) -> "HybridAtomState":
        return HybridAtomState(self.amps.copy(), lost=self.lost)

    @classmethod
    def absent(cls, n_max: int = DEFAULT_N_MAX) -> "HybridAtomState":
        """Placeholder for an empty trap site; behaves like a lost atom."""
        amps = np.zeros((2, n_max + 1), dtype=np.complex128)
        return cls(amps, lost=True)


def prepare_state(level, motional, n_max: int = DEFAULT_N_MAX, rng=None) -> HybridAtomState:
    """Build a product state (electronic) x (motional).

    Parameters
    ----------
    level : ElectronicLevel or length-2 complex sequence
        Electronic level, or normalized (down, up) amplitudes for an
        electronic superposition.
    motional : int, ThermalSpec, or complex sequence
        Fock number, a thermal distribution to sample one Fock state from
        (trajectory mode, requires ``rng``), or normalized motional
        amplitudes.
    """
    if isinstance(level, ElectronicLevel) or isinstance(level, int):
        level = ElectronicLevel(level)
        if level == ElectronicLevel.RYDBERG:
            raise ValidationError("cannot prepare population in the leakage label")
        evec = np.zeros(2, dtype=np.complex128)
        evec[int(level)] = 1.0
    else:
        evec = np.asarray(level, dtype=np.complex128)
        if evec.shape != (2,):
            raise ValidationError("electronic amplitudes must have length 2")
        if abs(np.sum(np.abs(evec) ** 2) - 1.0) > NORM_TOL:
            raise ValidationError("electronic amplitudes must be normalized")

    if isinstance(motional, ThermalSpec):
        if motional.n_max != n_max:
            raise ValidationError("ThermalSpec n_max must match the state n_max")
        if rng is None:
            raise ValidationError("sampling a thermal state requires rng")
        p = thermal_distribution(motional)
        n = int(rng.choice(motional.n_max + 1, p=p))
        mvec = np.zeros(n_max + 1, dtype=np.complex128)
        mvec[n] = 1.0
    elif isinstance(motional, (int, np.integer)):
        if motional < 0:
            raise ValidationError(f"Fock number must be >= 0, got {motional}")
        if motional > n_max:
            raise TruncationError(f"requested n = {motional} exceeds n_max = {n_max}")
        mvec = np.zeros(n_max + 1, dtype=np.complex128)
        mvec[int(motional)] = 1.0
    else:
        mvec = np.asarray(motional, dtype=np.complex128)
        if mvec.ndim != 1 or mvec.size > n_max + 1:
            raise TruncationError(
                f"motional amplitudes of length {mvec.size} exceed n_max = {n_max}"
            )
        if abs(np.sum(np.abs(mvec) ** 2) - 1.0) > NORM_TOL:
            raise ValidationError("motional amplitudes must be normalized")
        padded = np.zeros(n_max + 1, dtype=np.complex128)
        padded[: mvec.size] = mvec
        mvec = padded

    return HybridAtomState(np.outer(evec, mvec))
