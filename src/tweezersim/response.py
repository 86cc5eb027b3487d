"""Fidelity response functions and PSD-weighted infidelity budgets.

A square blue-sideband pulse of carrier Rabi frequency rabi, Lamb-Dicke
parameter eta and duration T (by default the pi time pi / w, w = eta * rabi)
filters stationary noise of one-sided PSD S(f) into an operation infidelity

    chi = integral S(f) * I(f) df,

with S in (rad/s)^2/Hz, I in s^2 and f in Hz. Each channel's correlator
has rank one, C(t, tau) = g(t) g(tau), so I(f) = |integral_0^T g(t)
exp(2 pi i f t) dt|^2 is in closed form at every duration: g = sin(w t) / 2
for the trap- and laser-frequency channels (response_closed_form) and
g = eta / 2 for the laser-amplitude channel. At the pi time the frequency
channels give I(f) = [w cos(pi f T) / (w^2 - (2 pi f)^2)]^2, continued
through the removable singularity at f = w / (2 pi), where I = (T / 4)^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CHANNELS, QuasiStatic, SpectralDensity
from .errors import GridMismatchError, ValidationError


@dataclass(frozen=True)
class ResponseQuery:
    """Inputs for a response-function evaluation."""

    eta: float
    rabi: float  # carrier angular Rabi frequency, rad/s
    frequencies_hz: np.ndarray
    channel: str = "trap_frequency"
    duration: float = None  # defaults to the pi-pulse time pi/(eta*rabi)

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.frequencies_hz, dtype=float))
        if np.any(f < 0) or (f.size > 1 and np.any(np.diff(f) <= 0)):
            raise ValidationError("frequency grid must be >= 0 and strictly increasing")
        object.__setattr__(self, "frequencies_hz", f)
        if self.eta <= 0 or self.rabi <= 0:
            raise ValidationError("eta and rabi must be positive")
        if not (self.eta <= 1e150 and 1e-150 <= self.eta * self.rabi <= 1e150):
            raise ValidationError(  # the closed forms square eta, w and 1 / w
                f"eta = {self.eta:g} and w = eta * rabi = {self.eta * self.rabi:g} rad/s "
                f"must stay within 1e150, and w above 1e-150"
            )
        if self.channel not in CHANNELS:
            raise ValidationError(f"channel must be one of {CHANNELS}")
        if self.duration is None:
            object.__setattr__(self, "duration", math.pi / (self.eta * self.rabi))
        if not (0 <= self.duration <= 1e151 and self.eta * self.duration <= 1e150):  # squared below
            raise ValidationError(f"duration = {self.duration:g} s must lie in [0, 1e151] s and eta * "
                                  f"duration = {self.eta * self.duration:g} s within 1e150 s")


@dataclass(frozen=True)
class ResponseFunction:
    """I(f) on a frequency grid with its provenance."""

    frequencies_hz: np.ndarray
    values: np.ndarray  # s^2
    channel: str
    eta: float
    rabi: float
    duration: float

    def __post_init__(self):
        if np.any(np.asarray(self.values) < 0):
            raise ValidationError("response values must be >= 0")


@dataclass
class InfidelityBudget:
    """Per-channel infidelity contributions chi and their sum."""

    contributions: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def add(self, channel: str, chi: float, provenance: str):
        if chi < 0:
            raise ValidationError("chi must be >= 0")
        self.contributions[channel] = chi
        self.provenance[channel] = provenance

    @property
    def total(self) -> float:
        return float(sum(self.contributions.values()))


def response_closed_form(f, eta: float, rabi: float, duration: float = None):
    """Closed-form I(f) for the trap/laser-frequency channels (scalar or
    array) at duration T, by default the pi time.

    With w = eta * rabi, a = w T / 2, b = pi f T, u = a - b, v = a + b and
    S(z) = sin(z) / z,
        I = (T/4)^2 [(sin a (S(u) + S(v)))^2 + (cos a (S(u) - S(v)))^2].
    Off f = w / (2 pi) the sum and difference take the product forms
    2 (a sin a cos b - b cos a sin b) / (uv) and 2 (b sin a cos b -
    a cos a sin b) / (uv), free of cancellation in the pi-time f^-4 tail;
    near it (|u| < 1/2) the sincs add directly. I(0) = ((1 - cos wT) / (2w))^2.
    """
    if eta <= 0 or rabi <= 0:
        raise ValidationError("eta and rabi must be positive")
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValidationError("f must be >= 0")
    w = eta * rabi
    duration = math.pi / w if duration is None else duration
    a, b = 0.5 * w * duration, np.pi * f * duration
    u, v = a - b, a + b
    near = np.abs(u) < 0.5
    # divided one factor at a time, as u * v may overflow; v > 0 off `near`
    u_off, v_off = np.where(near, 1.0, u), np.where(near, 1.0, v)
    sin_a, cos_a, sin_b, cos_b = math.sin(a), math.cos(a), np.sin(b), np.cos(b)
    s_u, s_v = np.sinc(u / np.pi), np.sinc(v / np.pi)
    total = np.where(near, s_u + s_v, 2.0 * (a * sin_a * cos_b - b * cos_a * sin_b) / u_off / v_off)
    diff = np.where(near, s_u - s_v, 2.0 * (b * sin_a * cos_b - a * cos_a * sin_b) / u_off / v_off)
    quarter = duration / 4.0
    val = (quarter * sin_a * total) ** 2 + (quarter * cos_a * diff) ** 2
    return float(val) if val.ndim == 0 else val


def amplitude_response_closed_form(f, eta: float, rabi: float, duration: float = None):
    """Closed-form I(f) for the laser-amplitude channel.

    The amplitude noise operator is conserved under the drive, so
    I(f) = (eta/2)^2 (sin(pi f T)/(pi f))^2 with the f -> 0 limit
    (eta T / 2)^2.
    """
    if duration is None:
        duration = math.pi / (eta * rabi)
    f = np.asarray(f, dtype=float)
    val = (eta / 2.0) ** 2 * (duration * np.sinc(f * duration)) ** 2
    return float(val) if val.ndim == 0 else val


def _closed_form(channel: str):
    return amplitude_response_closed_form if channel == "laser_amplitude" else response_closed_form


def response_function(query: ResponseQuery) -> ResponseFunction:
    """I(f) over the query grid, in closed form for every channel and duration."""
    vals = _closed_form(query.channel)(query.frequencies_hz, query.eta, query.rabi, query.duration)
    return ResponseFunction(query.frequencies_hz.copy(), np.atleast_1d(vals), query.channel,
                            query.eta, query.rabi, query.duration)


def response_at_zero(response: ResponseFunction) -> float:
    """I(0) for the response's channel, parameters and duration."""
    form = _closed_form(response.channel)
    return float(form(0.0, response.eta, response.rabi, response.duration))


def infidelity(channel_spec, response: ResponseFunction) -> float:
    """PSD-weighted infidelity chi for one noise channel.

    QuasiStatic channels bypass the integral: chi = sigma^2 * I(0), which
    for the trap/laser-frequency channels at the pi time equals
    (sigma / (eta*rabi))^2.
    Tabulated PSDs are integrated by the trapezoid rule over the common
    grid; a warning is raised when the PSD support extends beyond the
    response grid.
    """
    if channel_spec is None:
        return 0.0
    if isinstance(channel_spec, QuasiStatic):
        try:
            chi = channel_spec.sigma**2 * response_at_zero(response)
        except OverflowError:
            chi = math.inf
        if chi == math.inf:
            raise ValidationError(f"sigma^2 I(0) overflows at sigma = {channel_spec.sigma:g} rad/s")
        return chi
    if not isinstance(channel_spec, SpectralDensity):
        raise ValidationError(f"unsupported channel spec {type(channel_spec).__name__}")
    rf, rv = response.frequencies_hz, response.values
    pf = channel_spec.frequencies_hz
    lo = max(rf[0], pf[0])
    hi = min(rf[-1], pf[-1])
    if lo >= hi:
        raise GridMismatchError(
            f"PSD support [{pf[0]}, {pf[-1]}] Hz does not overlap response grid "
            f"[{rf[0]}, {rf[-1]}] Hz"
        )
    if pf[0] < rf[0] - 1e-12 or pf[-1] > rf[-1] + 1e-12:
        warnings.warn(
            "PSD support extends beyond the response grid; the excess is ignored",
            stacklevel=2,
        )
    mask = (rf >= lo) & (rf <= hi)
    grid = rf[mask]
    if grid.size < 2:
        raise GridMismatchError("fewer than 2 response points inside the PSD support")
    s_on_grid = np.interp(grid, pf, channel_spec.values)
    return float(np.trapezoid(s_on_grid * rv[mask], grid))


def budget(noise_model, response_by_channel: dict) -> InfidelityBudget:
    """Assemble an InfidelityBudget from per-channel responses."""
    out = InfidelityBudget()
    for channel, resp in response_by_channel.items():
        spec = noise_model.channel(channel)
        if spec is None:
            continue
        chi = infidelity(spec, resp)
        kind = "quasi-static sigma^2 I(0)" if isinstance(spec, QuasiStatic) else "trapezoid integral S*I"
        out.add(channel, chi, kind)
    return out
