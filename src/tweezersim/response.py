"""Fidelity response functions and PSD-weighted infidelity budgets.

A square blue-sideband pi pulse of carrier Rabi frequency rabi and
Lamb-Dicke parameter eta filters stationary noise of one-sided PSD S(f)
into an operation infidelity

    chi = integral S(f) * I(f) df,

with S in (rad/s)^2/Hz, I in s^2 and f in Hz. The trap-frequency and
laser-frequency channels share the same response; for them the closed
form is

    I(f) = [ w * cos(pi f T) / (w^2 - (2 pi f)^2) ]^2,  w = eta * rabi,

with T = pi / w, continued analytically through the removable
singularity at f = w / (2 pi) where I = (T / 4)^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CHANNELS, QuasiStatic, SpectralDensity
from .errors import GridMismatchError, QuadratureError, ValidationError

#: Quadrature density: panels per oscillation period of the fastest scale.
PANELS_PER_PERIOD = 400


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
        if self.channel not in CHANNELS:
            raise ValidationError(f"channel must be one of {CHANNELS}")
        if self.duration is None:
            object.__setattr__(self, "duration", math.pi / (self.eta * self.rabi))
        elif self.duration < 0:
            raise ValidationError("duration must be >= 0")


@dataclass(frozen=True)
class ResponseFunction:
    """I(f) on a frequency grid with its provenance."""

    frequencies_hz: np.ndarray
    values: np.ndarray  # s^2
    channel: str
    method: str  # "closed-form" or "numeric"
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


def response_closed_form(f, eta: float, rabi: float):
    """Closed-form I(f) for the trap/laser-frequency channels (scalar or array).

    Evaluated in the numerically stable form
        I = w^2 (pi/(2w))^2 sinc^2((w - x)/(2w)) / (w + x)^2,  x = 2 pi f,
    which is exact and continuous through x = w.
    """
    if eta <= 0 or rabi <= 0:
        raise ValidationError("eta and rabi must be positive")
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValidationError("f must be >= 0")
    w = eta * rabi
    x = 2.0 * np.pi * f
    val = w**2 * (np.pi / (2.0 * w)) ** 2 * np.sinc((w - x) / (2.0 * w)) ** 2 / (w + x) ** 2
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


def _correlator(channel: str, eta: float, rabi: float):
    """Connected Heisenberg-picture correlator C(t, tau) of the channel."""
    w = eta * rabi
    if channel in ("trap_frequency", "laser_frequency"):
        return lambda t, tau: 0.25 * np.sin(w * t) * np.sin(w * tau)
    if channel == "laser_amplitude":
        return lambda t, tau: (eta / 2.0) ** 2 * np.ones(np.broadcast(t, tau).shape)
    raise ValidationError(f"unknown channel {channel!r}")


def required_panels(query: ResponseQuery) -> int:
    """Smallest even Simpson panel count meeting the density criterion."""
    f_osc = max(float(np.max(query.frequencies_hz)), query.eta * query.rabi / (2.0 * np.pi))
    n = max(PANELS_PER_PERIOD, int(math.ceil(PANELS_PER_PERIOD * query.duration * f_osc)))
    return n + (n % 2)


def response_numeric(query: ResponseQuery, n_panels: int = None) -> ResponseFunction:
    """I(f) by composite-Simpson evaluation of the double time integral.

    I(f) = int_0^T dt int_0^T dtau cos(2 pi f (t - tau)) C(t, tau).
    """
    need = required_panels(query)
    if n_panels is None:
        n_panels = need
    elif n_panels < need or n_panels % 2:
        raise QuadratureError(
            f"n_panels = {n_panels} below the required even panel count {need}"
        )
    t = np.linspace(0.0, query.duration, n_panels + 1)
    h = query.duration / n_panels
    wts = np.full(n_panels + 1, 2.0)
    wts[1::2] = 4.0
    wts[0] = wts[-1] = 1.0
    wts *= h / 3.0
    corr = _correlator(query.channel, query.eta, query.rabi)(t[:, None], t[None, :])
    vals = np.empty(query.frequencies_hz.size)
    for i, f in enumerate(query.frequencies_hz):
        cc = wts * np.cos(2.0 * np.pi * f * t)
        ss = wts * np.sin(2.0 * np.pi * f * t)
        vals[i] = cc @ (corr @ cc) + ss @ (corr @ ss)
    vals = np.maximum(vals, 0.0)
    return ResponseFunction(
        frequencies_hz=query.frequencies_hz.copy(),
        values=vals,
        channel=query.channel,
        method="numeric",
        eta=query.eta,
        rabi=query.rabi,
        duration=query.duration,
    )


def response_function(query: ResponseQuery) -> ResponseFunction:
    """I(f) over the query grid, in closed form where one exists: the
    amplitude channel at any duration, the frequency channels at the
    pi-pulse duration. Any other duration takes Simpson quadrature
    (response_numeric). The result's `method` says which one ran."""
    if query.channel == "laser_amplitude":
        vals = amplitude_response_closed_form(
            query.frequencies_hz, query.eta, query.rabi, query.duration
        )
    elif abs(query.duration - math.pi / (query.eta * query.rabi)) <= 1e-12 * query.duration:
        vals = response_closed_form(query.frequencies_hz, query.eta, query.rabi)
    else:
        return response_numeric(query)
    return ResponseFunction(
        frequencies_hz=query.frequencies_hz.copy(),
        values=np.atleast_1d(vals),
        channel=query.channel,
        method="closed-form",
        eta=query.eta,
        rabi=query.rabi,
        duration=query.duration,
    )


def response_at_zero(response: ResponseFunction) -> float:
    """I(0) for the response's channel, parameters and duration, by the
    method response_function picks for them."""
    query = ResponseQuery(response.eta, response.rabi, [0.0], response.channel, response.duration)
    return float(response_function(query).values[0])


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
        return channel_spec.sigma**2 * response_at_zero(response)
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
