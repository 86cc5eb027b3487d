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
singularity at f = w / (2 pi) where I = (T / 4)^2. Off the pi time a
Simpson rule integrates it; each channel's correlator has rank one, so its
double sum is one weighted sum per frequency (response_numeric).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CHANNELS, QuasiStatic, SpectralDensity
from .errors import GridMismatchError, ValidationError

#: Quadrature density: panels per oscillation period of the fastest scale.
PANELS_PER_PERIOD = 400
#: Most Simpson panels a numeric response may take (~0.3 GB of time vectors).
MAX_PANELS = 10_000_000


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


def required_panels(query: ResponseQuery) -> int:
    """Smallest even Simpson panel count meeting the density criterion. One
    past MAX_PANELS, or infinite, raises ValidationError before any allocation."""
    f_osc = max(float(np.max(query.frequencies_hz)), query.eta * query.rabi / (2.0 * np.pi))
    need = PANELS_PER_PERIOD * query.duration * f_osc
    if not need <= MAX_PANELS:
        raise ValidationError(
            f"{query.duration:g} s up to {f_osc:g} Hz needs {need:.3g} Simpson panels, "
            f"more than the cap of {MAX_PANELS:,}"
        )
    n = max(PANELS_PER_PERIOD, math.ceil(need))
    return n + (n % 2)


def response_numeric(query: ResponseQuery) -> ResponseFunction:
    """I(f) = int_0^T dt int_0^T dtau cos(2 pi f (t - tau)) C(t, tau) by
    composite Simpson. C has rank one, C(t, tau) = g(t) g(tau) with
    g = sin(w t) / 2 for the frequency channels and eta / 2 for the
    amplitude channel, so with v = (Simpson weights) * g(t) the double sum
    is (sum_i v_i cos 2 pi f t_i)^2 + (sum_i v_i sin 2 pi f t_i)^2: one
    weighted sum per frequency, in memory O(panels)."""
    n_panels = required_panels(query)
    t = np.linspace(0.0, query.duration, n_panels + 1)
    v = np.full(n_panels + 1, 2.0)
    v[1::2] = 4.0
    v[0] = v[-1] = 1.0
    v *= query.duration / n_panels / 3.0
    amplitude = query.channel == "laser_amplitude"
    v *= query.eta / 2.0 if amplitude else 0.5 * np.sin(query.eta * query.rabi * t)
    vals = np.empty(query.frequencies_hz.size)
    for i, f in enumerate(query.frequencies_hz):
        phase = 2.0 * np.pi * f * t
        vals[i] = (v @ np.cos(phase)) ** 2 + (v @ np.sin(phase)) ** 2
    return _result(query, vals, "numeric")


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
    return _result(query, vals, "closed-form")


def _result(query: ResponseQuery, values, method: str) -> ResponseFunction:
    return ResponseFunction(query.frequencies_hz.copy(), np.atleast_1d(values), query.channel,
                            method, query.eta, query.rabi, query.duration)


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
