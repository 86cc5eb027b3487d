"""Shared synthetic-spectrum generators and the sideband peak-ratio
oracle for analysis, protocol and acceptance tests."""

import numpy as np

from tweezersim.dynamics import sideband_rabi, spectroscopy_pi_duration
from tweezersim.protocols import DEFAULT_TRAP, SidebandSpectrum, detuned_transfer


def gaussian_model(f, a_blue, a_red, center, width, offset):
    g = lambda mu: np.exp(-((f - mu) ** 2) / (2 * width**2))
    return a_blue * g(center) + a_red * g(-center) + offset


def make_gaussian_spectrum(
    nbar,
    rng,
    shots_per_point=300,
    a_blue=0.9,
    center=35e3,
    width=2e3,
    offset=0.0,
    n_side=15,
    span=7e3,
):
    """Matched-model synthetic sideband spectrum with binomial noise.

    The true cooling-peak height follows the thermal ratio
    a_red = q * a_blue with q = nbar / (nbar + 1).
    """
    q = nbar / (nbar + 1.0)
    a_red = q * a_blue
    side = np.linspace(center - span, center + span, n_side)
    f = np.concatenate([-side[::-1], side])
    p_true = np.clip(gaussian_model(f, a_blue, a_red, center, width, offset), 0.0, 1.0)
    counts = rng.binomial(shots_per_point, p_true)
    p = counts / shots_per_point
    stderr = np.sqrt(np.clip(p * (1 - p), 1e-12, None) / shots_per_point)
    return SidebandSpectrum(
        detuning_hz=f,
        p_exc=p,
        stderr=stderr,
        shots=np.full(f.size, shots_per_point),
    )


def sideband_peak_ratio(dist, trap=None, rabi=2 * np.pi * 2e3, duration=None):
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
