"""The vectorized block-propagation kernel against two references.

The physics oracle is the original step-by-step loop: each step applies
the exact 2x2 exponential per pair in time order. The kernel reorders the
arithmetic (a pairwise product tree and summed phases), so agreement with
it is required to atol 1e-12 rather than bit for bit. The kernel's
per-thread workspace changes where its arrays live but not one operation,
so against conftest's allocate-per-level reference it must agree bit for
bit, on any thread, whatever shapes the thread ran before.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import propagate_reference, two_level_tables

import tweezersim
from tweezersim import kernels
from tweezersim.dynamics import (
    NoiseModel,
    PulseKind,
    PulseSpec,
    SpectralDensity,
    _amp_factor,
    _pair_tables,
    _static_vectors,
    evolve_rows,
)
from tweezersim.states import TrapSpec, prepare_state

ETA = 0.36
RABI = 2 * np.pi * 2e3
T_PI = np.pi / (ETA * RABI)
ATOL = 1e-12
TRAP = TrapSpec(omega_t=2 * np.pi * 35e3, mass=88 * 1.66053906892e-27, k=2 * np.pi / 698e-9, eta=ETA)


def evolve_blocks_scalar(
    amps, pair_g, pair_e, coup, singles, static_diag, nvec, zvec, trap_series, freq_series, amp_factor, dt
):
    """Reference oracle: propagate flat amplitudes in place, one step at a time."""
    for i in range(trap_series.shape[0]):
        dwt = trap_series[i]
        half_fdot = 0.5 * freq_series[i]
        af = amp_factor[i]
        for p in range(pair_g.shape[0]):
            g = pair_g[p]
            e = pair_e[p]
            dg = static_diag[g] + dwt * nvec[g] + half_fdot * zvec[g]
            de = static_diag[e] + dwt * nvec[e] + half_fdot * zvec[e]
            c = coup[p] * af
            a = 0.5 * (dg + de)
            h = 0.5 * (de - dg)
            r = np.sqrt(c.real * c.real + c.imag * c.imag + h * h)
            ph = np.exp(-1j * a * dt)
            pg = amps[g]
            pe = amps[e]
            if r == 0.0:
                amps[g] = ph * pg
                amps[e] = ph * pe
                continue
            cos_ = np.cos(r * dt)
            sin_ = np.sin(r * dt)
            # (v.sigma) with v = (Re c, Im c, -h) / r in the (g, e) basis
            sg = (c.conjugate() * pe - h * pg) / r
            se = (c * pg + h * pe) / r
            amps[g] = ph * (cos_ * pg - 1j * sin_ * sg)
            amps[e] = ph * (cos_ * pe - 1j * sin_ * se)
        for idx in singles:
            d = static_diag[idx] + dwt * nvec[idx] + half_fdot * zvec[idx]
            amps[idx] *= np.exp(-1j * d * dt)
    return amps


def _random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _pulse_tables(pulse, n_max, table):
    """The seven kernel block tables of a pulse: the ladder's
    ("rwa-ladder") or conftest's two-level oracle's ("two-level")."""
    if table == "two-level":
        return two_level_tables(pulse, ETA, n_max)
    return (*_pair_tables(pulse, ETA, n_max), *_static_vectors(pulse, n_max))


def _tables(kind, table, n_max=6):
    """Kernel block tables of a detuned, phase-shifted pulse."""
    pulse = PulseSpec(kind, rabi=RABI, duration=T_PI, detuning=0.3 * ETA * RABI, phase=0.7)
    return _pulse_tables(pulse, n_max, table)


def _series(rng, n_traj, n_steps):
    """Noisy trap, laser-frequency and amplitude-factor rows."""
    trap = rng.normal(size=(n_traj, n_steps)) * 0.05 * ETA * RABI
    freq = rng.normal(size=(n_traj, n_steps)) * 0.2 * ETA * RABI
    ampf = 1.0 + 0.02 * rng.normal(size=(n_traj, n_steps))
    return trap, freq, ampf


def _oracle_batch(amps0, tables, trap, freq, ampf, dt):
    return np.stack(
        [evolve_blocks_scalar(amps0.copy(), *tables, trap[t], freq[t], ampf[t], dt) for t in range(trap.shape[0])]
    )


def _batch(amps0, tables, trap, freq, ampf, dt):
    """Every row of the series from one shared flat state amps0."""
    rows = np.broadcast_to(amps0[None, :, None], (trap.shape[0], amps0.size, 1))
    out = np.empty(rows.shape, dtype=np.complex128)
    return kernels.evolve_blocks_batch(rows, *tables, trap, freq, ampf, dt, out)[:, :, 0]


# the two-level oracle tables are defined for the blue sideband and free
# evolution only
PULSE_CASES = [
    (PulseKind.CARRIER, "rwa-ladder"),
    (PulseKind.RED_SIDEBAND, "rwa-ladder"),
    (PulseKind.BLUE_SIDEBAND, "rwa-ladder"),
    (PulseKind.FREE, "rwa-ladder"),
    (PulseKind.BLUE_SIDEBAND, "two-level"),
    (PulseKind.FREE, "two-level"),
]


@pytest.mark.parametrize("kind, table", PULSE_CASES)
@pytest.mark.parametrize("n_steps", [1, 3, 2001])
def test_single_trajectory_matches_oracle(kind, table, n_steps):
    rng = np.random.default_rng([n_steps, PULSE_CASES.index((kind, table))])
    tables = _tables(kind, table)
    amps = _random_state(rng, 14)
    trap, freq, ampf = _series(rng, 1, n_steps)
    dt = T_PI / n_steps
    want = evolve_blocks_scalar(amps.copy(), *tables, trap[0], freq[0], ampf[0], dt)
    got = _batch(amps, tables, trap, freq, ampf, dt)[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, table", PULSE_CASES)
def test_batch_matches_oracle(kind, table):
    rng = np.random.default_rng(5)
    tables = _tables(kind, table)
    amps0 = _random_state(rng, 14)
    trap, freq, ampf = _series(rng, 5, 200)
    dt = T_PI / 200
    np.testing.assert_allclose(
        _batch(amps0, tables, trap, freq, ampf, dt),
        _oracle_batch(amps0, tables, trap, freq, ampf, dt),
        rtol=0,
        atol=ATOL,
    )


def test_zero_coupling_block_takes_phase_only_branch():
    # a zero-Rabi carrier: every pair has c = 0 and, with the laser
    # frequency quiet, h = 0, so r = 0 on every step while trap noise
    # still rotates the pair's phase
    rng = np.random.default_rng(8)
    pulse = PulseSpec(PulseKind.CARRIER, rabi=0.0, duration=T_PI)
    tables = _pulse_tables(pulse, 3, "rwa-ladder")
    assert not np.any(tables[2])
    amps = _random_state(rng, 8)
    n_steps = 7
    trap = rng.normal(size=n_steps) * 100.0
    freq = np.zeros(n_steps)
    ampf = _amp_factor(pulse, np.zeros(n_steps))
    dt = T_PI / n_steps
    want = evolve_blocks_scalar(amps.copy(), *tables, trap, freq, ampf, dt)
    got = _batch(amps, tables, trap[None], freq[None], ampf[None], dt)[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
    np.testing.assert_allclose(np.abs(got), np.abs(amps), rtol=0, atol=ATOL)


def test_batch_spanning_several_chunks_matches_oracle_and_single_calls():
    rng = np.random.default_rng(21)
    tables = _tables(PulseKind.BLUE_SIDEBAND, "rwa-ladder")
    n_pairs = tables[0].size
    n_steps = 501
    chunk = kernels._CHUNK_ELEMENTS // (n_steps * n_pairs)
    n_traj = 2 * chunk + 3  # two full chunks and a partial one
    amps0 = _random_state(rng, 14)
    trap, freq, ampf = _series(rng, n_traj, n_steps)
    dt = T_PI / n_steps
    got = _batch(amps0, tables, trap, freq, ampf, dt)
    for t in (0, chunk - 1, chunk, 2 * chunk, n_traj - 1):
        want = evolve_blocks_scalar(amps0.copy(), *tables, trap[t], freq[t], ampf[t], dt)
        np.testing.assert_allclose(got[t], want, rtol=0, atol=ATOL)
        single = _batch(amps0, tables, trap[t : t + 1], freq[t : t + 1], ampf[t : t + 1], dt)
        np.testing.assert_array_equal(got[t], single[0])
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


def _random_rows(rng, n_traj, dim, k=2):
    """Per-row initial states (n_traj, dim, k), each column normalized."""
    return np.stack([np.stack([_random_state(rng, dim) for _ in range(k)], axis=1) for _ in range(n_traj)])


@pytest.mark.parametrize("kind, table", PULSE_CASES)
def test_per_row_initial_states_match_oracle(kind, table):
    rng = np.random.default_rng([9, PULSE_CASES.index((kind, table))])
    tables = _tables(kind, table)
    amps0 = _random_rows(rng, 5, 14)
    trap, freq, ampf = _series(rng, 5, 200)
    dt = T_PI / 200
    got = kernels.evolve_blocks_batch(amps0, *tables, trap, freq, ampf, dt, np.empty_like(amps0))
    for t in range(5):
        for col in range(2):
            want = evolve_blocks_scalar(amps0[t, :, col].copy(), *tables, trap[t], freq[t], ampf[t], dt)
            np.testing.assert_allclose(got[t, :, col], want, rtol=0, atol=ATOL)


def test_per_row_batch_spanning_several_chunks_matches_oracle_and_single_calls():
    rng = np.random.default_rng(22)
    tables = _tables(PulseKind.BLUE_SIDEBAND, "rwa-ladder")
    n_steps = 501
    chunk = kernels._CHUNK_ELEMENTS // (n_steps * tables[0].size)
    n_traj = 2 * chunk + 3  # two full chunks and a partial one
    amps0 = _random_rows(rng, n_traj, 14)
    trap, freq, ampf = _series(rng, n_traj, n_steps)
    dt = T_PI / n_steps
    got = kernels.evolve_blocks_batch(amps0, *tables, trap, freq, ampf, dt, np.empty_like(amps0))
    for t in (0, chunk - 1, chunk, 2 * chunk, n_traj - 1):
        for col in range(2):
            want = evolve_blocks_scalar(amps0[t, :, col].copy(), *tables, trap[t], freq[t], ampf[t], dt)
            np.testing.assert_allclose(got[t, :, col], want, rtol=0, atol=ATOL)
        rows = slice(t, t + 1)
        single = kernels.evolve_blocks_batch(
            amps0[rows], *tables, trap[rows], freq[rows], ampf[rows], dt, np.empty_like(amps0[rows])
        )
        np.testing.assert_array_equal(got[t], single[0])
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


def test_pair_tables_are_cached_read_only():
    pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=T_PI, phase=0.7)
    first = _pulse_tables(pulse, 6, "rwa-ladder")
    again = _pulse_tables(pulse, 6, "rwa-ladder")
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError):
            a[...] = 0


def _bit_case(kind, table, n_max, n_steps, n_traj, k, variant="", seed=0):
    """Kernel arguments less `out`: a detuned, phase-shifted pulse's tables,
    per-row initial states (n_traj, dim, k) and noisy series. n_traj None
    means two full dynamics blocks and a partial one, in one call. The
    variant words: "quiet" makes a zero-Rabi, zero-detuning carrier with a
    quiet laser, so r = 0 on every pair and step while trap noise still
    turns the phases; "unit" sets every amplitude factor to exactly 1, as a quiet
    amplitude channel does; "windows" gives the rows W = 3 windows of
    the n_max ladder at n0 = 0..n_max - 2 in turn, with 2-D coup and nvec
    tables as dynamics passes them."""
    rng = np.random.default_rng([seed, n_steps, n_max, k])
    if "quiet" in variant:
        pulse = PulseSpec(PulseKind.CARRIER, rabi=0.0, duration=T_PI)
    else:
        pulse = PulseSpec(kind, rabi=RABI, duration=T_PI, detuning=0.3 * ETA * RABI, phase=0.7)
    tables = _pulse_tables(pulse, 2 if "windows" in variant else n_max, table)
    if n_traj is None:
        n_traj = 2 * kernels._rows_per_chunk(n_steps, tables[0].size) + 3
    if "windows" in variant:
        pg, pe, coup, singles, static, nvec, zvec = tables
        n0 = np.arange(n_traj) % (n_max - 1)
        ladder = _pulse_tables(pulse, n_max, table)[2]
        tables = (pg, pe, ladder[n0[:, None] + np.arange(coup.size)], singles, static, n0[:, None] + nvec, zvec)
    trap, freq, ampf = _series(rng, n_traj, n_steps)
    if "quiet" in variant:
        freq[:] = 0.0
    if "unit" in variant:
        ampf[:] = 1.0
    amps0 = _random_rows(rng, n_traj, tables[4].size, k)
    return amps0, tables, trap, freq, ampf, T_PI / n_steps


def _kernel(case):
    amps0, tables, trap, freq, ampf, dt = case
    return kernels.evolve_blocks_batch(amps0, *tables, trap, freq, ampf, dt, np.empty_like(amps0))


BLUE, RED = PulseKind.BLUE_SIDEBAND, PulseKind.RED_SIDEBAND
BIT_CASES = [
    pytest.param(BLUE, "rwa-ladder", 12, 2000, 4, 1, "", id="pulse-ensemble-2000"),
    pytest.param(BLUE, "rwa-ladder", 9, 1999, 2, 2, "", id="odd-1999-k2"),
    pytest.param(RED, "rwa-ladder", 20, 333, 3, 3, "", id="red-333-k3"),
    pytest.param(PulseKind.CARRIER, "rwa-ladder", 6, 7, 5, 2, "", id="carrier-7"),
    pytest.param(PulseKind.FREE, "rwa-ladder", 6, 2, 3, 2, "", id="free-2"),
    pytest.param(BLUE, "rwa-ladder", 6, 1, 4, 2, "", id="one-step"),
    pytest.param(BLUE, "two-level", 6, 999, 3, 2, "", id="two-level-999"),
    pytest.param(BLUE, "two-level", 3, 2, 1, 2, "", id="two-level-2"),
    pytest.param(BLUE, "two-level", 6, 5, 1, 2, "", id="two-level-5"),
    pytest.param(BLUE, "rwa-ladder", 6, 501, None, 2, "", id="chunks-501"),
    pytest.param(RED, "rwa-ladder", 6, 500, None, 1, "", id="chunks-500"),
    pytest.param(BLUE, "rwa-ladder", 12, 1, None, 1, "", id="chunks-one-step"),
    pytest.param(None, "rwa-ladder", 3, 7, 3, 2, "quiet", id="zero-coupling-7"),
    pytest.param(None, "rwa-ladder", 3, 2000, 2, 1, "quiet", id="zero-coupling-2000"),
    pytest.param(BLUE, "rwa-ladder", 12, 2000, 4, 1, "unit", id="unit-pulse-ensemble-2000"),
    pytest.param(BLUE, "rwa-ladder", 9, 1999, 2, 2, "unit", id="unit-odd-1999-k2"),
    pytest.param(BLUE, "two-level", 6, 999, 3, 2, "unit", id="unit-two-level-999"),
    pytest.param(None, "rwa-ladder", 3, 7, 3, 2, "quiet unit", id="unit-zero-coupling-7"),
    pytest.param(BLUE, "rwa-ladder", 6, 3001, None, 2, "windows", id="windows-3001"),
    pytest.param(RED, "rwa-ladder", 6, 1, 5, 2, "windows unit", id="windows-unit-one-step"),
    pytest.param(BLUE, "rwa-ladder", 6, 2000, 5, 1, "windows unit", id="windows-unit-2000"),
]


@pytest.mark.parametrize("kind, table, n_max, n_steps, n_traj, k, variant", BIT_CASES)
def test_kernel_is_bit_identical_to_allocating_reference(kind, table, n_max, n_steps, n_traj, k, variant):
    case = _bit_case(kind, table, n_max, n_steps, n_traj, k, variant)
    amps0, tables, trap, freq, ampf, dt = case
    if "quiet" in variant:
        assert not np.any(tables[2]) and not np.any(freq)
    assert np.all(ampf == 1.0) == ("unit" in variant)
    assert (tables[2].ndim == tables[5].ndim == 2) == ("windows" in variant)
    assert np.array_equal(_kernel(case), propagate_reference(amps0, *tables, trap, freq, ampf, dt))


def test_rows_get_their_bits_whatever_shares_the_call():
    # 8,192 rows x 2 pairs in one step: the final update's temporaries reach
    # the 256 KiB at which numpy reuses a temporary in place, and no row
    # may get other bits than it gets alone
    amps0, tables, trap, freq, ampf, dt = case = _bit_case(BLUE, "rwa-ladder", 2, 1, 8192, 1)
    assert tables[0].size == 2
    got = _kernel(case)
    alone = np.concatenate([_kernel((amps0[t : t + 1], tables, trap[t : t + 1], freq[t : t + 1],
                                     ampf[t : t + 1], dt)) for t in range(trap.shape[0])])
    assert got.tobytes() == alone.tobytes()
    assert got.tobytes() == propagate_reference(amps0, *tables, trap, freq, ampf, dt).tobytes()


@pytest.mark.parametrize("kind", list(PulseKind))
def test_every_pair_shares_its_diagonal_half_differences(kind):
    # the kernel builds h from the first pair's coefficients alone and
    # broadcasts it over the pairs, so each half-difference must take one
    # value per table (or none, without pairs), on every window as well
    pulse = PulseSpec(kind, rabi=RABI, duration=T_PI, detuning=0.3 * ETA * RABI, phase=0.7)
    for n_max in range(21):
        cases = [_pulse_tables(pulse, n_max, "rwa-ladder")]
        if kind in (BLUE, PulseKind.FREE) and n_max > 0:  # the two-level pair needs (up, 1)
            cases.append(_pulse_tables(pulse, n_max, "two-level"))
        for pg, pe, _, _, static, nvec, zvec in cases:
            windows = np.arange(n_max + 1)[:, None] + nvec  # n0 + slot, as dynamics builds them
            for vec in (static, nvec, zvec, *windows):
                assert np.unique(0.5 * (vec[pe] - vec[pg])).size <= 1, (n_max, vec)
        if kind is not PulseKind.FREE and n_max > 0:
            assert cases[0][0].size > 0


def _in_fresh_thread(fn):
    """fn() on a new thread, whose workspace starts empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and result
    return result[0]


def test_workspace_reuse_across_shapes_matches_fresh_threads():
    large = _bit_case(BLUE, "rwa-ladder", 12, 2000, 4, 1)
    small = _bit_case(RED, "rwa-ladder", 3, 7, 2, 2, seed=1)
    for case in (large, small, large):
        np.testing.assert_array_equal(_kernel(case), _in_fresh_thread(lambda: _kernel(case)))
        kernels._local.ws[:] = np.nan  # stale values must never reach a later result


def test_concurrent_evolve_rows_match_sequential_runs():
    # more threads than cores evolve two shapes through the kernel at once,
    # switching often; each thread has its own workspace, so every run
    # matches the same run on this thread
    pulse = PulseSpec.bsb_pi(ETA, RABI)
    model = NoiseModel(laser_frequency=SpectralDensity(np.array([0.0, 5e3]), np.array([2e3, 2e3])))

    def run(job):
        n_max, n_rows, steps = job
        rows = np.zeros((n_rows, 2 * (n_max + 1), 2), dtype=complex)
        for i in range(n_rows):
            rows[i, :, i % 2] = prepare_state(np.array([0.6, 0.8j]), i % 3, n_max=n_max).amps.reshape(-1)
        return evolve_rows(rows, pulse, TRAP, model, steps, np.random.default_rng(n_rows))

    jobs = [(12, 6, 2000), (4, 40, 301)] * 2
    want = [run(job) for job in jobs]
    barrier = threading.Barrier(len(jobs))

    def repeat(job):
        barrier.wait(timeout=60)
        return [run(job) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(repeat, job) for job in jobs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for runs, ref in zip(got, want):
        for out in runs:
            np.testing.assert_array_equal(out, ref)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads minor faults from Linux getrusage")
def test_warm_call_faults_in_no_fresh_memory():
    # a fresh interpreter starts from the allocator state a CLI run sees;
    # temporaries above its mmap threshold were mapped and faulted in anew
    # on every call (~1,500 minor faults at pulse_ensemble's size)
    code = """
import resource
import numpy as np
from tweezersim import kernels
from tweezersim.dynamics import PulseSpec, _pair_tables, _static_vectors
pulse = PulseSpec.bsb_pi(0.36, 2 * np.pi * 2e3)
tables = (*_pair_tables(pulse, 0.36, 12), *_static_vectors(pulse, 12))
assert tables[0].size == 12
rng = np.random.default_rng(1)
trap, freq = rng.normal(size=(2, 4, 2000)) * 100.0
ampf = np.ones((4, 2000))
amps0 = np.zeros((4, 26, 1), dtype=complex)
amps0[:, 0] = 1.0
out = np.empty_like(amps0)
args = (amps0, *tables, trap, freq, ampf, pulse.duration / 2000, out)
kernels.evolve_blocks_batch(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
kernels.evolve_blocks_batch(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = os.path.dirname(os.path.dirname(tweezersim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 50
