"""The mirror-symmetric path of `run`: one stored channel per mirror orbit.

A symmetric input (mirror-symmetric H, mirror-even initial state) makes
`run` store one channel of each orbit {m, mirror m}; every other input
stores all 2^N.  Each check compares the stored path with the full path
of the same input, which monkeypatching the orbit function forces.
"""

import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from spintrack import (
    SolverError,
    StateVector,
    assemble_cn,
    assemble_hamiltonian,
    build_grid,
    initial_state,
    make_linear_solver,
    model,
    run,
)
from spintrack import solver as solver_module
from spintrack.oracle import dense_run, differences, scaled_params
from spintrack.solver import SolveConfig, _Orbits
from spintrack.spinspace import mirrors

# stored rows, one per mirror orbit: (2^N + 2^(N/2)) / 2
ORBITS = {2: 3, 4: 10, 6: 36, 8: 136}
# agreement of the stored and the full path: final state, class series
STATE_BOUND = 1e-13
CLASS_BOUND = 1e-14
CLASSES = ("unchanged", "one_spin", "left_track", "right_track", "multi_track")
STEPS = 60  # of dt = 0.065 / 100 on `_compact`'s instances


def _compact(num_spins, num_points=201, half_length=0.75, rho=100.0, kappa=1, x0=0.0,
             boundary_mode="ghost"):
    """A small symmetric instance whose packet crosses the clusters at +-0.3 in 60 steps.

    Returns (system, psi0, layout).  At 201 points the packet's wavenumber
    is resolved (k0 dx = 1.0); started at the origin, it stays clear of the
    boundary, and started at x0 = -0.3 it reaches x = -L.
    """
    grid = build_grid(half_length, num_points)
    geom = model.Geometry(
        half_length=half_length, cluster_distance=0.3, spacing=0.03, num_spins=num_spins
    )
    layout = model.place_detectors(geom, grid)
    params = scaled_params(rho=rho, beta=1e-4, kappa=kappa, x0=x0)
    h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
    system = assemble_cn(h, 0.065 / 100, params.hbar)
    return system, initial_state(params, grid, h.num_channels), layout


def _full_run(system, psi0, layout, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(solver_module, "_mirror_images", lambda h, values: np.arange(len(values)))
        return run(system, psi0, STEPS, sides=layout.sides)


def _disagreement(stored, full):
    """(max final-state difference, max difference of any class series)."""
    state = np.max(np.abs(stored.final_state.values - full.final_state.values))
    classes = max(np.max(np.abs(getattr(stored, c) - getattr(full, c))) for c in CLASSES)
    return state, classes


@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
@pytest.mark.parametrize("num_spins", [2, 4, 6, 8])
def test_stored_path_matches_full_path(num_spins, boundary_mode, monkeypatch):
    for rho in (0.0, 10.0, 100.0, 150.0):
        for kappa in (1, 2):
            system, psi0, layout = _compact(num_spins, rho=rho, kappa=kappa, boundary_mode=boundary_mode)
            stored = run(system, psi0, STEPS, sides=layout.sides)
            full = _full_run(system, psi0, layout, monkeypatch)
            assert stored.stored_channels == ORBITS[num_spins]
            assert full.stored_channels == 1 << num_spins
            state, classes = _disagreement(stored, full)
            case = f"rho={rho:g} kappa={kappa}"
            assert state <= STATE_BOUND, case
            assert classes <= CLASS_BOUND, case
            np.testing.assert_allclose(stored.norm2, full.norm2, rtol=0, atol=CLASS_BOUND)
            np.testing.assert_allclose(stored.energy, full.energy, rtol=1e-13)
            assert stored.max_step_residual <= SolveConfig().rtol
            # the stored path is left/right symmetric by construction
            np.testing.assert_allclose(stored.left_track, stored.right_track, rtol=0, atol=1e-16)
    # the packet crossed the clusters, so the comparison saw the coupling
    assert stored.unchanged[-1] < 0.6


def _control(monkeypatch, name, broken, step):
    """Run the N=4, rho=100 instance with `_Orbits.<name>` replaced by `broken`.

    The residual check covers every channel, so it must stop the run at
    `step`, once the packet reaches the detectors: refinement cannot absorb
    the operator error, because its first round stalls.
    """
    system, psi0, layout = _compact(4)
    monkeypatch.setattr(_Orbits, name, broken)
    with pytest.raises(SolverError, match=f"^step {step}: refinement stalled: solve residual"):
        run(system, psi0, STEPS, sides=layout.sides)


def test_control_b_without_reversing_x(monkeypatch):
    # B's rows then read an unstored partner at i_j, not at Nx - 1 - i_j
    init = _Orbits.__init__

    def unreflected(self, images, group_of):
        init(self, images, group_of)
        self.reflected = np.zeros_like(self.reflected)

    _control(monkeypatch, "__init__", unreflected, step=4)


def test_control_expand_without_reversing_detectors(monkeypatch):
    def fill(self, values):
        values[self.unstored] = values[self.images]

    _control(monkeypatch, "fill", fill, step=5)


def test_ghost_boundary_drifts_the_norm_once_the_packet_reaches_it():
    # started on the left cluster, the packet reaches x = -L within the 60
    # steps; the ghost rows are not Hermitian there, the symmetrized rows
    # are.  README "Boundary modes" quotes both drifts; a boundary fix must
    # update this test and that sentence together
    drift = {}
    for mode in ("ghost", "symmetrized"):
        system, psi0, layout = _compact(4, rho=0.0, x0=-0.3, boundary_mode=mode)
        record = run(system, psi0, STEPS, sides=layout.sides)
        drift[mode] = np.max(np.abs(record.norm2 - 1.0))  # summary.json's norm2_max_drift
    assert drift["ghost"] > 1e-2
    assert drift["symmetrized"] <= 1e-12


two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a run steps on two threads only where it may run on two CPUs",
)


# `_compact(4)` arguments of the two-thread cases
TWO_THREAD_CASES = {
    "mirror-orbits": dict(x0=0.0),
    "one-channel-orbits": dict(x0=0.05),
    # the packet started on the left cluster: the solve's own error grows
    # with rho, and 25-27 of the 60 steps refine
    "refined": dict(x0=-0.3, rho=1e6, kappa=2),
}


@two_cpus
@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
@pytest.mark.parametrize("case", list(TWO_THREAD_CASES))
def test_two_threads_match_one_bit_for_bit(case, boundary_mode, monkeypatch):
    # the floor lowered, so that these small instances step on two threads;
    # each thread runs the same per-row operations on its half of the rows,
    # in a step's first solve and in each refinement round alike
    monkeypatch.setattr(solver_module, "TWO_THREAD_MIN_VALUES", 0)
    system, psi0, layout = _compact(4, boundary_mode=boundary_mode, **TWO_THREAD_CASES[case])
    one = run(system, psi0, STEPS, sides=layout.sides, threads=1)
    two = run(system, psi0, STEPS, sides=layout.sides)
    assert (one.threads, two.threads) == (1, 2)
    assert two.stored_channels == (ORBITS[4] if case == "mirror-orbits" else 16)
    # the cut at half the rows falls inside a solver group
    orbits = make_linear_solver(system, SolveConfig()).orbits(solver_module._mirror_images(system.h, psi0.values))
    cut = two.stored_channels // 2
    assert any(sl.start < cut < sl.stop for sl in orbits.slices)
    np.testing.assert_array_equal(two.final_state.values, one.final_state.values)
    for series in ("times", "norm2", "energy", "capacitance_iterations", *CLASSES):
        np.testing.assert_array_equal(getattr(two, series), getattr(one, series), err_msg=series)
    assert two.max_step_residual == one.max_step_residual
    assert two.refined_steps == one.refined_steps
    if case == "refined":
        assert one.refined_steps >= 20
    else:
        assert one.unchanged[-1] < 0.6  # the packet crossed the clusters


@two_cpus
def test_a_worker_error_fails_its_step_and_no_thread_outlives_run(monkeypatch):
    monkeypatch.setattr(solver_module, "TWO_THREAD_MIN_VALUES", 0)
    system, psi0, layout = _compact(4)
    before = threading.active_count()
    pinned = []
    real_pin = os.sched_setaffinity

    def pin(pid, cpus):
        pinned.append((pid, set(cpus), threading.current_thread() is threading.main_thread()))
        real_pin(pid, cpus)

    monkeypatch.setattr(solver_module.os, "sched_setaffinity", pin)
    assert run(system, psi0, 5, sides=layout.sides).threads == 2
    assert threading.active_count() == before
    # the worker pinned itself, and only itself, to one CPU of this process
    [(pid, cpus, on_main)] = pinned
    assert pid == 0 and len(cpus) == 1 and cpus <= os.sched_getaffinity(0) and not on_main

    # the worker's segments, the groups that the second half of the rows meets
    orbits = make_linear_solver(system, SolveConfig()).orbits(mirrors(4))
    per_step = len(orbits.segments(ORBITS[4] // 2, ORBITS[4]))
    real_solve = solver_module._tridiagonal_solve
    solves = []

    def solve(lu, rows, trans="N"):
        if threading.current_thread() is not threading.main_thread():
            solves.append(len(rows))
            if len(solves) > per_step:  # the worker's first segment of step 2
                raise SolverError("injected")
        real_solve(lu, rows, trans)

    monkeypatch.setattr(solver_module, "_tridiagonal_solve", solve)
    with pytest.raises(SolverError, match="^step 2: injected$"):
        run(system, psi0, 5, sides=layout.sides)
    assert threading.active_count() == before


def _stored_b(system, orbits):
    return solver_module._StoredB(system.h, -1j * system.dt / (2.0 * system.hbar), orbits)


def _apply_b(b, orbits, x):
    """B x on the stored rows x of `orbits`, as `run` writes it: the bands, then the detector rows."""
    out = np.empty_like(x)
    b.apply_bands(x, out, orbits.segments(0, len(x)))
    b.apply_detector(x, out)
    return out


def _flip_last(b, channels):
    """Rewrite `b`'s detector rows with the flip entry last for every channel, as if B's order were ignored."""
    num_spins = b._det.size
    first = ((channels[:, None] >> np.arange(num_spins)) & 1).astype(bool).ravel()
    for arr in (b._detector.data, b._detector.indices):
        rows = arr.reshape(-1, 4)
        rows[first] = np.roll(rows[first], -1, axis=1)


@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
@pytest.mark.parametrize("rho", [0.0, 100.0])
def test_stored_b_is_b_on_the_stored_rows(rng, rho, boundary_mode):
    # every entry of B x is summed in B's order by the same compiled kernel,
    # so the product of a mirror-even state equals B's, bit for bit: on the
    # mirror orbits, and on the one-channel orbits an input without the
    # symmetry gets
    system, _, _ = _compact(6, num_points=81, half_length=0.6, rho=rho, boundary_mode=boundary_mode)
    h = system.h
    m, nx = h.num_channels, h.num_points
    values = rng.standard_normal((m, nx)) + 1j * rng.standard_normal((m, nx))
    images = mirrors(6)
    values = values + values[images, ::-1]  # mirror-even
    full = (system.b @ values.ravel()).reshape(m, nx)
    full_norm2 = np.vdot(values, values).real
    solver = make_linear_solver(system, SolveConfig())
    for orbit_images, num_stored in ((images, ORBITS[6]), (np.arange(m), m)):
        orbits = solver.orbits(orbit_images)
        assert len(orbits.channels) == num_stored
        assert np.all(np.diff(h.channel_shift[orbits.channels]) >= 0)  # group order
        stored = values[orbits.channels]
        b = _stored_b(system, orbits)
        np.testing.assert_array_equal(_apply_b(b, orbits, stored), full[orbits.channels])
        np.testing.assert_array_equal(orbits.expand(stored), values)
        # the weighted row sums are the full-space sums
        assert orbits.weights.sum() == m
        norm = solver_module._weighted_norm(stored, orbits.weights)
        assert norm**2 == pytest.approx(full_norm2, rel=1e-14)
        if rho:
            # control: the flip entry summed last in every detector row
            _flip_last(b, orbits.channels)
            assert not np.array_equal(_apply_b(b, orbits, stored), full[orbits.channels])


@pytest.mark.parametrize("arg", ["x", "out"])
@pytest.mark.parametrize("wrong", ["shape", "complex64", "fortran", "strided"])
def test_stored_b_bands_refuse_an_array_before_lapack_runs(wrong, arg, monkeypatch):
    # zlagtm reads x and writes out through raw pointers, with B's row
    # count, Nx and a row stride of Nx, so any other array must be refused
    system, psi0, _ = _compact(2)
    orbits = make_linear_solver(system, SolveConfig()).orbits(mirrors(2))
    b = _stored_b(system, orbits)
    segments = orbits.segments(0, ORBITS[2])
    good = psi0.values[orbits.channels]
    arrays = {
        "shape": good[:-1].copy(),
        "complex64": good.astype(np.complex64),
        "fortran": np.asfortranarray(good),
        "strided": np.zeros((ORBITS[2], 2 * good.shape[1]), dtype=good.dtype)[:, ::2],
    }
    calls = []
    monkeypatch.setattr(solver_module, "_zlagtm", lambda *args: calls.append(args))
    b.apply_bands(good, np.empty_like(good), segments)
    assert len(calls) == len(segments)  # the control: the stub stands in for LAPACK
    calls.clear()
    args = {"x": good, "out": np.empty_like(good), arg: arrays[wrong]}
    with pytest.raises(ValueError, match="^B applies to C-ordered complex arrays of shape"):
        b.apply_bands(args["x"], args["out"], segments)
    assert not calls


@pytest.mark.parametrize("kind", ["mirror", "one-channel"])
@pytest.mark.parametrize("num_spins", [6, 8])
def test_stored_b_holds_one_band_set_per_group(num_spins, kind):
    # run's B shares one set of three tridiagonal diagonals among the rows of
    # each solver group, so its numbers grow with (N + 1) Nx plus four per
    # stored row and detector, where B's stored rows hold 3 S Nx
    params, geom, grid, tgrid = model.preset_from_epsilon(0.1, num_spins)
    h = assemble_hamiltonian(params, grid, model.place_detectors(geom, grid))
    system = assemble_cn(h, tgrid.dt, params.hbar)
    images = mirrors(num_spins) if kind == "mirror" else np.arange(h.num_channels)
    orbits = make_linear_solver(system, SolveConfig()).orbits(images)
    s, nx = len(orbits.channels), h.num_points
    assert s == (ORBITS[num_spins] if kind == "mirror" else h.num_channels)
    b = _stored_b(system, orbits)
    assert len(b._bands) == num_spins + 1
    assert all([len(diag) for diag in band] == [nx - 1, nx, nx - 1] for band in b._bands)
    diagonals = [diag for band in b._bands for diag in band]
    numbers = sum(diag.size for diag in diagonals) + b._detector.nnz
    assert numbers == (num_spins + 1) * (3 * nx - 2) + 4 * s * num_spins
    # a complex value per band entry; a value and an index per detector
    # entry, and a pointer per detector row
    held = sum(diag.nbytes for diag in diagonals)
    held += b._detector.data.nbytes + b._detector.indices.nbytes + b._detector.indptr.nbytes
    assert held <= 16 * numbers + 8 * (4 * s * num_spins) + 8 * (s * num_spins + 1)


def _retained_bytes(build):
    """The bytes `build()`'s result holds, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        kept = build()  # counted while it is alive
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _peak_bytes(call):
    """The peak bytes `call()` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="CPython 3.10 keeps a call's arguments alive until it returns"
)
@pytest.mark.parametrize("num_spins", [6, 8])
def test_run_traces_three_stored_vectors_beyond_its_operators(num_spins):
    # called as `simulate` calls it, with psi0 passed by position and not
    # kept, run frees psi0 once it has gathered the stored rows; it then
    # holds three arrays the size of the stored state (the rows and two
    # B x buffers), its solver and its B, which writes B x in place, and,
    # while it solves the detector system, that iteration's (2^N, N)
    # vectors; a tenth of a stored vector covers the record's series and
    # the small temporaries.  The control keeps psi0, as a caller holding a
    # reference does, and must exceed that bound.
    params, geom, grid, tgrid = model.preset_from_epsilon(0.1, num_spins, num_steps=10, t_final=0.065 / 35)
    layout = model.place_detectors(geom, grid)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    solver = make_linear_solver(system, SolveConfig())
    orbits = solver.orbits(mirrors(num_spins))
    row_bytes = h.num_points * 16
    operators = _retained_bytes(lambda: make_linear_solver(system, SolveConfig()))
    operators += _retained_bytes(lambda: _stored_b(system, orbits))
    # the first step's detector solve, on the preset's rows
    x = initial_state(params, grid, h.num_channels).values[orbits.channels]
    rhs = _apply_b(_stored_b(system, orbits), orbits, x)
    detector_solve = _peak_bytes(lambda: (np.copyto(x, rhs), solver.correct(x, orbits)))
    del solver, x, rhs
    stored = ORBITS[num_spins] * row_bytes
    bound = 3 * stored + operators + detector_solve + 0.1 * stored

    def traced_peak(keep):
        tracemalloc.start()
        try:
            if keep:
                psi0 = initial_state(params, grid, h.num_channels)
                record = run(system, psi0, tgrid.num_steps, SolveConfig(), layout.sides)
            else:
                record = run(system, initial_state(params, grid, h.num_channels), tgrid.num_steps,
                             SolveConfig(), layout.sides)
            assert record.stored_channels == ORBITS[num_spins]
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    freed, kept = traced_peak(keep=False), traced_peak(keep=True)
    assert freed <= bound
    assert kept > bound


def test_dense_oracle_on_the_stored_path():
    # a symmetric N=2 instance started at the origin whose packet reaches
    # the detectors; it must meet `validate`'s bounds
    grid = build_grid(0.75, 121)
    geom = model.Geometry(half_length=0.75, cluster_distance=0.3, spacing=0.06, num_spins=2)
    layout = model.place_detectors(geom, grid)
    params = scaled_params(rho=100.0, beta=1e-4)
    tgrid = model.TimeGrid(t_final=0.045, num_steps=70)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    record = run(system, initial_state(params, grid, h.num_channels), tgrid.num_steps, sides=layout.sides)
    assert record.stored_channels == ORBITS[2]
    assert 1.0 - record.unchanged[-1] >= 1e-3
    max_abs, prob_diff = differences(record.final_state, dense_run(params, grid, layout, tgrid))
    assert max_abs <= 1e-10
    assert prob_diff <= 1e-12


def _stores_every_channel(system, psi0):
    images = solver_module._mirror_images(system.h, psi0.values)
    return np.array_equal(images, np.arange(system.h.num_channels))


def test_packet_off_the_origin_takes_the_full_path():
    system, psi0, layout = _compact(4, x0=0.05)
    assert _stores_every_channel(system, psi0)
    assert run(system, psi0, 5, sides=layout.sides).stored_channels == 16


def _run_layout(grid, layout):
    params = scaled_params()
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, 0.065 / 100, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    return system, psi0, run(system, psi0, 5, sides=layout.sides)


def _tie_grid_layout():
    # the detectors at +-0.285 and +-0.315 sit exactly halfway between grid
    # points (dx = 0.01)
    grid = build_grid(0.75, 151)
    geom = model.Geometry(half_length=0.75, cluster_distance=0.3, spacing=0.03, num_spins=4)
    return grid, model.place_detectors(geom, grid)


def test_tie_grid_snaps_symmetrically_and_takes_the_mirror_path():
    grid, layout = _tie_grid_layout()
    assert np.array_equal(layout.grid_indices + layout.grid_indices[::-1], [150] * 4)
    assert np.array_equal(layout.positions, -layout.positions[::-1])
    system, psi0, record = _run_layout(grid, layout)
    assert not _stores_every_channel(system, psi0)
    assert record.stored_channels == ORBITS[4]


def test_tie_grid_preset_n8_keeps_left_right_symmetry():
    # at 1201 points every detector of the N = 8 preset sits exactly halfway
    # between two grid points
    params, geom, grid, tgrid = model.preset_from_epsilon(
        0.1, 8, rho=100.0, num_points=1201, num_steps=100, t_final=0.05
    )
    layout = model.place_detectors(geom, grid)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    record = run(system, initial_state(params, grid, h.num_channels), tgrid.num_steps, sides=layout.sides)
    assert record.stored_channels == ORBITS[8]
    assert record.left_track[-1] > 1e-2
    # equal up to the order of the class sums
    assert np.max(np.abs(record.left_track - record.right_track)) <= CLASS_BOUND


def test_asymmetric_layout_takes_the_full_path():
    # snapping never breaks the mirror, but a hand-built layout can
    grid, snapped = _tie_grid_layout()
    indices = snapped.grid_indices.copy()
    indices[0] -= 1
    layout = model.DetectorLayout(
        positions=grid.xs[indices],
        grid_indices=indices,
        sides=snapped.sides,
        nominal_positions=snapped.nominal_positions,
    )
    system, psi0, record = _run_layout(grid, layout)
    assert _stores_every_channel(system, psi0)
    assert record.stored_channels == 16


def test_nan_in_an_unstored_row_takes_the_full_path_and_raises():
    system, psi0, layout = _compact(4)
    values = psi0.values.copy()
    # channel 8 (bit 3) is the mirror of the stored channel 1 (bit 0); a NaN
    # at mirrored points of both is still no mirror-even state
    values[8, 40] = np.nan
    values[1, 200 - 40] = np.nan
    psi0 = StateVector(values, psi0.dx)
    assert _stores_every_channel(system, psi0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SolverError, match="step 1"):
            run(system, psi0, 5, sides=layout.sides)
