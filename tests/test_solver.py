"""Stepping, factorization reuse, conservation, and run recording."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import lapack

from spintrack import (
    SolveConfig,
    SolverError,
    StateVector,
    assemble_cn,
    assemble_hamiltonian,
    build_grid,
    initial_state,
    make_linear_solver,
    place_detectors,
    preset_from_epsilon,
    run,
)
from spintrack import cli, model, observables
from spintrack import solver as solver_module
from spintrack.assembly import DiscreteHamiltonian
from spintrack.oracle import dense_hamiltonian, dense_run, differences, scaled_params, small_instance
from spintrack.solver import CAPACITANCE_RTOL, CapacitanceSolver


def _system(num_spins=2, num_points=100, rho=100.0, beta=1e-4, kappa=1, dt=0.065 / 350):
    params = scaled_params(rho=rho, beta=beta, kappa=kappa)
    grid, layout = small_instance(num_spins, num_points)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, dt, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    return system, psi0, layout


def test_solve_config_validation():
    with pytest.raises(TypeError):  # one detector solve: there is no method to choose
        SolveConfig(method="direct")
    with pytest.raises(model.ConfigurationError):
        SolveConfig(rtol=1e-3)
    with pytest.raises(model.ConfigurationError):
        SolveConfig(rtol=0.0)
    with pytest.raises(model.ConfigurationError):
        SolveConfig(max_iter=0)


def _with_entries(state, value, points):
    values = state.values.copy()
    values[0, points] = value
    return StateVector(values, state.dx)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_run_rejects_nonfinite_state(value):
    # channel 0 is its own mirror image: at mirrored points an inf keeps
    # the state mirror-even (a NaN never is), so the run stores one
    # channel per mirror orbit
    system, psi0, layout = _system()
    last = system.h.num_points - 1
    for points in ([50], [40, last - 40]):
        with pytest.raises(SolverError, match="step 1"):
            run(system, _with_entries(psi0, value, points), 5)


def _iterations(solver, rhs):
    """The detector iterations of `solver.solve(rhs)`: `correct` on a group-ordered copy of rhs."""
    every = solver.orbits(np.arange(len(solver._group_of)))  # one-channel orbits
    return solver.correct(rhs.reshape(len(every.channels), -1)[every.channels], every)


def test_nonfinite_rhs_leaves_the_solver_usable():
    # the refused solve keeps no state, so the next one runs as a fresh
    # solver's does
    system, psi0, _ = _system(num_points=120)
    rhs = system.b @ psi0.values.ravel()
    bad = rhs.copy()
    bad.reshape(psi0.values.shape)[0, system.h.detector_indices[0]] = np.nan
    solver = make_linear_solver(system, SolveConfig())
    with pytest.raises(SolverError, match="not finite"):
        solver.solve(bad)
    x = solver.solve(rhs)
    fresh = make_linear_solver(system, SolveConfig())
    np.testing.assert_array_equal(x, fresh.solve(rhs))
    assert _iterations(solver, rhs) == _iterations(fresh, rhs) > 0


def _solve_chain(system, psi0, num_steps, linear_solver=None):
    """The states of `num_steps` Crank-Nicolson steps, each one solve of A x = B psi.

    Every step solves on `linear_solver`, or on a solver built anew for it
    when None.
    """
    states = [psi0]
    for _ in range(num_steps):
        solver = linear_solver or make_linear_solver(system, SolveConfig())
        x = solver.solve(system.b @ states[-1].values.ravel())
        states.append(StateVector(x.reshape(psi0.values.shape), psi0.dx))
    return states


def _full_path(monkeypatch):
    """Make run() store every channel, as it does for an input without mirror symmetry."""
    monkeypatch.setattr(
        "spintrack.solver._mirror_images", lambda h, values: np.arange(len(values))
    )


def _stepped_run(system, psi0, num_steps):
    """run() plus the per-step states from solves on one shared solver.

    The chain carries B x on to the next step's right-hand side and
    refines a step whose residual r = rhs - A x = rhs + B x - 2x exceeds
    the rtol: x += c, B x += B c and r += B c - 2c for c = A^-1 r.  Also
    checks run()'s per-step capacitance iteration counts, refinement
    included, against the shared solver's.
    """
    record = run(system, psi0, num_steps)
    shared = make_linear_solver(system, SolveConfig())
    states = [psi0]
    iterations = []
    bx = system.b @ psi0.values.ravel()
    for _ in range(num_steps):
        rhs = bx
        x = shared.solve(rhs)
        bx = system.b @ x
        r = rhs + bx - 2.0 * x
        iterations.append(_iterations(shared, rhs))
        for _ in range(solver_module.REFINEMENT_ROUNDS):
            if np.linalg.norm(r) <= SolveConfig().rtol * np.linalg.norm(rhs):
                break
            c = shared.solve(r)
            iterations[-1] += _iterations(shared, r)
            bc = system.b @ c
            x, bx, r = x + c, bx + bc, r + bc - 2.0 * c
        states.append(StateVector(x.reshape(psi0.values.shape), psi0.dx))
    np.testing.assert_array_equal(record.capacitance_iterations, iterations)
    return record, states


def test_run_matches_full_path(monkeypatch):
    # run() takes the residual and the energy from B x; check both, and the
    # recorded probabilities, against the explicit A x, H x and observables.
    # The instance is mirror-symmetric; on the full path, run() must equal
    # the chain of full-space solves bit for bit (test_mirror.py checks the
    # path that stores one channel per mirror orbit against this one)
    _full_path(monkeypatch)
    system, psi0, layout = _system(num_points=120)
    cfg = SolveConfig()
    record, states = _stepped_run(system, psi0, 30)

    for prev, cur in zip(states[:-1], states[1:]):
        rhs = system.b @ prev.values.ravel()
        residual = np.linalg.norm(system.a @ cur.values.ravel() - rhs) / np.linalg.norm(rhs)
        assert residual <= cfg.rtol
    assert 0.0 < record.max_step_residual <= cfg.rtol

    for k, state in enumerate(states):
        full = observables.energy(state, system.h)
        assert record.energy[k] == pytest.approx(full, rel=1e-12, abs=0.0)
        cp = observables.channel_probs(state)
        assert record.norm2[k] == pytest.approx(cp.total, abs=1e-14)
        cls = observables.class_probs(cp, layout.sides)
        for name in ("unchanged", "one_spin", "left_track", "right_track", "multi_track"):
            assert getattr(record, name)[k] == pytest.approx(getattr(cls, name), abs=1e-14)

    np.testing.assert_array_equal(record.final_state.values, states[-1].values)


def test_run_energy_matches_full_path_backward(monkeypatch):
    # with dt < 0 the factor dt / 2 hbar in the energy changes sign
    _full_path(monkeypatch)
    system, psi0, layout = _system(num_points=120, dt=-0.065 / 350)
    record, states = _stepped_run(system, psi0, 30)
    np.testing.assert_array_equal(record.final_state.values, states[-1].values)
    for k, state in enumerate(states):
        full = observables.energy(state, system.h)
        assert record.energy[k] == pytest.approx(full, rel=1e-12, abs=0.0)


def test_factorization_reuse_consistency():
    system, psi0, _ = _system()
    cfg = SolveConfig()
    state_shared = _solve_chain(system, psi0, 50, make_linear_solver(system, cfg))[-1]
    state_fresh = _solve_chain(system, psi0, 50)[-1]  # factors anew each step
    diff = np.max(np.abs(state_shared.values - state_fresh.values))
    assert diff <= 1e-13


def _free_channel_system(boundary_mode="symmetrized", dt=0.065 / 350):
    """One channel, no detectors: plain free-particle Crank-Nicolson."""
    grid = build_grid(1.5, 200)
    hop = 0.1**2 / (2 * 1.0 * grid.dx**2)
    upper = np.full(199, -hop)
    lower = np.full(199, -hop)
    if boundary_mode == "ghost":
        upper[0] = lower[-1] = -2 * hop
    h = DiscreteHamiltonian(
        kin_diag=np.full(200, 2 * hop),
        upper=upper,
        lower=lower,
        channel_shift=np.zeros(1),
        flip_strength=0.0,
        detector_indices=np.empty(0, dtype=np.int64),
    )
    return assemble_cn(h, dt, 0.1)


def _operator_cases(boundary_mode, dt):
    """(system, dense H) pairs: one free channel, then N = 1 and 3 over rho and kappa."""
    # the oracle reads only these two fields of a layout
    no_detectors = SimpleNamespace(num_spins=0, grid_indices=np.empty(0, dtype=np.int64))
    grid = build_grid(1.5, 200)
    dense = dense_hamiltonian(scaled_params(), grid, no_detectors, boundary_mode=boundary_mode)
    yield _free_channel_system(boundary_mode, dt), dense
    for num_spins in (1, 3):
        grid, layout = small_instance(num_spins, 120)
        for rho in (0.0, 73.0):
            for kappa in (1, 2):
                params = scaled_params(rho=rho, beta=3e-4, kappa=kappa)
                h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
                system = assemble_cn(h, dt, params.hbar)
                yield system, dense_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)


@pytest.mark.parametrize("dt", [0.065 / 350, -0.065 / 350], ids=["forward", "backward"])
@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
def test_cn_operators_match_dense_oracle(boundary_mode, dt):
    # B and A are written straight into CSR; check them against I -+ i f H
    # from the entry-by-entry dense oracle, compared as B - I so that the
    # off-diagonal entries are not lost next to the unit diagonal
    for system, dense in _operator_cases(boundary_mode, dt):
        scaled = 1j * dt / (2 * system.hbar) * dense
        tol = 1e-12 * np.max(np.abs(scaled))
        eye = np.eye(system.dim)
        assert np.max(np.abs((system.b.toarray() - eye) + scaled)) <= tol
        assert np.max(np.abs((system.a.toarray() - eye) - scaled)) <= tol
        b = system.b
        assert b.has_canonical_format and system.a.has_canonical_format
        assert b.indices.dtype == np.int32 and b.indptr.dtype == np.int32
        m, nx = system.h.num_channels, system.h.num_points
        coupled = len(system.h.detector_indices) if system.h.flip_strength else 0
        assert b.nnz == (3 * nx - 2) * m + coupled * m


def test_single_free_channel_norm_preserved():
    system = _free_channel_system()
    grid = build_grid(1.5, 200)
    psi = initial_state(scaled_params(), grid, 1)
    before = psi.norm2()
    after = run(system, psi, 1).final_state.norm2()
    assert abs(after - before) <= 1e-12


def test_detector_free_run_records_its_channel_as_unchanged():
    # a run without detectors has one channel, with no flip to count
    system = _free_channel_system()
    record = run(system, initial_state(scaled_params(), build_grid(1.5, 200), 1), 5)
    np.testing.assert_array_equal(record.unchanged, record.norm2)
    for name in observables.CLASS_FIELDS[1:]:
        np.testing.assert_array_equal(getattr(record, name), np.zeros(6))


def test_iterative_matches_direct():
    # the minimal-residual iteration against a dense solve of the same
    # detector system, (I + G K) v = w, formed column by column
    system, psi0, _ = _system(num_spins=3, num_points=120)
    solver = make_linear_solver(system, SolveConfig())
    w = system.b @ psi0.values.ravel()
    w = w.reshape(psi0.values.shape)[:, system.h.detector_indices]
    eye = np.eye(w.size).reshape(-1, *w.shape)
    dense = np.stack([(e + solver._gk(e)).ravel() for e in eye], axis=1)
    v, iterations = solver._minimal_residual(w, np.linalg.norm(w))
    reference = np.linalg.solve(dense, w.ravel()).reshape(w.shape)
    assert np.linalg.norm(v - reference) <= 1e-14 * np.linalg.norm(reference)
    assert iterations == 2


def test_zero_rhs_solves_to_zero_without_iterating(recwarn):
    # w = 0 returns before any direction is normalized, so nothing divides
    # by a zero norm
    system, psi0, _ = _system(num_points=120)
    solver = make_linear_solver(system, SolveConfig())
    zero = np.zeros(system.dim, dtype=complex)
    x = solver.solve(zero)
    assert not x.any()
    assert _iterations(solver, zero) == 0
    assert not recwarn.list


def test_run_from_zero_state_stays_zero(recwarn):
    # every right-hand side is zero, so the residual check falls back to the
    # absolute residual, which is exactly zero, and no step iterates
    system, psi0, layout = _system(num_points=120)
    record = run(system, StateVector.zeros(*psi0.values.shape, psi0.dx), 10)
    assert not record.final_state.values.any()
    assert record.max_step_residual == 0.0
    assert not record.capacitance_iterations.any()
    assert not recwarn.list


def _large_alpha_system(alpha):
    # a spin energy this large next to the flip coupling makes the groups'
    # detector blocks differ so much that the iteration needs tens of steps
    params = scaled_params(rho=1e6, alpha=alpha)
    grid, layout = small_instance(4, 100)
    h = assemble_hamiltonian(params, grid, layout)
    return assemble_cn(h, 0.065 / 350, params.hbar)


def test_iterative_exhaustion_raises_with_residual(rng, monkeypatch):
    # the large-alpha detector system needs more iterations than a starved
    # budget of one restart cycle of two gives it
    monkeypatch.setattr("spintrack.solver.CAPACITANCE_RESTART", 2)
    system = _large_alpha_system(1e3)
    rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    solver = make_linear_solver(system, SolveConfig(max_iter=1))
    # each iteration preconditions once; the raise returns no count
    preconditioned = []
    precondition = solver._precondition
    monkeypatch.setattr(solver, "_precondition", lambda res: preconditioned.append(res) or precondition(res))
    with pytest.raises(SolverError, match="capacitance") as err:
        solver.solve(rhs)
    assert err.value.residual > CAPACITANCE_RTOL
    assert len(preconditioned) == 2


@pytest.mark.parametrize("alpha", [1e3, 1e6])
def test_iterative_solves_large_alpha(alpha, rng):
    # tens of iterations, which match a sparse LU of the assembled A, and
    # a repeated solve repeats them exactly
    system = _large_alpha_system(alpha)
    rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    solver = make_linear_solver(system, SolveConfig())
    x = solver.solve(rhs)
    reference = sparse_linalg.spsolve(system.a, rhs)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
    first = _iterations(solver, rhs)
    np.testing.assert_array_equal(solver.solve(rhs), x)
    assert _iterations(solver, rhs) == first


def test_iterative_restarts_converge(rng, monkeypatch):
    # the preset never reaches a restart; with one every two iterations the
    # large-alpha system needs many cycles, more iterations than without
    # restarts, and still converges
    system = _large_alpha_system(1e3)
    rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    unrestarted = _iterations(make_linear_solver(system, SolveConfig()), rhs)
    monkeypatch.setattr("spintrack.solver.CAPACITANCE_RESTART", 2)
    solver = make_linear_solver(system, SolveConfig())
    x = solver.solve(rhs)
    reference = sparse_linalg.spsolve(system.a, rhs)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
    assert _iterations(solver, rhs) > unrestarted


def test_solve_paths_do_not_build_a(rng):
    # A is built only when read; neither run() nor a many-iteration solve reads it
    system, psi0, layout = _system(num_points=120)
    run(system, psi0, 3)
    assert "a" not in vars(system)
    system = _large_alpha_system(1e3)
    make_linear_solver(system, SolveConfig()).solve(rng.standard_normal(system.dim) + 0j)
    assert "a" not in vars(system)


def test_run_rejects_shape_mismatch():
    system, psi0, _ = _system()
    bad = StateVector(np.zeros((2, 100), dtype=complex), psi0.dx)
    with pytest.raises(ValueError):
        run(system, bad, 1)


def test_run_rejects_zero_steps():
    system, psi0, _ = _system()
    with pytest.raises(ValueError):
        run(system, psi0, 0)


def test_run_decoupled_stays_in_channel_zero():
    system, psi0, layout = _system(rho=0.0, num_points=120)
    record = run(system, psi0, 30)
    final = record.final_state
    assert np.all(final.values[1:] == 0.0)
    assert record.unchanged[-1] == pytest.approx(1.0, abs=1e-12)
    assert record.one_spin[-1] == 0.0
    assert not record.capacitance_iterations.any()  # no detector system to solve


def test_run_series_shapes_and_observers():
    system, psi0, layout = _system(num_points=120)
    record = run(system, psi0, 20)
    for series in (record.times, record.norm2, record.energy, record.unchanged):
        assert len(series) == 21
    assert record.times[0] == 0.0
    assert record.times[-1] == pytest.approx(20 * system.dt)


def test_run_norm_and_energy_conserved():
    system, psi0, layout = _system(num_points=150)
    record = run(system, psi0, 60)
    assert np.max(np.abs(record.norm2 - 1.0)) <= 1e-10
    assert np.max(np.abs(record.energy - record.energy[0])) <= 1e-8 * abs(record.energy[0])
    # StateVector.norm2 is a BLAS dot; compare it with the abs^2 sum
    final = record.final_state
    reference = final.dx * np.sum(np.abs(final.values) ** 2)
    assert final.norm2() == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_time_reversal_through_the_flip_coupling():
    # The N = 4 preset crosses its detectors in K steps (UC ends near 0.66),
    # so the echo of K steps with -dt has to undo every flip entry of A and
    # B: the state comes back and the flipped channels empty to rounding.
    # The control runs the backward leg with rho off by 1e-6 relative.
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 4)
    layout = place_detectors(geom, grid)
    h = assemble_hamiltonian(params, grid, layout)
    psi0 = initial_state(params, grid, h.num_channels)
    forward = run(assemble_cn(h, tgrid.dt, params.hbar), psi0, tgrid.num_steps)
    assert forward.unchanged[-1] < 0.7
    echoes = []
    for rho in (params.rho, params.rho * (1 + 1e-6)):
        h = assemble_hamiltonian(dataclasses.replace(params, rho=rho), grid, layout)
        back = run(assemble_cn(h, -tgrid.dt, params.hbar), forward.final_state, tgrid.num_steps).final_state
        flipped = observables.channel_probs(back).probs[1:].sum()
        echoes.append((np.max(np.abs(back.values - psi0.values)), flipped))
    (state_diff, flipped), control = echoes
    assert state_diff <= 1e-12 and flipped <= 1e-24
    assert control[0] > 1e-12 and control[1] > 1e-24


def test_serial_runs_bitwise_identical():
    system, psi0, layout = _system(num_points=120)
    rec1 = run(system, psi0, 25)
    rec2 = run(system, psi0, 25)
    np.testing.assert_array_equal(rec1.final_state.values, rec2.final_state.values)
    np.testing.assert_array_equal(rec1.norm2, rec2.norm2)
    np.testing.assert_array_equal(rec1.energy, rec2.energy)
    np.testing.assert_array_equal(rec1.unchanged, rec2.unchanged)


def test_coarse_step_warns():
    # the accuracy guard leaves a note on the record, not a Python warning
    system, psi0, _ = _system(dt=0.065)
    (note,) = run(system, psi0, 1).notes
    assert note.startswith("dt=0.065 exceeds 2*hbar/|<H>|~")
    assert note.endswith("phases will be inaccurate")
    fine, psi0, _ = _system()
    assert run(fine, psi0, 1).notes == []


def test_coarse_backward_step_warns():
    # the accuracy guard compares |dt|; a time-reversed run is as coarse
    system, psi0, _ = _system(dt=-0.05)
    (note,) = run(system, psi0, 1).notes
    assert note.startswith("dt=-0.05 exceeds")
    assert note.endswith("phases will be inaccurate")


def test_direct_solver_reuses_factorization():
    system, psi0, _ = _system(num_points=120)
    solver = make_linear_solver(system, SolveConfig())
    assert isinstance(solver, CapacitanceSolver)
    rhs = system.b @ psi0.values.ravel()
    before = rhs.copy()
    x1 = solver.solve(rhs)
    kept = x1.copy()
    x2 = solver.solve(rhs)
    np.testing.assert_array_equal(x1, kept)  # the second solve leaves the first result alone
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(rhs, before)
    # a caller may keep one result while it computes the next
    assert not np.shares_memory(x1, x2)
    buffers = [v for v in vars(solver).values() if isinstance(v, np.ndarray)]
    assert buffers
    assert not any(np.shares_memory(x, buf) for x in (x1, x2) for buf in buffers)


def _arrays(value):
    """The arrays `value` holds, through its attributes, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _arrays(item)


def test_solver_holds_no_state_sized_array():
    # `solve` gathers into a new array on each call, so a solver, run's
    # included, keeps only factors and detector blocks
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 6)
    h = assemble_hamiltonian(params, grid, place_detectors(geom, grid))
    solver = make_linear_solver(assemble_cn(h, tgrid.dt, params.hbar), SolveConfig())
    sizes = [a.nbytes for a in _arrays(solver)]
    assert sizes
    assert max(sizes) < h.dim * 16  # one state vector of complex128


def test_solve_leaves_the_solver_unchanged(rng):
    # `correct` returns its detector iterations, so a solve writes nothing
    # to the solver: its attributes keep their objects and their contents
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 4)
    h = assemble_hamiltonian(params, grid, place_detectors(geom, grid))
    solver = make_linear_solver(assemble_cn(h, tgrid.dt, params.hbar), SolveConfig())
    before = dict(vars(solver))
    contents = {key: [a.copy() for a in _arrays(value)] for key, value in before.items()}
    rhs = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
    assert _iterations(solver, rhs) > 0
    for _ in range(2):
        solver.solve(rhs)
    assert vars(solver).keys() == before.keys()
    for key, value in before.items():
        assert vars(solver)[key] is value, key
        for kept, now in zip(contents[key], _arrays(value), strict=True):
            np.testing.assert_array_equal(now, kept, err_msg=key)


@pytest.mark.parametrize("dt", [0.065 / 350, -0.065 / 350], ids=["forward", "backward"])
@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
@pytest.mark.parametrize("num_spins", [2, 3, 4])
def test_direct_matches_full_space_solve(num_spins, boundary_mode, dt, rng):
    # the structured solve against a sparse LU of the assembled A
    grid, layout = small_instance(num_spins, 100)
    for rho in (0.0, 10.0, 100.0, 1e6):
        for beta in (0.0, 1e-4):
            for kappa in (1, 2):
                params = scaled_params(rho=rho, beta=beta, kappa=kappa)
                h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
                system = assemble_cn(h, dt, params.hbar)
                rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
                x = make_linear_solver(system, SolveConfig()).solve(rhs)
                reference = sparse_linalg.spsolve(system.a, rhs)
                err = np.linalg.norm(x - reference) / np.linalg.norm(reference)
                assert err <= 1e-12, (rho, beta, kappa)


@pytest.mark.parametrize("dt", [0.065 / 350, -0.065 / 350], ids=["forward", "backward"])
@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
def test_factored_blocks_are_zgttrf_of_the_assembled_a(boundary_mode, dt):
    # each channel's LU factor is zgttrf of that channel's diagonal block
    # of the assembled A, compared as bytes, so -0.0 and +0.0 differ
    grid, layout = small_instance(4, 100)
    params = scaled_params(rho=100.0)
    h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
    system = assemble_cn(h, dt, params.hbar)
    solver = make_linear_solver(system, SolveConfig())
    nx = h.num_points
    for mask in range(h.num_channels):
        block = system.a[mask * nx:(mask + 1) * nx, mask * nx:(mask + 1) * nx]
        *expected, info = lapack.zgttrf(*(block.diagonal(k) for k in (-1, 0, 1)))
        assert info == 0
        factor = solver._factors[solver._group_of[mask]]
        assert [a.tobytes() for a in factor] == [a.tobytes() for a in expected], mask


def test_direct_preset_run_matches_sparse_lu():
    # the N=6 preset, 350 steps, against the same steps through a SuperLU factor
    setup = cli.resolve_run_config({"preset": {"epsilon": 0.1, "num_spins": 6}})
    h = assemble_hamiltonian(setup.params, setup.grid, setup.layout)
    system = assemble_cn(h, setup.tgrid.dt, setup.params.hbar)
    psi0 = initial_state(setup.params, setup.grid, h.num_channels)
    record = run(system, psi0, setup.tgrid.num_steps)
    lu = sparse_linalg.splu(system.a)
    x = psi0.values.ravel()
    for _ in range(setup.tgrid.num_steps):
        x = lu.solve(system.b @ x)
    final = record.final_state.values.ravel()
    assert np.linalg.norm(final - x) <= 1e-12 * np.linalg.norm(x)
    assert 0.0 < record.max_step_residual <= 1e-14
    assert len(record.capacitance_iterations) == setup.tgrid.num_steps
    assert 1 <= record.capacitance_iterations.max() <= 3


def test_buffered_run_matches_step_chain():
    # run() advances one state buffer in place; the chain of solves
    # allocates afresh
    system, psi0, layout = _system(num_spins=3, num_points=120)
    record = run(system, psi0, 25)
    state = _solve_chain(system, psi0, 25, make_linear_solver(system, SolveConfig()))[-1]
    np.testing.assert_array_equal(record.final_state.values, state.values)


def test_run_final_state_owns_its_memory(monkeypatch):
    built = []

    def capture(system, config):
        built.append(make_linear_solver(system, config))
        return built[-1]

    monkeypatch.setattr("spintrack.solver.make_linear_solver", capture)
    system, psi0, layout = _system(num_spins=3, num_points=120)
    final = run(system, psi0, 5).final_state.values
    buffers = [v for v in vars(built[0]).values() if isinstance(v, np.ndarray)]
    assert buffers
    assert not any(np.shares_memory(final, buf) for buf in buffers)
    assert not np.shares_memory(final, psi0.values)


def test_direct_detector_free_solve(rng):
    # one channel without detectors takes only the tridiagonal solve, which
    # must not hand LAPACK an empty detector block
    system = _free_channel_system()
    rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    x = make_linear_solver(system, SolveConfig()).solve(rhs)
    reference = sparse_linalg.spsolve(system.a, rhs)
    assert np.linalg.norm(x - reference) <= 1e-13 * np.linalg.norm(reference)


def test_strong_coupling_steps_refine_below_rtol(monkeypatch):
    # The N=8 preset at rho = 1e6 with the packet started on the left
    # cluster: the solve's own error grows with rho, and step 30's residual
    # is 1.016e-12 against the default rtol of 1e-12.  Refinement brings
    # every step within rtol; the control, without it, fails at step 30.
    steps = 32
    params, geom, grid, tgrid = preset_from_epsilon(
        0.1, 8, rho=1e6, num_steps=steps, t_final=0.065 * steps / 350
    )
    params = dataclasses.replace(params, x0=-geom.cluster_distance)
    layout = place_detectors(geom, grid)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    record = run(system, psi0, steps)
    assert record.refined_steps >= 1
    assert record.max_step_residual <= SolveConfig().rtol
    monkeypatch.setattr(solver_module, "REFINEMENT_ROUNDS", 0)
    with pytest.raises(SolverError, match="step 30: solve residual"):
        run(system, psi0, steps)


def test_refined_run_matches_the_dense_oracle():
    # N=2, rho = 1e6, packet started on the left detector, coarse dt: many
    # steps refine, and the run must still meet `validate`'s bounds
    grid, layout = small_instance(2, 400)
    params = scaled_params(rho=1e6, kappa=2, x0=float(layout.positions[0]))
    tgrid = model.TimeGrid(t_final=0.065 * 30 / 100, num_steps=30)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    # the packet is not mirror-even, so the run stores every channel; it
    # must equal the chain of full-space solves, refinement included, bit for bit
    record, states = _stepped_run(system, initial_state(params, grid, h.num_channels), tgrid.num_steps)
    np.testing.assert_array_equal(record.final_state.values, states[-1].values)
    assert record.refined_steps >= 5
    assert record.max_step_residual <= SolveConfig().rtol
    max_abs, prob_diff = differences(record.final_state, dense_run(params, grid, layout, tgrid))
    assert max_abs <= 1e-10
    assert prob_diff <= 1e-12

