"""Stepping, factorization reuse, conservation, and run recording."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg

from spintrack import (
    SolveConfig,
    SolverError,
    StateVector,
    assemble_cn,
    assemble_hamiltonian,
    build_grid,
    initial_state,
    make_linear_solver,
    run,
    step,
)
from spintrack import cli, observables
from spintrack.assembly import DiscreteHamiltonian
from spintrack.oracle import dense_hamiltonian, scaled_params, small_instance
from spintrack.solver import CapacitanceSolver


def _system(num_spins=2, num_points=100, rho=100.0, beta=1e-4, kappa=1, dt=0.065 / 350):
    params = scaled_params(rho=rho, beta=beta, kappa=kappa)
    grid, layout = small_instance(num_spins, num_points)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, dt, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    return system, psi0, layout


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(method="magic")
    with pytest.raises(ValueError):
        SolveConfig(rtol=1e-3)
    with pytest.raises(ValueError):
        SolveConfig(rtol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)


def _with_entry(state, value):
    values = state.values.copy()
    values[0, 50] = value
    return StateVector(values, state.dx)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_step_rejects_nonfinite_state(value):
    system, psi0, _ = _system()
    with pytest.raises(SolverError):
        step(system, _with_entry(psi0, value))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_run_rejects_nonfinite_state(value):
    system, psi0, layout = _system()
    with pytest.raises(SolverError, match="step 1"):
        run(system, _with_entry(psi0, value), 5, sides=layout.sides)


def _stepped_run(system, psi0, layout, num_steps):
    """run() plus the per-step states from step() calls on one shared solver."""
    record = run(system, psi0, num_steps, sides=layout.sides)
    shared = make_linear_solver(system, SolveConfig())
    states = [psi0]
    for _ in range(num_steps):
        states.append(step(system, states[-1], linear_solver=shared))
    return record, states


def test_run_matches_full_path():
    # run() takes the residual and the energy from B x; check both, and the
    # recorded probabilities, against the explicit A x, H x and observables
    system, psi0, layout = _system(num_points=120)
    cfg = SolveConfig()
    record, states = _stepped_run(system, psi0, layout, 30)

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


def test_run_energy_matches_full_path_backward():
    # with dt < 0 the factor dt / 2 hbar in the energy changes sign
    system, psi0, layout = _system(num_points=120, dt=-0.065 / 350)
    record, states = _stepped_run(system, psi0, layout, 30)
    np.testing.assert_array_equal(record.final_state.values, states[-1].values)
    for k, state in enumerate(states):
        full = observables.energy(state, system.h)
        assert record.energy[k] == pytest.approx(full, rel=1e-12, abs=0.0)


def test_factorization_reuse_consistency():
    system, psi0, _ = _system()
    cfg = SolveConfig()
    shared = make_linear_solver(system, cfg)
    state_shared = psi0.copy()
    state_fresh = psi0.copy()
    for _ in range(50):
        state_shared = step(system, state_shared, cfg, shared)
        state_fresh = step(system, state_fresh, cfg)  # factors anew each call
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
        assert b.nnz == system.h.nnz


def test_single_free_channel_norm_preserved():
    system = _free_channel_system()
    grid = build_grid(1.5, 200)
    psi = initial_state(scaled_params(), grid, 1)
    before = psi.norm2()
    after = step(system, psi).norm2()
    assert abs(after - before) <= 1e-12


def test_iterative_matches_direct():
    system, psi0, _ = _system(num_points=120)
    direct = step(system, psi0, SolveConfig(method="direct"))
    iterative = step(system, psi0, SolveConfig(method="iterative", max_iter=300))
    assert np.max(np.abs(direct.values - iterative.values)) <= 1e-10


def test_iterative_exhaustion_raises_with_residual(rng, monkeypatch):
    # an extreme coupling, a state that actually touches the detector rows,
    # and a starved Krylov budget: the solve cannot reach the tolerance
    monkeypatch.setattr("spintrack.solver.GMRES_RESTART", 2)
    system, psi0, _ = _system(num_spins=4, num_points=80, rho=1e6)
    noisy = StateVector(
        rng.standard_normal(psi0.values.shape) + 1j * rng.standard_normal(psi0.values.shape),
        psi0.dx,
    )
    cfg = SolveConfig(method="iterative", max_iter=1, rtol=1e-12)
    with pytest.raises(SolverError) as err:
        step(system, noisy, cfg)
    assert err.value.residual is None or err.value.residual > 0


def test_solve_paths_do_not_build_a():
    # A is built only when read; neither solve method reads it
    system, psi0, layout = _system(num_points=120)
    run(system, psi0, 3, sides=layout.sides)
    assert "a" not in vars(system)
    system, psi0, _ = _system(num_points=120)
    step(system, psi0, SolveConfig(method="iterative"))
    assert "a" not in vars(system)


def test_step_rejects_shape_mismatch():
    system, psi0, _ = _system()
    bad = StateVector(np.zeros((2, 100), dtype=complex), psi0.dx)
    with pytest.raises(ValueError):
        step(system, bad)


def test_run_rejects_zero_steps():
    system, psi0, _ = _system()
    with pytest.raises(ValueError):
        run(system, psi0, 0)


def test_run_decoupled_stays_in_channel_zero():
    system, psi0, layout = _system(rho=0.0, num_points=120)
    record = run(system, psi0, 30, sides=layout.sides)
    final = record.final_state
    assert np.all(final.values[1:] == 0.0)
    assert record.unchanged[-1] == pytest.approx(1.0, abs=1e-12)
    assert record.one_spin[-1] == 0.0


def test_run_series_shapes_and_observers():
    system, psi0, layout = _system(num_points=120)
    record = run(system, psi0, 20, sides=layout.sides)
    for series in (record.times, record.norm2, record.energy, record.unchanged):
        assert len(series) == 21
    assert record.times[0] == 0.0
    assert record.times[-1] == pytest.approx(20 * system.dt)


def test_run_norm_and_energy_conserved():
    system, psi0, layout = _system(num_points=150)
    record = run(system, psi0, 60, sides=layout.sides)
    assert np.max(np.abs(record.norm2 - 1.0)) <= 1e-10
    assert np.max(np.abs(record.energy - record.energy[0])) <= 1e-8 * abs(record.energy[0])
    # StateVector.norm2 is a BLAS dot; compare it with the abs^2 sum
    final = record.final_state
    reference = final.dx * np.sum(np.abs(final.values) ** 2)
    assert final.norm2() == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_time_reversal():
    params = scaled_params()
    grid, layout = small_instance(2, 100)
    h = assemble_hamiltonian(params, grid, layout)
    forward = assemble_cn(h, 0.065 / 350, params.hbar)
    backward = assemble_cn(h, -0.065 / 350, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    mid = run(forward, psi0, 50).final_state
    back = run(backward, mid, 50).final_state
    assert np.max(np.abs(back.values - psi0.values)) <= 1e-8


def test_serial_runs_bitwise_identical():
    system, psi0, layout = _system(num_points=120)
    rec1 = run(system, psi0, 25, sides=layout.sides)
    rec2 = run(system, psi0, 25, sides=layout.sides)
    np.testing.assert_array_equal(rec1.final_state.values, rec2.final_state.values)
    np.testing.assert_array_equal(rec1.norm2, rec2.norm2)
    np.testing.assert_array_equal(rec1.energy, rec2.energy)
    np.testing.assert_array_equal(rec1.unchanged, rec2.unchanged)


def test_coarse_step_warns():
    system, psi0, _ = _system(dt=0.065)
    with pytest.warns(UserWarning, match="phases will be inaccurate"):
        run(system, psi0, 1)


def test_coarse_backward_step_warns():
    # the accuracy guard compares |dt|; a time-reversed run is as coarse
    system, psi0, _ = _system(dt=-0.05)
    with pytest.warns(UserWarning, match="phases will be inaccurate"):
        run(system, psi0, 1)


def test_direct_solver_reuses_factorization():
    system, psi0, _ = _system(num_points=120)
    solver = make_linear_solver(system, SolveConfig())
    assert isinstance(solver, CapacitanceSolver)
    rhs = system.b @ psi0.values.ravel()
    before = rhs.copy()
    x1 = solver.solve(rhs)
    x2 = solver.solve(rhs)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(rhs, before)


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


def test_direct_preset_run_matches_sparse_lu():
    # the N=6 preset, 350 steps, against the same steps through a SuperLU factor
    setup = cli.resolve_run_config({"preset": {"epsilon": 0.1, "num_spins": 6}})
    h = assemble_hamiltonian(setup.params, setup.grid, setup.layout)
    system = assemble_cn(h, setup.tgrid.dt, setup.params.hbar)
    psi0 = initial_state(setup.params, setup.grid, h.num_channels)
    record = run(system, psi0, setup.tgrid.num_steps, sides=setup.layout.sides)
    lu = sparse_linalg.splu(system.a)
    x = psi0.values.ravel()
    for _ in range(setup.tgrid.num_steps):
        x = lu.solve(system.b @ x)
    final = record.final_state.values.ravel()
    assert np.linalg.norm(final - x) <= 1e-12 * np.linalg.norm(x)
    assert 0.0 < record.max_step_residual <= 1e-14


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_buffered_run_matches_step_chain(method):
    # run() advances one state buffer in place; step() allocates afresh
    system, psi0, layout = _system(num_spins=3, num_points=120)
    cfg = SolveConfig(method=method)
    record = run(system, psi0, 25, cfg, sides=layout.sides)
    shared = make_linear_solver(system, cfg)
    state = psi0
    for _ in range(25):
        state = step(system, state, cfg, shared)
    if method == "direct":
        np.testing.assert_array_equal(record.final_state.values, state.values)
    else:
        err = np.max(np.abs(record.final_state.values - state.values))
        assert err <= 1e-12 * np.max(np.abs(state.values))


def test_step_results_do_not_share_buffers():
    system, psi0, _ = _system(num_spins=3, num_points=120)
    shared = make_linear_solver(system, SolveConfig())
    first = step(system, psi0, linear_solver=shared)
    kept = first.values.copy()
    second = step(system, psi0, linear_solver=shared)
    assert not np.shares_memory(first.values, second.values)
    np.testing.assert_array_equal(first.values, kept)
    np.testing.assert_array_equal(second.values, kept)


def test_run_final_state_owns_its_memory(monkeypatch):
    built = []

    def capture(system, config):
        built.append(make_linear_solver(system, config))
        return built[-1]

    monkeypatch.setattr("spintrack.solver.make_linear_solver", capture)
    system, psi0, layout = _system(num_spins=3, num_points=120)
    final = run(system, psi0, 5, sides=layout.sides).final_state.values
    buffers = [v for v in vars(built[0]).values() if isinstance(v, np.ndarray)]
    assert buffers
    assert not any(np.shares_memory(final, buf) for buf in buffers)
    assert not np.shares_memory(final, psi0.values)


def test_direct_capacitance_bound_raises_with_residual(rng):
    # a spin energy this large makes the groups' detector blocks differ so
    # much that the correction sweeps cannot converge within their bound
    params = scaled_params(rho=1e6, alpha=1e3)
    grid, layout = small_instance(4, 100)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, 0.065 / 350, params.hbar)
    rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    with pytest.raises(SolverError, match="capacitance") as err:
        make_linear_solver(system, SolveConfig()).solve(rhs)
    assert err.value.residual > 1e-15


def test_direct_detector_free_solve(rng):
    # one channel without detectors takes only the tridiagonal solve, which
    # must not hand LAPACK an empty detector block
    system = _free_channel_system()
    rhs = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    x = make_linear_solver(system, SolveConfig()).solve(rhs)
    reference = sparse_linalg.spsolve(system.a, rhs)
    assert np.linalg.norm(x - reference) <= 1e-13 * np.linalg.norm(reference)
