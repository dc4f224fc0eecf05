"""Dense reference implementation vs the production path."""

import numpy as np
import pytest

from spintrack import (
    StateVector,
    TimeGrid,
    assemble_cn,
    assemble_hamiltonian,
    channel_probs,
    initial_state,
    run,
)
from spintrack.oracle import (
    compare,
    dense_hamiltonian,
    dense_run,
    scaled_params,
    small_instance,
)


def test_size_cap():
    grid, layout = small_instance(2, 1000)
    with pytest.raises(ValueError):
        dense_hamiltonian(scaled_params(), grid, layout)
    with pytest.raises(ValueError):
        dense_run(scaled_params(), grid, layout, TimeGrid(0.01, 5))


def test_compare_basics(rng):
    v = StateVector(rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)), 0.1)
    assert compare(v, v) == (0.0, 0.0)
    neg = StateVector(-v.values, 0.1)
    max_abs, norm_diff = compare(v, neg)
    assert max_abs == pytest.approx(2 * np.max(np.abs(v.values)))
    assert norm_diff == 0.0
    with pytest.raises(ValueError):
        compare(v, StateVector.zeros(2, 9, 0.1))


def test_dense_hermitian_symmetrized():
    grid, layout = small_instance(2, 60)
    h = dense_hamiltonian(scaled_params(), grid, layout, boundary_mode="symmetrized")
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_dense_matches_assembly_entrywise():
    # independent constructions of the same operator must agree to rounding
    for kappa in (1, 2):
        params = scaled_params(rho=73.0, beta=3e-4, kappa=kappa)
        grid, layout = small_instance(3, 120)
        dense = dense_hamiltonian(params, grid, layout)
        via_sparse = assemble_hamiltonian(params, grid, layout).to_sparse("csr").toarray()
        assert np.max(np.abs(dense - via_sparse)) <= 1e-12 * np.max(np.abs(dense))


def test_free_single_spin_channels_evolve_independently():
    # rho = beta = alpha = 0: every channel evolves under the same free CN
    # matrix, rebuilt here directly for one channel
    params = scaled_params(rho=0.0, beta=0.0, alpha=0.0)
    grid, layout = small_instance(1, 64)
    tgrid = TimeGrid(t_final=20 * 0.065 / 350, num_steps=20)
    final = dense_run(params, grid, layout, tgrid)

    hop = params.hbar**2 / (2 * params.mass * grid.dx**2)
    h1 = np.zeros((64, 64), dtype=complex)
    np.fill_diagonal(h1, 2 * hop)
    for i in range(63):
        h1[i, i + 1] = h1[i + 1, i] = -hop
    h1[0, 1] = h1[63, 62] = -2 * hop
    factor = 1j * tgrid.dt / (2 * params.hbar)
    a = np.eye(64) + factor * h1
    b = np.eye(64) - factor * h1
    psi = initial_state(params, grid, 2).values[0]
    for _ in range(20):
        psi = np.linalg.solve(a, b @ psi)
    assert np.max(np.abs(final.values[0] - psi)) <= 1e-12
    assert np.all(final.values[1] == 0.0)


@pytest.mark.parametrize("rho", [0.0, 10.0, 100.0])
def test_production_matches_oracle(rho):
    params = scaled_params(rho=rho)
    grid, layout = small_instance(2, 100)
    tgrid = TimeGrid(t_final=50 * 0.065 / 350, num_steps=50)

    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    production = run(system, psi0, tgrid.num_steps).final_state
    reference = dense_run(params, grid, layout, tgrid)

    max_abs, _ = compare(production, reference)
    assert max_abs <= 1e-10
    prob_diff = np.max(
        np.abs(channel_probs(production).probs - channel_probs(reference).probs)
    )
    assert prob_diff <= 1e-12


@pytest.mark.parametrize("beta", [0.0, 1e-4])
@pytest.mark.parametrize("kappa", [1, 2])
def test_production_matches_oracle_matrix_n3(beta, kappa):
    params = scaled_params(rho=100.0, beta=beta, kappa=kappa)
    grid, layout = small_instance(3, 128)
    tgrid = TimeGrid(t_final=40 * 0.065 / 350, num_steps=40)

    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    psi0 = initial_state(params, grid, h.num_channels)
    production = run(system, psi0, tgrid.num_steps).final_state
    reference = dense_run(params, grid, layout, tgrid)

    max_abs, _ = compare(production, reference)
    assert max_abs <= 1e-10
    prob_diff = np.max(
        np.abs(channel_probs(production).probs - channel_probs(reference).probs)
    )
    assert prob_diff <= 1e-12
