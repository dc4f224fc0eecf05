"""Hamiltonian structure, entry values, and the Crank-Nicolson operators."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from spintrack import (
    ConfigurationError,
    DetectorLayout,
    SideAssignment,
    StateVector,
    assemble_cn,
    assemble_hamiltonian,
    build_grid,
    energy,
    initial_state,
    place_detectors,
    preset_from_epsilon,
    run,
    spin_sum,
)
from spintrack.assembly import DiscreteHamiltonian
from spintrack.oracle import scaled_params, small_instance


def _zero_hamiltonian(num_points=5):
    return DiscreteHamiltonian(
        kin_diag=np.zeros(num_points),
        upper=np.zeros(num_points - 1),
        lower=np.zeros(num_points - 1),
        channel_shift=np.zeros(1),
        flip_strength=0.0,
        detector_indices=np.empty(0, dtype=np.int64),
    )


def test_nnz_reference_count():
    params, geom, grid, _ = preset_from_epsilon(0.1, 4)
    layout = place_detectors(geom, grid)
    h = assemble_hamiltonian(params, grid, layout)
    assert h.to_sparse().nnz == 48032


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("nx", [50, 400])
def test_nnz_formula(n, nx):
    grid, layout = small_instance(n, nx)
    h = assemble_hamiltonian(scaled_params(), grid, layout)
    assert h.to_sparse().nnz == (3 * nx - 2) * 2**n + n * 2**n


def test_interior_and_boundary_entries():
    params = scaled_params()
    grid, layout = small_instance(2, 80)
    h = assemble_hamiltonian(params, grid, layout)
    hop = params.hbar**2 / (2 * params.mass * grid.dx**2)
    dense = h.to_sparse().toarray()
    nx = grid.num_points
    det = set(layout.grid_indices)
    for mask in (0, 1, 3):
        base = mask * nx
        i = 5
        assert i not in det
        assert dense[base + i, base + i] == pytest.approx(
            2 * hop + params.alpha * spin_sum(mask, 2)
        )
        assert dense[base + i, base + i + 1] == -hop
        assert dense[base + i, base + i - 1] == -hop
        # ghost closure doubles the outermost off-diagonals
        assert dense[base, base + 1] == -2 * hop
        assert dense[base + nx - 1, base + nx - 2] == -2 * hop


def test_symmetrized_mode_is_hermitian():
    params = scaled_params()
    grid, layout = small_instance(2, 60)
    h = assemble_hamiltonian(params, grid, layout, boundary_mode="symmetrized")
    dense = h.to_sparse().toarray()
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0


def test_detector_row_entries():
    params = scaled_params(rho=10.0, beta=2e-3, kappa=1)
    grid, layout = small_instance(2, 80)
    h = assemble_hamiltonian(params, grid, layout)
    dense = h.to_sparse().toarray()
    nx = grid.num_points
    hop = params.hbar**2 / (2 * params.mass * grid.dx**2)
    bump = params.hbar**2 * params.beta / (2 * params.mass * grid.dx)
    gamma = params.rho * params.hbar**2 / (2 * params.mass * grid.dx)
    for j, ij in enumerate(layout.grid_indices):
        for mask in range(4):
            base = mask * nx
            sign = 1.0 if (mask >> j) & 1 else -1.0
            partner = mask ^ (1 << j)
            assert dense[base + ij, base + ij] == pytest.approx(
                2 * hop + params.alpha * spin_sum(mask, 2) + bump
            )
            assert dense[base + ij, partner * nx + ij] == pytest.approx(
                -1j * sign * gamma
            )


def test_coupling_pairs_are_conjugate():
    grid, layout = small_instance(3, 200)
    h = assemble_hamiltonian(scaled_params(rho=37.0), grid, layout)
    coo = h.to_sparse().tocoo()
    off = coo.row // grid.num_points != coo.col // grid.num_points
    entries = dict(zip(zip(coo.row[off], coo.col[off]), coo.data[off]))
    assert len(entries) == 3 * 8
    for (r, c), v in entries.items():
        assert entries[(c, r)] == np.conj(v)


def test_kappa_scales_coupling():
    grid, layout = small_instance(2, 80)
    h1 = assemble_hamiltonian(scaled_params(kappa=1), grid, layout)
    h2 = assemble_hamiltonian(scaled_params(kappa=2), grid, layout)
    assert h1.flip_strength > 0.0
    assert h2.flip_strength == 2.0 * h1.flip_strength  # doubling is exact


def test_rho_zero_decouples_channels():
    params = scaled_params(rho=0.0)
    grid, layout = small_instance(2, 80)
    h = assemble_hamiltonian(params, grid, layout)
    nx = grid.num_points
    assert h.to_sparse().nnz == 4 * (3 * nx - 2)
    # blocks differ only by the channel energy shift
    dense = h.to_sparse().toarray()
    blocks = [dense[m * nx:(m + 1) * nx, m * nx:(m + 1) * nx] for m in range(4)]
    for m, block in enumerate(blocks):
        shifted = block - np.eye(nx) * (params.alpha * spin_sum(m, 2))
        np.testing.assert_array_equal(shifted, blocks[0] - np.eye(nx) * (params.alpha * spin_sum(0, 2)))
    # off-block regions are exactly empty
    assert np.count_nonzero(dense) == 4 * (3 * nx - 2)


def test_free_hamiltonian_blocks_identical():
    params = scaled_params(rho=0.0, beta=0.0, alpha=0.0)
    grid, layout = small_instance(2, 60)
    h = assemble_hamiltonian(params, grid, layout)
    dense = h.to_sparse().toarray()
    nx = grid.num_points
    first = dense[:nx, :nx]
    for m in range(1, 4):
        np.testing.assert_array_equal(dense[m * nx:(m + 1) * nx, m * nx:(m + 1) * nx], first)


def test_detector_on_boundary_rejected():
    grid = build_grid(1.5, 100)
    layout = DetectorLayout(
        positions=grid.xs[[0, 50]],
        grid_indices=np.array([0, 50]),
        sides=SideAssignment((-1, 1)),
        nominal_positions=grid.xs[[0, 50]],
    )
    with pytest.raises(ConfigurationError):
        assemble_hamiltonian(scaled_params(), grid, layout)


def _layout(grid, indices):
    return DetectorLayout(
        positions=grid.xs[indices],
        grid_indices=np.array(indices),
        sides=SideAssignment((-1, 1)),
        nominal_positions=grid.xs[indices],
    )


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda grid, h: assemble_hamiltonian(scaled_params(), grid, _layout(grid, [30, 70]), "periodic"),
         "unknown boundary mode 'periodic'"),
        (lambda grid, h: assemble_hamiltonian(scaled_params(), grid, _layout(grid, [50, 50])),
         "detector grid indices must be distinct"),
        (lambda grid, h: assemble_cn(h, 0.0, 0.1), "dt must be nonzero"),
    ],
    ids=["boundary_mode", "shared_index", "zero_dt"],
)
def test_assembly_rejects_an_ill_posed_input(build, fragment):
    grid = build_grid(1.5, 100)
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        build(grid, _zero_hamiltonian())


def test_assemble_cn_sum_identity():
    # run() steps with its own B over the rows it stores and caches none;
    # B is built when first read, after the run as before it
    params = scaled_params()
    grid, layout = small_instance(2, 100)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, 0.065 / 350, params.hbar)
    run(system, initial_state(params, grid, h.num_channels), 3)
    assert "b" not in vars(system)
    dev = system.a + system.b - 2.0 * sparse.identity(system.dim, dtype=complex, format="csc")
    assert dev.nnz == 0 or np.max(np.abs(dev.data)) == 0.0


def test_assemble_cn_zero_hamiltonian_is_identity():
    h = _zero_hamiltonian()
    system = assemble_cn(h, 1e-3, 0.1)
    dev = system.a - sparse.identity(5, dtype=complex, format="csc")
    assert dev.count_nonzero() == 0
    state = StateVector(np.arange(5, dtype=complex).reshape(1, 5), 1.0)
    out = run(system, state, 1).final_state
    np.testing.assert_array_equal(out.values, state.values)


def test_assemble_cn_diagonal_deviation():
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 2)
    layout = place_detectors(geom, grid)
    h = assemble_hamiltonian(params, grid, layout)
    system = assemble_cn(h, tgrid.dt, params.hbar)
    diag = system.a.diagonal()
    expected = tgrid.dt * np.abs(h.kin_diag + h.channel_shift[:, None]).ravel() / (2 * params.hbar)
    np.testing.assert_allclose(np.abs(diag - 1.0), expected, rtol=1e-13)
    assert np.all(expected > 0)


def test_assemble_cn_peak_allocation():
    # B is written straight into its CSR arrays, without COO triplets or a
    # sparse sum; the build's transient memory stays below one more copy of
    # B.  assemble_cn builds nothing: B is built when first read
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 6)
    h = assemble_hamiltonian(params, grid, place_detectors(geom, grid))
    tracemalloc.start()
    try:
        system = assemble_cn(h, tgrid.dt, params.hbar)
        assert tracemalloc.get_traced_memory()[1] < h.dim  # bytes: less than 1/16 of a state
        b = system.b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (b.data.nbytes + b.indices.nbytes + b.indptr.nbytes)


def test_apply_h_zero_and_linearity(rng):
    params = scaled_params()
    grid, layout = small_instance(2, 90)
    h = assemble_hamiltonian(params, grid, layout).to_sparse()
    zero = StateVector.zeros(4, 90, grid.dx)
    assert np.all(h @ zero.values.ravel() == 0.0)

    u = rng.standard_normal(4 * 90) + 1j * rng.standard_normal(4 * 90)
    v = rng.standard_normal(4 * 90) + 1j * rng.standard_normal(4 * 90)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = h @ (a * u + b * v)
    rhs = a * (h @ u) + b * (h @ v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_apply_h_hermitian_inner_product(rng):
    params = scaled_params()
    grid, layout = small_instance(2, 90)
    h = assemble_hamiltonian(params, grid, layout, boundary_mode="symmetrized").to_sparse()
    u = rng.standard_normal(4 * 90) + 1j * rng.standard_normal(4 * 90)
    v = rng.standard_normal(4 * 90) + 1j * rng.standard_normal(4 * 90)
    lhs = np.vdot(u, h @ v)
    rhs = np.conj(np.vdot(v, h @ u))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_apply_h_dimension_mismatch():
    grid, layout = small_instance(2, 90)
    h = assemble_hamiltonian(scaled_params(), grid, layout)
    with pytest.raises(ValueError):
        energy(StateVector.zeros(4, 91, grid.dx), h)


def test_small_dense_eigenvalues_real():
    grid, layout = small_instance(1, 50)
    h = assemble_hamiltonian(scaled_params(), grid, layout, boundary_mode="symmetrized")
    eigs = np.linalg.eigvals(h.to_sparse().toarray())
    assert np.max(np.abs(eigs.imag)) <= 1e-10

