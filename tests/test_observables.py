"""Channel probabilities, class aggregation, energy, arrival time."""

import numpy as np
import pytest

from spintrack import (
    SideAssignment,
    StateVector,
    arrival_time,
    assemble_hamiltonian,
    channel_probs,
    class_probs,
    energy,
    initial_state,
)
from spintrack.oracle import dense_hamiltonian, scaled_params, small_instance
from spintrack.solver import RunRecord


def test_channel_probs_initial_state():
    params = scaled_params()
    grid, _ = small_instance(2, 120)
    state = initial_state(params, grid, 4)
    cp = channel_probs(state)
    assert cp.probs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(cp.probs[1:] == 0.0)


def test_channel_probs_sum_is_norm(rng):
    values = rng.standard_normal((8, 50)) + 1j * rng.standard_normal((8, 50))
    state = StateVector(values, 0.031)
    cp = channel_probs(state)
    assert cp.total == pytest.approx(state.norm2(), rel=1e-13)
    reference = state.dx * np.sum(np.abs(values) ** 2, axis=1)
    np.testing.assert_allclose(cp.probs, reference, rtol=1e-13, atol=0.0)


def test_class_probs_all_in_channel_zero():
    sides = SideAssignment((-1, -1, 1, 1))
    state = StateVector.zeros(16, 40, 0.1)
    state.values[0, 3] = np.sqrt(1 / 0.1)
    cls = class_probs(channel_probs(state), sides)
    assert cls.unchanged == pytest.approx(1.0)
    assert cls.one_spin == cls.left_track == cls.right_track == cls.multi_track == 0.0


def test_class_probs_uniform_reference():
    # brute-force expectation for uniform p[mask] = 1/16 (see test_spinspace)
    from spintrack.observables import ChannelProbabilities

    sides = SideAssignment((-1, -1, 1, 1))
    cp = ChannelProbabilities(probs=np.full(16, 1.0 / 16), t=0.0)
    cls = class_probs(cp, sides)
    assert cls.unchanged == pytest.approx(1 / 16)
    assert cls.one_spin == pytest.approx(4 / 16)
    assert cls.left_track == pytest.approx(1 / 16)
    assert cls.right_track == pytest.approx(1 / 16)
    assert cls.multi_track == pytest.approx(9 / 16)


def test_class_probs_partition_identity(rng):
    sides = SideAssignment((-1, -1, -1, 1, 1, 1))
    values = rng.standard_normal((64, 30)) + 1j * rng.standard_normal((64, 30))
    cp = channel_probs(StateVector(values, 0.05))
    cls = class_probs(cp, sides)
    regrouped = cls.unchanged + cls.one_spin + cls.left_track + cls.right_track + cls.multi_track
    assert regrouped == pytest.approx(cp.total, abs=1e-14 * cp.total)


def test_class_probs_channel_count_mismatch():
    from spintrack.observables import ChannelProbabilities

    sides = SideAssignment((-1, -1, 1, 1))
    with pytest.raises(ValueError):
        class_probs(ChannelProbabilities(probs=np.ones(8), t=0.0), sides)


def test_energy_zero_state():
    grid, layout = small_instance(2, 80)
    h = assemble_hamiltonian(scaled_params(), grid, layout)
    assert energy(StateVector.zeros(4, 80, grid.dx), h) == 0.0


def test_energy_eigenvector(rng):
    grid, layout = small_instance(1, 40)
    h = assemble_hamiltonian(scaled_params(), grid, layout, boundary_mode="symmetrized")
    dense = h.to_sparse().toarray()
    eigvals, eigvecs = np.linalg.eigh(dense)
    k = 11
    vec = eigvecs[:, k] / np.sqrt(grid.dx)  # unit dx-weighted norm
    state = StateVector(vec.reshape(2, 40), grid.dx)
    assert energy(state, h) == pytest.approx(eigvals[k], rel=1e-10)


@pytest.mark.parametrize("boundary_mode", ["ghost", "symmetrized"])
@pytest.mark.parametrize("rho", [0.0, 55.0])
@pytest.mark.parametrize("num_spins", [1, 2, 3])
def test_energy_matches_dense_oracle(rng, num_spins, rho, boundary_mode):
    # H from the entry-by-entry dense oracle, not from the assembly's writers
    params = scaled_params(rho=rho)
    grid, layout = small_instance(num_spins, 90)
    h = assemble_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
    dense = dense_hamiltonian(params, grid, layout, boundary_mode=boundary_mode)
    values = rng.standard_normal((h.num_channels, 90)) + 1j * rng.standard_normal((h.num_channels, 90))
    expected = grid.dx * np.vdot(values, dense @ values.ravel()).real
    assert energy(StateVector(values, grid.dx), h) == pytest.approx(expected, rel=1e-13)


def test_energy_alpha_shift_on_initial_state():
    # with no couplings the channel-0 energy is kinetic plus alpha * (-N)
    params_free = scaled_params(rho=0.0, beta=0.0, alpha=0.0)
    params_alpha = scaled_params(rho=0.0, beta=0.0, alpha=1e-3)
    grid, layout = small_instance(4, 150)
    h_free = assemble_hamiltonian(params_free, grid, layout)
    h_alpha = assemble_hamiltonian(params_alpha, grid, layout)
    state = initial_state(params_free, grid, 16)
    e_free = energy(state, h_free)
    e_alpha = energy(state, h_alpha)
    assert e_alpha - e_free == pytest.approx(-4 * 1e-3 * state.norm2(), rel=1e-10)


def _record_with_uc(uc):
    uc = np.asarray(uc, dtype=float)
    k = len(uc) - 1
    return RunRecord(
        times=np.linspace(0.0, 1.0, k + 1),
        norm2=np.ones(k + 1),
        energy=np.zeros(k + 1),
        unchanged=uc,
        one_spin=1.0 - uc,
        left_track=np.zeros(k + 1),
        right_track=np.zeros(k + 1),
        multi_track=np.zeros(k + 1),
        final_state=StateVector.zeros(2, 4, 0.1),
    )


def test_arrival_time_reads_first_crossing():
    record = _record_with_uc([1.0, 1.0, 0.995, 0.95, 0.2])
    assert arrival_time(record, 0.01) == pytest.approx(0.75)
    assert arrival_time(record, 0.001) == pytest.approx(0.5)


def test_arrival_time_never():
    record = _record_with_uc([1.0, 1.0, 1.0])
    assert arrival_time(record, 0.01) is None


def test_arrival_time_rejects_bad_drop():
    record = _record_with_uc([1.0, 0.5])
    with pytest.raises(ValueError):
        arrival_time(record, 0.0)
    with pytest.raises(ValueError):
        arrival_time(record, 1.0)
