"""The dense reference implementation.

Its comparison with the production path over the 24-case matrix runs as
`spintrack validate`, in tests/test_cli.py.
"""

import dataclasses
import runpy
from pathlib import Path

import numpy as np
import pytest

from spintrack import (
    TimeGrid,
    assemble_cn,
    assemble_hamiltonian,
    channel_probs,
    class_probs,
    initial_state,
    place_detectors,
    preset_from_epsilon,
    run,
)
from spintrack.observables import CLASS_FIELDS
from spintrack.oracle import (
    dense_hamiltonian,
    dense_run,
    exact_final_state,
    scaled_params,
    small_instance,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"


def test_size_cap():
    grid, layout = small_instance(2, 1000)
    with pytest.raises(ValueError):
        dense_hamiltonian(scaled_params(), grid, layout)
    with pytest.raises(ValueError):
        dense_run(scaled_params(), grid, layout, TimeGrid(0.01, 5))


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
        via_sparse = assemble_hamiltonian(params, grid, layout).to_sparse().toarray()
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


def test_cn_classes_converge_to_the_exact_propagator_at_second_order():
    # The N = 4 preset at rho = 100 against exp(-i H t / hbar) psi0 at
    # t = 0.065 (about 1 s): the largest class error reads 8.6e-5, 2.1e-5
    # and 5.3e-6 at K = 175, 350 and 700 steps, quartering with each halved
    # step.  A run at rho (1 + 1e-3), the control, misses by 3.2e-4.
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 4, rho=100.0)
    layout = place_detectors(geom, grid)
    psi0 = initial_state(params, grid, 2**4)

    def classes(state):
        cls = class_probs(channel_probs(state), layout.sides)
        return np.array([getattr(cls, name) for name in CLASS_FIELDS])

    def class_error(rho, num_steps):
        h = assemble_hamiltonian(dataclasses.replace(params, rho=rho), grid, layout)
        final = run(assemble_cn(h, tgrid.t_final / num_steps, params.hbar), psi0, num_steps).final_state
        return np.max(np.abs(classes(final) - exact))

    h = assemble_hamiltonian(params, grid, layout)
    exact = classes(exact_final_state(h, psi0, tgrid.t_final, params.hbar))
    errors = [class_error(params.rho, k) for k in (175, 350, 700)]
    assert errors[1] <= 3e-5
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 <= coarse / fine <= 4.2
    assert class_error(params.rho * (1 + 1e-3), 350) > 3e-5


def _readme_quickstart():
    """The Python block under README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("example", [p.stem for p in sorted(DEMOS.glob("*.py"))] + ["readme_quickstart"])
def test_doc_example_runs(example, tmp_path, monkeypatch):
    # every runnable example in the docs runs as written; the dense-oracle
    # demo also asserts on the shared comparison, which keeps it honest
    monkeypatch.chdir(tmp_path)
    if example == "readme_quickstart":
        exec(compile(_readme_quickstart(), "README.md", "exec"), {"__name__": "__main__"})
    else:
        runpy.run_path(str(DEMOS / f"{example}.py"), run_name="__main__")
