"""Grids, detector placement, the initial packet, and the preset."""

import re
from dataclasses import replace

import numpy as np
import pytest

from spintrack import (
    MAX_SPINS,
    ConfigurationError,
    Geometry,
    TimeGrid,
    build_grid,
    initial_state,
    nominal_detector_positions,
    place_detectors,
    preset_from_epsilon,
    validate_regime,
)
from spintrack.model import cluster_offsets
from spintrack.spinspace import mirrors
from spintrack.oracle import scaled_params


def test_build_grid_reference_spacing():
    grid = build_grid(1.5, 1000)
    assert grid.dx == pytest.approx(3.0 / 999.0, rel=0, abs=0)
    assert grid.xs[0] == -1.5
    assert grid.xs[-1] == 1.5
    assert grid.num_points == 1000


def test_build_grid_three_points():
    grid = build_grid(1.0, 3)
    np.testing.assert_array_equal(grid.xs, [-1.0, 0.0, 1.0])


def test_build_grid_spacing_reconstruction():
    grid = build_grid(1.5, 1000)
    diffs = np.diff(grid.xs)
    assert np.max(np.abs(diffs - grid.dx)) < 16 * np.finfo(float).eps


@pytest.mark.parametrize("num_points", [3, 100, 301, 1000, 1001])
def test_build_grid_exactly_antisymmetric(num_points):
    grid = build_grid(1.5, num_points)
    np.testing.assert_array_equal(grid.xs, -grid.xs[::-1])
    assert grid.xs[0] == -1.5 and grid.xs[-1] == 1.5


@pytest.mark.parametrize("num_spins", [2, 4, 6, 8])
def test_preset_initial_state_exactly_mirror_even(num_spins):
    # psi0(mirror m, x) == psi0(m, -x) bit for bit, so runs of the preset
    # store one channel per mirror orbit
    params, geom, grid, _ = preset_from_epsilon(0.1, num_spins)
    psi = initial_state(params, grid, 1 << num_spins).values
    assert np.array_equal(psi[mirrors(num_spins)], psi[:, ::-1])
    layout = place_detectors(geom, grid)
    np.testing.assert_array_equal(layout.grid_indices[::-1], grid.num_points - 1 - layout.grid_indices)


def test_build_grid_rejects_tiny():
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 2)


def test_cluster_offsets_even_matches_half_odd_pattern():
    # two per side: +-d/2; four per side: +-d/2, +-3d/2
    np.testing.assert_allclose(cluster_offsets(2, 0.025), [-0.0125, 0.0125])
    np.testing.assert_allclose(
        cluster_offsets(4, 0.0125), [-0.01875, -0.00625, 0.00625, 0.01875]
    )


def test_cluster_offsets_odd_serpentine():
    # the unpaired detector sits inward of the center for three per side and
    # outward for five per side
    np.testing.assert_allclose(cluster_offsets(3, 0.06), [-0.09, -0.03, 0.03])
    np.testing.assert_allclose(
        cluster_offsets(5, 0.06), [-0.09, -0.03, 0.03, 0.09, 0.15]
    )


def test_nominal_positions_n4():
    geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.025, num_spins=4)
    np.testing.assert_allclose(
        nominal_detector_positions(geom), [-0.5125, -0.4875, 0.4875, 0.5125]
    )


def test_nominal_positions_n2():
    geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.05, num_spins=2)
    np.testing.assert_allclose(nominal_detector_positions(geom), [-0.525, 0.525])


def test_nominal_positions_mirror_symmetric():
    for n in (2, 4, 6, 8, 10):
        geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.1 / n, num_spins=n)
        ys = nominal_detector_positions(geom)
        np.testing.assert_allclose(ys, -ys[::-1], atol=0)


def test_place_detectors_snapping_bound():
    geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.025, num_spins=4)
    grid = build_grid(1.5, 1000)
    layout = place_detectors(geom, grid)
    assert np.all(np.abs(layout.positions - layout.nominal_positions) <= grid.dx / 2)
    assert np.array_equal(np.unique(layout.grid_indices), layout.grid_indices)
    assert layout.sides.signs == (-1, -1, 1, 1)
    # snapped layout stays mirror symmetric on the reference grid
    assert np.all(layout.grid_indices + layout.grid_indices[::-1] == grid.num_points - 1)


# the epsilon = 0.1 presets, N = 2..24, on which snapping each detector on
# its own (ties toward -inf) broke the mirror: ladder grids put a detector
# exactly halfway between two points
_TIES = {1000: [], 1201: [8, 24], 1321: [4, 12, 20], 2401: [16], 2641: [8, 24], 5281: [16]}


@pytest.mark.parametrize("num_points", sorted(_TIES))
def test_place_detectors_mirror_symmetric_on_every_grid(num_points):
    grid = build_grid(1.5, num_points)
    ties = []
    for n in range(2, MAX_SPINS + 1, 2):
        geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.1 / n, num_spins=n)
        try:
            indices = place_detectors(geom, grid).grid_indices
        except ConfigurationError as err:
            assert "collide after snapping" in str(err)
            continue
        assert np.array_equal(indices + indices[::-1], [num_points - 1] * n)
        own = np.ceil((nominal_detector_positions(geom) + 1.5) / grid.dx - 0.5).astype(np.int64)
        if np.array_equal(own + own[::-1], [num_points - 1] * n):
            assert np.array_equal(indices, own)
        else:  # the x > 0 half keeps its own snap, the other is its mirror
            assert np.array_equal(indices[n // 2:], own[n // 2:])
            ties.append(n)
    assert ties == _TIES[num_points]


def test_place_detectors_grid_too_coarse():
    geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.01, num_spins=4)
    grid = build_grid(1.5, 31)  # dx = 0.1 >> spacing
    with pytest.raises(ConfigurationError):
        place_detectors(geom, grid)


def test_place_detectors_outside_domain():
    geom = Geometry(half_length=1.0, cluster_distance=0.99, spacing=0.1, num_spins=4)
    grid = build_grid(1.0, 501)
    with pytest.raises(ConfigurationError):
        place_detectors(geom, grid)


def test_initial_state_norm_and_support():
    params, geom, grid, _ = preset_from_epsilon(0.1, 4)
    state = initial_state(params, grid, 16)
    assert abs(state.norm2() - 1.0) < 1e-14
    assert np.all(state.values[1:] == 0.0)


def test_initial_state_even_symmetry():
    # odd point count puts a grid point at x = 0 and makes the grid symmetric
    params = scaled_params()
    grid = build_grid(1.5, 301)
    state = initial_state(params, grid, 2)
    psi = state.values[0]
    np.testing.assert_allclose(psi, psi[::-1], rtol=0, atol=1e-12)
    assert psi[150].real > 0 and psi[150].imag == 0
    # peak value is the normalization constant times 2 (cosine sum at x = 0)
    raw = np.where(
        np.abs(grid.xs) < params.trunc_a,
        np.exp(-grid.xs**2 / (4 * params.sigma**2)) * 2 * np.cos(params.p0 * grid.xs / params.hbar),
        0.0,
    )
    c = 1.0 / np.sqrt(grid.dx * np.sum(raw**2))
    assert psi[150] == pytest.approx(2.0 * c)


def test_initial_state_empty_after_truncation():
    params, geom, grid, _ = preset_from_epsilon(0.1, 4)
    starved = replace(scaled_params(), trunc_a=grid.dx / 10.0)
    with pytest.raises(ConfigurationError):
        initial_state(starved, grid, 4)


def test_validate_regime_reference_preset_clean():
    params, geom, _, _ = preset_from_epsilon(0.1, 4)
    assert validate_regime(params, geom) == []


def test_validate_regime_violations():
    params = scaled_params()
    geom = Geometry(half_length=1.5, cluster_distance=0.5, spacing=0.05, num_spins=4)
    notes = validate_regime(params, geom)
    assert any("d < sigma" in note for note in notes)

    geom_close = Geometry(
        half_length=1.5, cluster_distance=params.sigma, spacing=0.01, num_spins=4
    )
    notes = validate_regime(params, geom_close)
    assert any("sigma << D" in note for note in notes)


def test_preset_reference_values():
    params, geom, grid, tgrid = preset_from_epsilon(0.1, 6)
    assert params.rho == pytest.approx(100.0)
    assert params.hbar == 0.1
    assert params.p0 == pytest.approx(40.0 / 3.0)
    assert geom.cluster_distance == pytest.approx(0.5)
    # consistency anchor: the packet reaches the clusters at D / p0
    assert geom.cluster_distance / params.p0 == pytest.approx(0.0375)
    assert tgrid.dt == pytest.approx(0.065 / 350.0)

    _, geom8, _, _ = preset_from_epsilon(0.1, 8)
    assert geom8.spacing == pytest.approx(0.0125)


def test_preset_rejects_odd_counts():
    with pytest.raises(ConfigurationError):
        preset_from_epsilon(0.1, 5)
    with pytest.raises(ConfigurationError):
        preset_from_epsilon(-0.1, 4)


def _geometry(**keys):
    return Geometry(**{"half_length": 1.5, "cluster_distance": 0.5, "spacing": 0.01, "num_spins": 4, **keys})


def _snap(num_points, cluster_distance, spacing):
    """Place two detectors at +-(cluster_distance + spacing / 2) on a grid over [-1, 1]."""
    geom = _geometry(half_length=1.0, cluster_distance=cluster_distance, spacing=spacing, num_spins=2)
    return place_detectors(geom, build_grid(1.0, num_points))


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: replace(scaled_params(), hbar=0.0), "hbar and mass must be positive"),
        (lambda: replace(scaled_params(), mass=-1.0), "hbar and mass must be positive"),
        (lambda: replace(scaled_params(), rho=-1.0), "alpha, beta, rho must be non-negative"),
        (lambda: _geometry(half_length=0.0), "half_length must be positive"),
        (lambda: _geometry(cluster_distance=1.5), "cluster_distance must lie inside the domain"),
        (lambda: _geometry(spacing=0.0), "spacing must be positive"),
        (lambda: _geometry(num_spins=3), "num_spins must be even and >= 2, got 3"),
        (lambda: _geometry(num_spins=MAX_SPINS + 2), f"num_spins capped at {MAX_SPINS}"),
        (lambda: TimeGrid(t_final=0.0, num_steps=10), "t_final must be positive, num_steps >= 1"),
        (lambda: TimeGrid(t_final=0.065, num_steps=0), "t_final must be positive, num_steps >= 1"),
        (lambda: build_grid(0.0, 11), "half_length must be positive"),
        # +-0.96 lie inside (-1, 1) but snap to the end points at dx = 0.1
        (lambda: _snap(21, 0.95, 0.02), "a detector snapped onto a boundary point"),
        # +dx/2 with dx = 1/8, exact in binary, ties toward -inf onto x = 0,
        # which is also its own mirror: the origin is named, not a collision
        (lambda: _snap(17, 0.03125, 0.0625), "a detector snapped onto the origin and has no side"),
        # two detectors at x = 0 on a grid without an origin point: the x > 0
        # half's one ties onto x = -dx/2
        (
            lambda: place_detectors(
                _geometry(half_length=1.0, cluster_distance=0.25, spacing=0.5), build_grid(1.0, 20)
            ),
            "a detector snapped onto the origin and has no side",
        ),
    ],
    ids=[
        "hbar", "mass", "rho", "half_length", "cluster_distance", "spacing", "odd_spins",
        "max_spins", "t_final", "num_steps", "grid_half_length", "snapped_to_boundary", "snapped_to_origin",
        "tied_at_the_origin",
    ],
)
def test_model_rejects_an_ill_posed_configuration(build, fragment):
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        build()


def test_validate_regime_notes_a_strong_point_interaction():
    # beta * d = 0.5 is not << 1, while d < sigma and sigma << D hold
    notes = validate_regime(replace(scaled_params(), beta=50.0), _geometry())
    assert notes == ["beta << 1/d violated: beta=50, 1/d=100"]
