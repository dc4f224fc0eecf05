"""Acceptance suite for the reference configuration.

Every criterion is asserted at its pinned tolerance and prints one
"[acceptance] ..." line on success (run pytest with -s to see them).
Reference probabilities are frozen 12-digit values for the epsilon = 0.1
configuration (Nx = 1000, K = 350, t* = 0.065); heavy runs are cached and
shared across criteria.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import spintrack as st
from spintrack import cli

# (UC, OS, LRC one side) at final time, rho = 100, by detector count
REFERENCE_RHO100 = {
    4: (0.659609415084, 0.275253381822, 0.0325685025765),
    6: (0.394108332939, 0.459327397789, 0.0732817073769),
    8: (0.259847521850, 0.467653883264, 0.136249083320),
}
# (UC, OS, LRC one side) for the weak-coupling row N = 8, rho = 10
REFERENCE_N8_RHO10 = (0.987454499772, 0.0124587374242, 0.433814016219e-4)
# LRC one side for N = 6 as rho grows
REFERENCE_N6_LRC = {50.0: 0.0103574748581, 100.0: 0.0732817073769, 150.0: 0.109622994819}
# window around the ballistic arrival D/p0 = 0.0375 at epsilon = 0.1
ARRIVAL_WINDOW = (0.030, 0.045)


class RunCache:
    """Lazily computed, shared full-size runs keyed by (N, rho, kappa, p0 scale)."""

    def __init__(self):
        self._runs = {}

    def get(self, num_spins, rho, kappa=1, p0_scale=1.0):
        key = (num_spins, float(rho), kappa, float(p0_scale))
        if key not in self._runs:
            params, geom, grid, tgrid = st.preset_from_epsilon(
                0.1, num_spins, rho=float(rho), kappa=kappa
            )
            params = dataclasses.replace(params, p0=p0_scale * params.p0)
            layout = st.place_detectors(geom, grid)
            h = st.assemble_hamiltonian(params, grid, layout)
            system = st.assemble_cn(h, tgrid.dt, params.hbar)
            psi0 = st.initial_state(params, grid, h.num_channels)
            record = st.run(system, psi0, tgrid.num_steps, sides=layout.sides)
            channels = st.channel_probs(record.final_state, t=tgrid.t_final)
            classes = st.class_probs(channels, layout.sides)
            self._runs[key] = SimpleNamespace(
                record=record, channels=channels, classes=classes, layout=layout
            )
        return self._runs[key]


@pytest.fixture(scope="module")
def cache():
    return RunCache()


def _passes_table_row(classes, reference, uc_tol, os_tol, lrc_tol):
    uc_ref, os_ref, lrc_ref = reference
    return (
        abs(classes.unchanged - uc_ref) <= uc_tol
        and abs(classes.one_spin - os_ref) <= os_tol
        and abs(classes.left_track - lrc_ref) <= lrc_tol
    )


def _half_drop_arrival(record):
    """Median first-flip time: first recorded time at which the no-flip
    probability has fallen by half of its total fall by t*."""
    return st.arrival_time(record, drop=0.5 * (1.0 - record.unchanged[-1]))


def _report(num, desc):
    print(f"[acceptance] criterion {num:02d} ({desc}): PASS")


def test_criterion_01_reference_row_n4(cache):
    cls = cache.get(4, 100.0).classes
    uc_ref, os_ref, lrc_ref = REFERENCE_RHO100[4]
    assert abs(cls.unchanged - uc_ref) <= 0.02
    assert abs(cls.one_spin - os_ref) <= 0.02
    assert abs(cls.left_track - lrc_ref) <= 0.01
    row_sum = cls.left_track + cls.right_track + cls.one_spin + cls.unchanged
    assert row_sum >= 0.9999
    _report(1, "N=4 rho=100 final probabilities")


def test_criterion_02_reference_rows_n6_n8(cache):
    cls6 = cache.get(6, 100.0).classes
    assert abs(cls6.unchanged - REFERENCE_RHO100[6][0]) <= 0.03
    assert abs(cls6.left_track - REFERENCE_RHO100[6][2]) <= 0.02
    cls8 = cache.get(8, 100.0).classes
    assert abs(cls8.unchanged - REFERENCE_RHO100[8][0]) <= 0.03
    assert abs(cls8.left_track - REFERENCE_RHO100[8][2]) <= 0.03
    _report(2, "N=6 and N=8 rho=100 final probabilities")


def test_criterion_03_weak_coupling_row(cache):
    cls = cache.get(8, 10.0).classes
    uc_ref, os_ref, lrc_ref = REFERENCE_N8_RHO10
    assert abs(cls.unchanged - uc_ref) <= 0.005
    assert abs(cls.one_spin - os_ref) <= 0.005
    assert lrc_ref / 3.0 <= cls.left_track <= lrc_ref * 3.0
    _report(3, "N=8 rho=10 weak-coupling probabilities")


def test_criterion_04_monotone_trends(cache):
    lrc = {n: cache.get(n, 100.0).classes.left_track for n in (4, 6, 8)}
    uc = {n: cache.get(n, 100.0).classes.unchanged for n in (4, 6, 8)}
    assert lrc[4] < lrc[6] < lrc[8]
    assert uc[4] > uc[6] > uc[8]
    lrc_rho = {rho: cache.get(6, rho).classes.left_track for rho in (50.0, 100.0, 150.0)}
    assert lrc_rho[50.0] < lrc_rho[100.0] < lrc_rho[150.0]
    _report(4, "monotone trends in N and rho")


def test_criterion_05_multi_track_negligible(cache):
    for n, rho in ((4, 100.0), (6, 100.0), (8, 100.0), (8, 10.0)):
        assert cache.get(n, rho).classes.multi_track <= 1e-4
    _report(5, "multiple-track probability negligible")


def test_criterion_06_norm_conservation(cache):
    record = cache.get(8, 100.0).record
    assert np.max(np.abs(record.norm2 - 1.0)) <= 1e-8
    _report(6, "norm conservation on N=8 rho=100")


def test_criterion_07_energy_conservation(cache):
    record = cache.get(8, 100.0).record
    drift = np.max(np.abs(record.energy - record.energy[0]))
    assert drift <= 1e-8 * abs(record.energy[0])
    _report(7, "energy conservation on N=8 rho=100")


def test_criterion_08_left_right_symmetry(cache):
    for n, rho in (
        (4, 100.0), (6, 50.0), (6, 100.0), (6, 150.0),
        (8, 10.0), (8, 100.0), (8, 150.0),
    ):
        record = cache.get(n, rho).record
        worst = np.max(np.abs(record.left_track - record.right_track))
        assert worst <= 1e-6, f"N={n} rho={rho}: |LRC_L - LRC_R| up to {worst:.2e}"
    _report(8, "left/right symmetry at every recorded step")


def test_criterion_09_decoupled_run(cache):
    cls = cache.get(4, 0.0).classes
    assert abs(cls.unchanged - 1.0) <= 1e-12
    _report(9, "rho=0 leaves the no-flip probability at one")


def test_criterion_10_coupling_factor_resolution(cache):
    tolerances = (0.02, 0.02, 0.01)
    inside = {
        kappa: _passes_table_row(
            cache.get(4, 100.0, kappa=kappa).classes, REFERENCE_RHO100[4], *tolerances
        )
        for kappa in (1, 2)
    }
    assert sum(inside.values()) == 1, f"expected exactly one winner, got {inside}"
    assert inside[1], "the pinned default coupling factor must be the winner"
    _report(10, "coupling factor resolved empirically to kappa=1")


def test_criterion_11_oracle_equivalence():
    from spintrack.oracle import differences, final_states, scaled_params, small_instance

    # the packet starts on the right detector: from the origin it would not
    # reach the detectors in 50 steps, and the comparison could not see the
    # flip coupling
    grid, layout = small_instance(2, 100)
    tgrid = st.TimeGrid(t_final=50 * 0.065 / 350, num_steps=50)
    for rho in (0.0, 10.0, 100.0):
        params = scaled_params(rho=rho, x0=0.5)
        max_abs, prob_diff = differences(*final_states(params, grid, layout, tgrid))
        assert max_abs <= 1e-10
        assert prob_diff <= 1e-12
    _report(11, "production solver matches the dense reference")


def test_criterion_12_sparsity_structure():
    from spintrack.oracle import scaled_params, small_instance

    for n in (2, 4, 6, 8):
        for nx in (50, 1000):
            if nx == 1000:
                params, geom, grid, _ = st.preset_from_epsilon(0.1, n)
                layout = st.place_detectors(geom, grid)
            else:
                grid, layout = small_instance(n, nx)
                params = scaled_params()
            h = st.assemble_hamiltonian(params, grid, layout)
            expect = (3 * nx - 2) * 2**n + n * 2**n
            assert h.to_sparse().nnz == expect
    _report(12, "stored nonzeros match (3Nx-2)M + NM")


def test_preset_n8_boundary_mass_below_the_warning(cache):
    # the packet stays clear of +-L: the final probability within 4 sigma
    # of them is far below the limit at which `spintrack run` warns
    params, _, grid, _ = st.preset_from_epsilon(0.1, 8)
    state = cache.get(8, 100.0).record.final_state
    mass = st.observables.boundary_mass(state, grid, cli.BOUNDARY_SIGMAS * params.sigma)
    assert mass == pytest.approx(4.3e-9, rel=0.05)
    assert cli._boundary_notes(mass) == []


def test_criterion_13_arrival_time(cache):
    # The packet's arrival is read as the median first-flip time, the half
    # point of the no-flip probability's fall by t*.  A fixed threshold such
    # as UC < 0.99 measures the coupling instead: at weak coupling
    # 1 - UC(t) ~ rho^2 * sum_j int |psi(x_j, s)|^2 ds, so the stronger the
    # coupling the fainter (earlier) the part of the spreading packet's
    # leading tail that crosses it.  At N=8, rho=150 the 1% crossing is at
    # t = 0.0288 (0.0283 at K=700), the half-drop time at 0.0383 (0.0380).
    lo, hi = ARRIVAL_WINDOW
    arrival = _half_drop_arrival(cache.get(8, 150.0).record)
    assert arrival is not None
    assert lo <= arrival <= hi
    # an arrival time must not depend on how strongly the detectors couple
    for rho in (10.0, 100.0):
        other = _half_drop_arrival(cache.get(8, rho).record)
        assert other is not None
        assert lo <= other <= hi, f"rho={rho}: half-drop time {other}"
    _report(13, "packet arrival within the predicted window")


@pytest.mark.parametrize("p0_scale", [0.75, 1.5])
def test_arrival_estimate_tracks_packet_speed(cache, p0_scale):
    # negative control for criterion 13: a packet 25% too slow (D/p0 = 0.050)
    # or 50% too fast (D/p0 = 0.025) must land outside the window, on the
    # side its speed predicts
    lo, hi = ARRIVAL_WINDOW
    arrival = _half_drop_arrival(cache.get(4, 150.0, p0_scale=p0_scale).record)
    assert arrival is not None
    if p0_scale < 1.0:
        assert arrival > hi
    else:
        assert arrival < lo


def test_no_flip_probability_flat_before_arrival(cache):
    # supporting invariant: until the packet nears the clusters the flip
    # probability is negligible
    record = cache.get(4, 100.0).record
    early = record.times < 0.02
    assert np.max(np.abs(record.unchanged[early] - 1.0)) <= 1e-6


def _born_ratio(cache, num_spins, kappa=1, rho=0.5):
    """(1 - UC) / (N rho^2) at t*: the flip probability per detector per rho^2."""
    return (1.0 - cache.get(num_spins, rho, kappa=kappa).classes.unchanged) / (num_spins * rho**2)


def test_weak_coupling_flips_scale_with_the_detector_count(cache):
    # to first order in rho each detector flips on its own, with a probability
    # proportional to (kappa rho)^2, so (1 - UC) / (N rho^2) has one limit at
    # every N.  N = 2 reads lower: its one detector per side sits d/2 outside
    # D, where more of the packet's slow tail has yet to pass it by t*
    def agree(a, b):
        return abs(a / b - 1.0) <= 1.1e-4

    ratio = {n: _born_ratio(cache, n) for n in (2, 4, 8)}
    assert agree(ratio[8], ratio[4])
    assert 0.003 <= 1.0 - ratio[2] / ratio[4] <= 0.008
    # the control: kappa = 2 quadruples the flip probability
    doubled = _born_ratio(cache, 4, kappa=2)
    assert doubled / ratio[4] == pytest.approx(4.0, rel=1e-3)
    assert not agree(doubled, ratio[4])
    print(f"[acceptance] weak coupling (1-UC)/(N rho^2) by N: {ratio}, kappa=2 at N=4: {doubled:.6e}")
