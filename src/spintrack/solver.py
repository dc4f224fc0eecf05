"""Time integration: one sparse linear solve per Crank-Nicolson step.

The implicit operator A is constant in time, so the direct strategy factors
it once (SuperLU) and reuses the factorization for every step.  The
iterative strategy runs GMRES preconditioned by the decoupled per-channel
tridiagonal solves and stores no factorization; it has not been measured
faster than the direct solve at any size run so far.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as sparse_linalg

from . import observables
from .state import StateVector

SOLVE_METHODS = ("direct", "iterative")


class SolverError(RuntimeError):
    """Linear solve failed or produced non-finite values."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveConfig:
    """Linear-solve strategy and tolerances.

    `rtol` bounds the relative residual of every step; the default keeps the
    per-step norm drift far below the run-level conservation guarantees.
    For the iterative method `max_iter` counts restart cycles.
    """

    method: str = "direct"
    rtol: float = 1e-12
    max_iter: int = 200
    restart: int = 30

    def __post_init__(self):
        if self.method not in SOLVE_METHODS:
            raise ValueError(f"method must be one of {SOLVE_METHODS}, got {self.method!r}")
        if not 0.0 < self.rtol <= 1e-6:
            raise ValueError(f"rtol must be in (0, 1e-6], got {self.rtol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")


class DirectSolver:
    """LU factorization of A, computed once, reused for every right-hand side."""

    def __init__(self, a_matrix):
        self._lu = sparse_linalg.splu(a_matrix.tocsc())

    def solve(self, rhs, x0=None):
        return self._lu.solve(rhs)


class BlockPreconditionedSolver:
    """GMRES on A, preconditioned by the channel-decoupled tridiagonal solves.

    The preconditioner drops the cross-channel couplings, leaving one complex
    tridiagonal system per channel; channels sharing the same diagonal energy
    share one banded solve.
    """

    def __init__(self, system, config):
        self._a = system.a.tocsr()
        self._config = config
        h = system.h
        factor = 1j * system.dt / (2.0 * system.hbar)
        nx = h.num_points
        base_diag = 1.0 + factor * h.kin_diag
        self._shape = (h.num_channels, nx)
        self._groups = []
        values, inverse = np.unique(h.channel_shift, return_inverse=True)
        for g, shift in enumerate(values):
            band = np.zeros((3, nx), dtype=np.complex128)
            band[0, 1:] = factor * h.upper
            band[1, :] = base_diag + factor * shift
            band[2, :-1] = factor * h.lower
            self._groups.append((np.nonzero(inverse == g)[0], band))

    def _precondition(self, rhs):
        r = rhs.reshape(self._shape)
        out = np.empty_like(r)
        for channels, band in self._groups:
            out[channels] = scipy.linalg.solve_banded((1, 1), band, r[channels].T).T
        return out.ravel()

    def solve(self, rhs, x0=None):
        op = sparse_linalg.LinearOperator(
            self._a.shape, matvec=self._precondition, dtype=np.complex128
        )
        x, info = sparse_linalg.gmres(
            self._a,
            rhs,
            x0=x0,
            rtol=self._config.rtol,
            atol=0.0,
            restart=self._config.restart,
            maxiter=self._config.max_iter,
            M=op,
        )
        if info != 0:
            residual = np.linalg.norm(self._a @ x - rhs) / np.linalg.norm(rhs)
            raise SolverError(
                f"GMRES did not converge within {self._config.max_iter} restarts "
                f"(relative residual {residual:.3e})",
                residual=residual,
            )
        return x


def make_linear_solver(system, config):
    if config.method == "direct":
        return DirectSolver(system.a)
    return BlockPreconditionedSolver(system, config)


def _norm(v):
    # BLAS dot: np.linalg.norm squares elementwise, which is several times
    # slower on wavefunction tails whose squares underflow to subnormals
    return np.sqrt(np.vdot(v, v).real)


def _check_residual(r, rhs, rtol):
    """Relative residual ||r|| / ||rhs|| of r = A x - rhs, raising SolverError above rtol.

    A non-finite entry in x or rhs makes the residual NaN or inf, which the
    negated comparison rejects, so this is also the finiteness check.  A zero
    right-hand side falls back to the absolute residual.
    """
    rhs_norm = _norm(rhs)
    residual = float(_norm(r) / (rhs_norm if rhs_norm != 0.0 else 1.0))
    if not residual <= rtol:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds tolerance {rtol:.3e}",
            residual=residual,
        )
    return residual


def _advance(linear_solver, b_matrix, flat, rhs, rtol):
    """Solve A x = rhs and return (x, B x, relative residual).

    Because A + B = 2I exactly, A x = 2x - B x: the residual check reuses
    the B x that is the right-hand side of the next step.
    """
    x = linear_solver.solve(rhs, x0=flat)
    bx = b_matrix @ x
    r = 2.0 * x
    r -= bx
    r -= rhs
    return x, bx, _check_residual(r, rhs, rtol)


def _check_shape(system, state):
    shape = (system.h.num_channels, system.h.num_points)
    if state.values.shape != shape:
        raise ValueError(f"state shape {state.values.shape} does not match system {shape}")
    return shape


def step(system, state, config=None, linear_solver=None):
    """Advance one Crank-Nicolson step: solve A psi_next = B psi.

    Passing `linear_solver` (from make_linear_solver) reuses a factorization;
    otherwise one is built for this call.
    """
    config = config or SolveConfig()
    _check_shape(system, state)
    solver = linear_solver or make_linear_solver(system, config)
    flat = state.values.ravel()
    x, _, _ = _advance(solver, system.b, flat, system.b @ flat, config.rtol)
    return StateVector(x.reshape(state.values.shape), state.dx)


@dataclass(eq=False)
class RunRecord:
    """Per-step diagnostic series plus the final state.

    All series have length num_steps + 1 and include t = 0.  The class
    probability series are None when the run was not given side labels.
    `max_step_residual` is the largest relative residual of any step, None
    when the record was not produced by `run`.
    """

    times: np.ndarray
    norm2: np.ndarray
    energy: np.ndarray
    unchanged: np.ndarray | None
    one_spin: np.ndarray | None
    left_track: np.ndarray | None
    right_track: np.ndarray | None
    multi_track: np.ndarray | None
    final_state: StateVector
    max_step_residual: float | None = None


def run(system, initial, num_steps, config=None, sides=None):
    """Advance `num_steps` Crank-Nicolson steps, recording diagnostics.

    Each step costs one linear solve and one B-matvec: the product B x is
    the next right-hand side, and it also yields the residual check
    (A x = 2x - B x) and the energy (B = I - i f H with f = dt / 2 hbar, so
    Re <x, H x> = -Im <x, B x> / f).

    Parameters
    ----------
    system : CNSystem
    initial : StateVector
    num_steps : int, >= 1
    config : SolveConfig, optional
    sides : SideAssignment, optional
        When given, the configuration-class probability series are recorded.

    Returns
    -------
    RunRecord
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    config = config or SolveConfig()
    shape = _check_shape(system, initial)
    tags = observables.class_tags(sides, shape[0]) if sides is not None else None
    dx = initial.dx
    energy_scale = -dx * 2.0 * system.hbar / system.dt
    times = system.dt * np.arange(num_steps + 1)
    norm2 = np.empty(num_steps + 1)
    energy = np.empty(num_steps + 1)
    classes = np.empty((num_steps + 1, 5)) if tags is not None else None

    def record(k, state, bx):
        probs = observables.channel_probs(state, t=times[k]).probs
        norm2[k] = probs.sum()
        energy[k] = energy_scale * np.vdot(state.values, bx).imag
        if classes is not None:
            classes[k] = observables.class_sums(probs, tags)

    flat = initial.values.ravel()
    bx = system.b @ flat
    record(0, initial, bx)
    # Accuracy (not stability) guard: compare dt against the phase period of
    # the occupied modes, 2 hbar / |<H>|.  The operator norm would be the grid
    # cutoff energy and would flag every well-resolved run.
    if energy[0] != 0.0 and system.dt > 2.0 * system.hbar / abs(energy[0]):
        warnings.warn(
            f"dt={system.dt:g} exceeds 2*hbar/|<H>|~{2.0 * system.hbar / abs(energy[0]):g}; "
            "the scheme stays stable but phases will be inaccurate"
        )
    solver = make_linear_solver(system, config)
    worst = 0.0
    for k in range(1, num_steps + 1):
        try:
            flat, bx, residual = _advance(solver, system.b, flat, bx, config.rtol)
        except SolverError as err:
            raise SolverError(f"step {k}: {err}", residual=err.residual) from err
        worst = max(worst, residual)
        state = StateVector(flat.reshape(shape), dx)
        record(k, state, bx)
    return RunRecord(
        times=times,
        norm2=norm2,
        energy=energy,
        unchanged=classes[:, 0] if classes is not None else None,
        one_spin=classes[:, 1] if classes is not None else None,
        left_track=classes[:, 2] if classes is not None else None,
        right_track=classes[:, 3] if classes is not None else None,
        multi_track=classes[:, 4] if classes is not None else None,
        final_state=state,
        max_step_residual=worst,
    )
