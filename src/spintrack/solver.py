"""Time integration: one linear solve per Crank-Nicolson step.

The implicit operator A is constant in time.  The direct strategy uses its
structure: one tridiagonal block per spin channel, coupled only at the
detector points.  It factors the tridiagonal blocks once, one per distinct
diagonal shift, and solves the small detector (capacitance) system exactly
on every step; no sparse factorization of A is formed.  The iterative
strategy runs GMRES preconditioned by the same per-channel tridiagonal
factors and applies A as 2x - B x; it has not been measured faster than
the direct solve at any size run so far.  Neither strategy reads the
sparse A, so no run builds it.  `run` steps in work buffers that it and
the direct solver keep, so a step allocates one state-sized array, B x.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import lapack

from . import observables
from .state import StateVector

SOLVE_METHODS = ("direct", "iterative")
# The direct solver's capacitance sweeps stop at this relative residual and
# raise SolverError after this many sweeps.
CAPACITANCE_RTOL = 1e-15
CAPACITANCE_MAX_SWEEPS = 20
# Bits of the channel index that one matrix product of its eigenbasis
# transform covers.
TRANSFORM_CHUNK_BITS = 6
# Krylov dimension of the iterative solver's restart cycle.
GMRES_RESTART = 30


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
    For the iterative method `max_iter` counts restart cycles of
    GMRES_RESTART iterations.
    """

    method: str = "direct"
    rtol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if self.method not in SOLVE_METHODS:
            raise ValueError(f"method must be one of {SOLVE_METHODS}, got {self.method!r}")
        if not 0.0 < self.rtol <= 1e-6:
            raise ValueError(f"rtol must be in (0, 1e-6], got {self.rtol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class _ShiftedTridiagonal:
    """T, the channel-decoupled part of A: one tridiagonal block per channel.

    A channel's block depends on the channel only through its diagonal
    shift, so the channels fall into groups that share one LU factor
    (`zgttrf`).  `order` sorts the channels by group, so that each group is
    one contiguous row slice of the sorted (M, Nx) array.
    """

    def __init__(self, system):
        h = self._h = system.h
        self.factor = 1j * system.dt / (2.0 * system.hbar)
        self.shape = (h.num_channels, h.num_points)
        self.shifts, self.group_of = np.unique(h.channel_shift, return_inverse=True)
        self.order = np.argsort(self.group_of, kind="stable")
        bounds = np.searchsorted(self.group_of[self.order], np.arange(len(self.shifts) + 1))
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.factors = [self.factor_at(shift) for shift in self.shifts]

    def factor_at(self, shift):
        """LU factor of the block with diagonal shift `shift`."""
        h, f = self._h, self.factor
        return _tridiagonal_factor(f * h.lower, 1.0 + f * (h.kin_diag + shift), f * h.upper)

    def solve_sorted(self, r, out):
        """T^-1 r into the flat vector `out`, in channel order; returns `out`.

        `r` holds the (M, Nx) rows in group order and is overwritten.
        """
        for sl, lu in zip(self.slices, self.factors):
            _tridiagonal_solve(lu, r[sl])
        out.reshape(self.shape)[self.order] = r
        return out

    def solve(self, rhs):
        out = np.empty(rhs.shape, dtype=np.complex128)
        return self.solve_sorted(rhs.reshape(self.shape)[self.order], out)  # indexing copies


class CapacitanceSolver:
    """Exact solve of A x = r from tridiagonal solves and a small detector system.

    A = T + E K E^T: T is block diagonal with one tridiagonal block per
    channel, factored once per diagonal shift (`_ShiftedTridiagonal`).  K is
    the spin-flip coupling f (-gamma sigma_y) at each detector point, with
    gamma = h.flip_strength (`DiscreteHamiltonian.flips`), and E selects
    the (channel, detector point) entries.  With v = E^T x, the
    (M, N) values of x at the detector points,

        (I + G K) v = E^T T^-1 r,   G = E^T T^-1 E,
        x = T^-1 (r - E K v).

    G is block diagonal over channels: an N x N block that depends only on
    the channel's group.  If every group had the reference block G0, the
    per-detector eigenvectors (1, +-i)/sqrt(2) of sigma_y would split the
    capacitance system into M independent blocks I + G0 D.  That basis
    change U acts bit by bit on the channel index and is never formed as an
    M x M matrix.  U (I + G0 D)^-1 U^H therefore preconditions a few
    correction sweeps, which absorb the group differences, small
    (dt / 2 hbar) * alpha * N relative.  No sparse factor is formed.
    """

    def __init__(self, system):
        h = system.h
        self._t = t = _ShiftedTridiagonal(system)
        self._r = np.empty(t.shape, dtype=np.complex128)  # rows in group order
        self._coupled = bool(h.flip_strength)
        if not self._coupled:
            return
        det = h.detector_indices
        n = len(det)
        # (M, N) flip coefficients of K and their partners' flat (M, N) entries
        partner, value = h.flips()
        self._k = t.factor * value
        self._partner = (partner * n + np.arange(n)).ravel()
        self._det = det
        self._rows = []  # per group: (band slice, rows of T^-1 at the detectors)
        blocks = []
        for lu in t.factors:
            band, rows = _detector_rows(lu, det)
            self._rows.append((band, rows))
            blocks.append(rows[det - band.start].T)  # G_g[j, k] = T_g^-1[i_j, i_k]
        self._g = np.stack(blocks)[t.group_of]  # (M, N, N)
        # reference block at the middle shift; exact when there is one group
        shifts = t.shifts
        ref = t.factors[0] if len(shifts) == 1 else t.factor_at(0.5 * (shifts[0] + shifts[-1]))
        band, rows = _detector_rows(ref, det)
        g0 = rows[det - band.start].T
        # eigen-label bit j clear: (1, i)/sqrt(2), eigenvalue -gamma of -gamma sigma_y
        sign = np.where(np.arange(h.num_channels)[:, None] & (1 << np.arange(n)), 1.0, -1.0)
        d = t.factor * h.flip_strength * sign
        self._block_inv = np.linalg.inv(np.eye(n) + g0 * d[:, None, :])
        self._transform = _bitwise_transform(n)

    def _apply_k(self, v):
        return self._k * v.ravel()[self._partner].reshape(v.shape)

    def _precondition(self, res):
        y = _apply_bitwise(self._transform, res, adjoint=True)
        y = np.matmul(self._block_inv, y[:, :, None])[:, :, 0]
        return _apply_bitwise(self._transform, y, adjoint=False)

    def _capacitance(self, w):
        """Solve (I + G K) v = w by preconditioned correction sweeps."""
        w_norm = _norm(w)
        v = self._precondition(w)
        for _ in range(CAPACITANCE_MAX_SWEEPS):
            res = w - v - np.matmul(self._g, self._apply_k(v)[:, :, None])[:, :, 0]
            residual = _norm(res) / w_norm if w_norm else _norm(res)
            if residual <= CAPACITANCE_RTOL:
                return v
            if not np.isfinite(residual):
                break
            v += self._precondition(res)
        raise SolverError(
            f"detector capacitance solve stopped at relative residual {residual:.3e} "
            f"(target {CAPACITANCE_RTOL:g} within {CAPACITANCE_MAX_SWEEPS} sweeps)",
            residual=residual,
        )

    def solve(self, rhs, x0=None, out=None):
        """A^-1 rhs into `out` (a new array when None); `x0` is not used."""
        t = self._t
        # mode="clip" skips the bounds check that makes "raise" buffer the gather
        r = np.take(rhs.reshape(t.shape), t.order, axis=0, out=self._r, mode="clip")
        if self._coupled:
            w = np.empty((len(r), len(self._det)), dtype=np.complex128)
            # a non-finite rhs turns w NaN quietly; the capacitance residual
            # then raises SolverError
            with np.errstate(invalid="ignore"):
                for sl, (band, rows) in zip(t.slices, self._rows):
                    w[t.order[sl]] = r[sl, band] @ rows
            kv = self._apply_k(self._capacitance(w))
            r[:, self._det] -= kv[t.order]
        return t.solve_sorted(r, np.empty(rhs.shape, dtype=np.complex128) if out is None else out)


class BlockPreconditionedSolver:
    """GMRES on A, preconditioned by T, the channel-decoupled tridiagonal solves.

    A is applied as 2x - B x, exact because A + B = 2I, so no sparse A is
    built.
    """

    def __init__(self, system, config):
        self._config = config
        b = system.b
        shape = (system.dim, system.dim)
        self._a = sparse_linalg.LinearOperator(
            shape, matvec=lambda x: 2.0 * x - b @ x, dtype=np.complex128
        )
        self._precondition = sparse_linalg.LinearOperator(
            shape, matvec=_ShiftedTridiagonal(system).solve, dtype=np.complex128
        )

    def solve(self, rhs, x0=None, out=None):
        """A^-1 rhs from the guess x0, copied into `out` when one is given."""
        x, info = sparse_linalg.gmres(
            self._a,
            rhs,
            x0=x0,
            rtol=self._config.rtol,
            atol=0.0,
            restart=GMRES_RESTART,
            maxiter=self._config.max_iter,
            M=self._precondition,
        )
        if info != 0:
            residual = _norm(self._a @ x - rhs) / _norm(rhs)
            raise SolverError(
                f"GMRES did not converge within {self._config.max_iter} restarts "
                f"(relative residual {residual:.3e})",
                residual=residual,
            )
        if out is not None:
            out[...] = x
        return x if out is None else out


def _tridiagonal_factor(lower, diag, upper):
    dl, d, du, du2, ipiv, info = lapack.zgttrf(lower, diag, upper)
    if info != 0:
        raise SolverError(f"tridiagonal block is singular (zgttrf info {info})")
    return dl, d, du, du2, ipiv


def _tridiagonal_solve(lu, rows, trans="N"):
    """Solve for each row of the C-ordered (k, Nx) array `rows`, in place; k >= 1.

    Its transpose is the Fortran-ordered right-hand side LAPACK overwrites.
    """
    x, info = lapack.zgttrs(*lu, rows.T, trans=trans, overwrite_b=True)
    if info != 0:
        raise SolverError(f"zgttrs argument {-info} is invalid")
    if not np.shares_memory(x, rows):
        rows[...] = x.T


def _detector_rows(lu, det):
    """Rows of T^-1 at the detector points, transposed and band-limited.

    Returns (band, y) with y[i, j] = T^-1[det[j], band.start + i].  Each row
    decays geometrically away from its detector; entries below machine
    epsilon of the row's peak are set to zero, because further out they
    underflow to subnormals that slow every product with them, and the band
    is cut to the span that keeps a nonzero entry.
    """
    y = np.zeros((len(det), len(lu[1])), dtype=np.complex128)
    y[np.arange(len(det)), det] = 1.0
    _tridiagonal_solve(lu, y, trans="T")
    mag = np.abs(y)
    y[mag < np.finfo(float).eps * mag.max(axis=1, keepdims=True)] = 0.0
    kept = np.flatnonzero(np.any(y != 0.0, axis=0))
    band = slice(kept[0], kept[-1] + 1)
    return band, np.ascontiguousarray(y[:, band].T)


def _bitwise_transform(num_bits):
    """The product of the 2 x 2 maps u = [[1, 1], [i, -i]] / sqrt(2) over all bits.

    Stored as (lo, c, kron of c copies of u, its adjoint) per chunk of at
    most TRANSFORM_CHUNK_BITS bits starting at bit lo.
    """
    u = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
    chunks = []
    for lo in range(0, num_bits, TRANSFORM_CHUNK_BITS):
        c = min(TRANSFORM_CHUNK_BITS, num_bits - lo)
        mat = functools.reduce(np.kron, [u] * c)
        chunks.append((lo, c, mat, mat.conj().T))
    return chunks


def _apply_bitwise(chunks, v, adjoint):
    """Apply the bitwise transform (or its adjoint) along the channel axis of (M, N) v."""
    m, n = v.shape
    for lo, c, mat, mat_h in chunks:
        op = mat_h if adjoint else mat
        v = (op @ v.reshape(m >> (lo + c), 1 << c, (1 << lo) * n)).reshape(m, n)
    return v


def make_linear_solver(system, config):
    if config.method == "direct":
        return CapacitanceSolver(system)
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


def _advance(linear_solver, b_matrix, rhs, x, r, rtol):
    """Solve A x = rhs into x, which holds the current state (the iterative
    solve's starting guess), and return (B x, relative residual).

    Because A + B = 2I exactly, A x = 2x - B x, formed in the work array r:
    the residual check reuses the B x that is the next step's right-hand side.
    """
    linear_solver.solve(rhs, x0=x, out=x)
    bx = b_matrix @ x
    np.multiply(x, 2.0, out=r)
    r -= bx
    r -= rhs
    return bx, _check_residual(r, rhs, rtol)


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
    x = flat.copy()
    _advance(solver, system.b, system.b @ flat, x, np.empty_like(x), config.rtol)
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

    x = initial.values.ravel().copy()  # the state, advanced in place
    work = np.empty_like(x)
    bx = system.b @ x
    record(0, initial, bx)
    # Accuracy (not stability) guard: compare dt against the phase period of
    # the occupied modes, 2 hbar / |<H>|.  The operator norm would be the grid
    # cutoff energy and would flag every well-resolved run.
    if energy[0] != 0.0 and abs(system.dt) > 2.0 * system.hbar / abs(energy[0]):
        warnings.warn(
            f"dt={system.dt:g} exceeds 2*hbar/|<H>|~{2.0 * system.hbar / abs(energy[0]):g}; "
            "the scheme stays stable but phases will be inaccurate"
        )
    solver = make_linear_solver(system, config)
    worst = 0.0
    for k in range(1, num_steps + 1):
        try:
            bx, residual = _advance(solver, system.b, bx, x, work, config.rtol)
        except SolverError as err:
            raise SolverError(f"step {k}: {err}", residual=err.residual) from err
        worst = max(worst, residual)
        state = StateVector(x.reshape(shape), dx)
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
