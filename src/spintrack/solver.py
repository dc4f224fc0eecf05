"""Time integration: one linear solve per Crank-Nicolson step.

The implicit operator A is constant in time.  `CapacitanceSolver` factors
its tridiagonal channel blocks once and solves the small detector system
on every step, by correction sweeps or, once they stall, by GMRES.  It
forms no sparse factor and does not read the sparse A, so no run builds
it.  `run` steps in work buffers that it and the solver keep, so a step
allocates one state-sized array, B x.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import lapack

from . import observables
from .state import StateVector

# The capacitance sweeps stop at this relative residual and hand the
# detector system to GMRES when they have not reached it after this many.
CAPACITANCE_RTOL = 1e-15
CAPACITANCE_MAX_SWEEPS = 20
# Bits of the channel index that one matrix product of its eigenbasis
# transform covers.
TRANSFORM_CHUNK_BITS = 6
# Krylov dimension of the GMRES capacitance solve's restart cycle.
GMRES_RESTART = 30


class SolverError(RuntimeError):
    """Linear solve failed or produced non-finite values."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveConfig:
    """Linear-solve tolerances.

    `rtol` bounds the relative residual of every step; the default keeps the
    per-step norm drift far below the run-level conservation guarantees.
    `max_iter` counts the restart cycles, of GMRES_RESTART iterations each,
    that GMRES may spend on one step's detector system once the correction
    sweeps have handed it over.
    """

    rtol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.rtol <= 1e-6:
            raise ValueError(f"rtol must be in (0, 1e-6], got {self.rtol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class CapacitanceSolver:
    """Exact solve of A x = r from tridiagonal solves and a small detector system.

    A = T + E K E^T: T is block diagonal with one tridiagonal block per
    channel.  A channel's block depends on the channel only through its
    diagonal shift, so the channels fall into groups that share one LU
    factor (`zgttrf`); the solve sorts the channels by group, so that each
    group is one contiguous row slice of the sorted (M, Nx) array.  K is
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
    M x M matrix.  U (I + G0 D)^-1 U^H therefore preconditions the
    capacitance solve, which must absorb the group differences, of relative
    size (dt / 2 hbar) * alpha * N.  A few correction sweeps absorb them.
    When they do not reach CAPACITANCE_RTOL within CAPACITANCE_MAX_SWEEPS
    (they slow down as alpha grows next to the flip coupling) or turn
    non-finite, GMRES with the same preconditioner solves that step's
    system and, with `gmres` set, every later one: the operator is the same
    on every step.  `iterations` holds the sweeps plus GMRES iterations of
    the last solve.  No sparse factor is formed.
    """

    def __init__(self, system, config):
        h = system.h
        f = 1j * system.dt / (2.0 * system.hbar)
        lower, upper = f * h.lower, f * h.upper
        shifts, group_of = np.unique(h.channel_shift, return_inverse=True)
        self._order = np.argsort(group_of, kind="stable")
        bounds = np.searchsorted(group_of[self._order], np.arange(len(shifts) + 1))
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._factors = [
            _tridiagonal_factor(lower, 1.0 + f * (h.kin_diag + shift), upper) for shift in shifts
        ]
        self._r = np.empty((h.num_channels, h.num_points), dtype=np.complex128)  # group order
        self._coupled = bool(h.flip_strength)
        self._max_iter = config.max_iter
        self.iterations = 0
        self.gmres = False
        if not self._coupled:
            return
        det = h.detector_indices
        n = len(det)
        # (M, N) flip coefficients of K and their partners' flat (M, N) entries
        partner, value = h.flips()
        self._k = f * value
        self._partner = (partner * n + np.arange(n)).ravel()
        self._det = det
        # per group: (band slice, rows of T^-1 at the detectors) and the
        # block G_g[j, k] = T_g^-1[i_j, i_k]
        self._rows = [_detector_rows(lu, det) for lu in self._factors]
        blocks = [rows[det - band.start].T for band, rows in self._rows]
        self._g = np.stack(blocks)[group_of]  # (M, N, N)
        # reference block: the middle group's, whose shift is 0 at every even N
        g0 = blocks[len(blocks) // 2]
        d = 1j * self._k  # the eigenvalues f gamma sigma_j of each detector's flip coupling
        self._block_inv = np.linalg.inv(np.eye(n) + g0 * d[:, None, :])
        self._transform = _bitwise_transform(n)

    def _apply_k(self, v):
        return self._k * v.ravel()[self._partner].reshape(v.shape)

    def _gk(self, v):
        return np.matmul(self._g, self._apply_k(v)[:, :, None])[:, :, 0]

    def _precondition(self, res):
        y = _apply_bitwise(self._transform, res, adjoint=True)
        y = np.matmul(self._block_inv, y[:, :, None])[:, :, 0]
        return _apply_bitwise(self._transform, y, adjoint=False)

    def _sweeps(self, w, w_norm):
        """Solve (I + G K) v = w by preconditioned correction sweeps; None if they stall."""
        v = self._precondition(w)
        for _ in range(CAPACITANCE_MAX_SWEEPS):
            res = w - v - self._gk(v)
            residual = _norm(res) / w_norm if w_norm else _norm(res)
            if residual <= CAPACITANCE_RTOL:
                return v
            if not np.isfinite(residual):
                break
            v += self._precondition(res)
            self.iterations += 1
        return None

    def _gmres(self, w, w_norm):
        """Solve (I + G K) v = w by GMRES with the sweeps' preconditioner."""
        iterations = []  # one entry per GMRES iteration
        # built per call: operators kept on self would close a reference
        # cycle, which holds every dropped solver's buffers until a collection
        size = (w.size, w.size)
        operator = sparse_linalg.LinearOperator(
            size, matvec=lambda v: v + self._gk(v.reshape(w.shape)).ravel(), dtype=w.dtype
        )
        preconditioner = sparse_linalg.LinearOperator(
            size, matvec=lambda v: self._precondition(v.reshape(w.shape)).ravel(), dtype=w.dtype
        )
        v, info = sparse_linalg.gmres(
            operator, w.ravel(), rtol=CAPACITANCE_RTOL, atol=0.0, restart=GMRES_RESTART,
            maxiter=self._max_iter, M=preconditioner,
            callback=iterations.append, callback_type="pr_norm",
        )
        v = v.reshape(w.shape)
        self.iterations += len(iterations)
        if info == 0:
            return v
        residual = _norm(w - v - self._gk(v)) / w_norm
        raise SolverError(
            f"detector capacitance GMRES stopped at relative residual {residual:.3e} (target "
            f"{CAPACITANCE_RTOL:g} within {self._max_iter} restarts of {GMRES_RESTART})",
            residual=residual,
        )

    def solve(self, rhs, x0=None, out=None):
        """A^-1 rhs into `out` (a new array when None); `x0` is not used."""
        order, r = self._order, self._r
        # mode="clip" skips the bounds check that makes "raise" buffer the gather
        np.take(rhs.reshape(r.shape), order, axis=0, out=r, mode="clip")
        self.iterations = 0
        if self._coupled:
            w = np.empty((len(r), len(self._det)), dtype=np.complex128)
            # a non-finite rhs turns w NaN quietly; its norm then raises
            # SolverError before either solve runs, so `gmres` stays as it was
            with np.errstate(invalid="ignore"):
                for sl, (band, rows) in zip(self._slices, self._rows):
                    w[order[sl]] = r[sl, band] @ rows
            w_norm = _norm(w)
            if not np.isfinite(w_norm):
                raise SolverError(f"right-hand side is not finite at the detectors (norm {w_norm})")
            v = None if self.gmres else self._sweeps(w, w_norm)
            if v is None:  # the sweeps stalled, on this step or an earlier one
                self.gmres = True
                v = self._gmres(w, w_norm)
            r[:, self._det] -= self._apply_k(v)[order]
        for sl, lu in zip(self._slices, self._factors):
            _tridiagonal_solve(lu, r[sl])
        out = np.empty(rhs.shape, dtype=np.complex128) if out is None else out
        out.reshape(r.shape)[order] = r
        return out


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
    keep = mag >= np.finfo(float).eps * mag.max(axis=1, keepdims=True)
    kept = np.flatnonzero(keep.any(axis=0))
    band = slice(kept[0], kept[-1] + 1)
    rows = np.ascontiguousarray(y[:, band].T)
    np.copyto(rows, 0.0, where=~keep[:, band].T)
    return band, rows


def _bitwise_transform(num_bits):
    """The product of the 2 x 2 maps u = [[1, 1], [i, -i]] / sqrt(2) over all bits.

    Stored as (lo, c, kron of c copies of u, its adjoint) per chunk of at
    most TRANSFORM_CHUNK_BITS bits starting at bit lo.
    """
    u = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
    chunks = []
    for lo in range(0, num_bits, TRANSFORM_CHUNK_BITS):
        c = min(TRANSFORM_CHUNK_BITS, num_bits - lo)
        mat = u
        for _ in range(c - 1):  # kron(mat, u) as a broadcast outer product
            mat = (mat[:, None, :, None] * u[:, None, :]).reshape(2 * len(mat), -1)
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
    return CapacitanceSolver(system, config)


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


@dataclass(eq=False)
class RunRecord:
    """Per-step diagnostic series plus the final state.

    All series have length num_steps + 1 and include t = 0.  The class
    probability series are None when the run was not given side labels.
    `max_step_residual` is the largest relative residual of any step, and
    `capacitance_iterations` (length num_steps) holds each step's detector
    solve iterations (`CapacitanceSolver.iterations`); both are None when
    the record was not produced by `run`.  `gmres_from_step` is the first
    step whose detector system GMRES solved, None when the sweeps held on
    every step.
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
    capacitance_iterations: np.ndarray | None = None
    gmres_from_step: int | None = None


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
    shape = (system.h.num_channels, system.h.num_points)
    if initial.values.shape != shape:
        raise ValueError(f"state shape {initial.values.shape} does not match system {shape}")
    tags = observables.class_tags(sides, shape[0]) if sides is not None else None
    dx = initial.dx
    energy_scale = -dx * 2.0 * system.hbar / system.dt
    times = system.dt * np.arange(num_steps + 1)
    norm2 = np.empty(num_steps + 1)
    energy = np.empty(num_steps + 1)
    classes = np.empty((num_steps + 1, 5)) if tags is not None else None
    x = initial.values.ravel().copy()  # the state, advanced in place
    state = StateVector(x.reshape(shape), dx)

    def record(k, bx):
        probs = observables.channel_probs(state, t=times[k]).probs
        norm2[k] = probs.sum()
        energy[k] = energy_scale * np.vdot(state.values, bx).imag
        if classes is not None:
            classes[k] = observables.class_sums(probs, tags)

    r = np.empty_like(x)
    bx = system.b @ x
    record(0, bx)
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
    iterations = np.empty(num_steps, dtype=np.int64)
    gmres_from_step = None
    for k in range(1, num_steps + 1):
        rhs = bx
        try:
            solver.solve(rhs, out=x)
            bx = system.b @ x
            # A x = 2x - B x because A + B = 2I exactly, so the residual check
            # reuses the B x that is the next step's right-hand side
            np.multiply(x, 2.0, out=r)
            r -= bx
            r -= rhs
            worst = max(worst, _check_residual(r, rhs, config.rtol))
        except SolverError as err:
            raise SolverError(f"step {k}: {err}", residual=err.residual) from err
        iterations[k - 1] = solver.iterations
        if solver.gmres and gmres_from_step is None:
            gmres_from_step = k
        record(k, bx)
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
        capacitance_iterations=iterations,
        gmres_from_step=gmres_from_step,
    )
