"""Time integration: one linear solve per Crank-Nicolson step.

The implicit operator A is constant in time.  `CapacitanceSolver` factors
its tridiagonal channel blocks once and solves the small detector system
on every step by one preconditioned minimal-residual iteration.  It
forms no sparse factor and does not read the sparse A, so no run builds
it.  `run` steps in work buffers that it keeps, so a step allocates one array
the size of the stored state, B x.

`run` stores one channel per orbit {m, images[m]} (`_Orbits`), in the
solver's group order, and writes B over those rows only.  When H and the
initial state are both even under the mirror map
P = (x -> -x) x (detector j <-> N-1-j), every state of the run is too:
psi(mirror m, x) = psi(m, -x).  The orbits are then the mirror pairs,
136 of the 256 channels at N = 8, and the other channel of a pair is read
from its stored image, reversed in x.  Any other input takes the same
path with one-channel orbits.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import observables
from .assembly import _identity_plus
from .spinspace import mirrors
from .state import StateVector

# The detector-system iteration stops at this relative residual, and forgets
# its search directions after every CAPACITANCE_RESTART iterations.
CAPACITANCE_RTOL = 1e-15
CAPACITANCE_RESTART = 30
# Bits of the channel index that one matrix product of its eigenbasis
# transform covers.
TRANSFORM_CHUNK_BITS = 6


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
    `max_iter` counts the restart cycles, of CAPACITANCE_RESTART iterations
    each, that the minimal-residual iteration may spend on one step's
    detector system.
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
    size (dt / 2 hbar) * alpha * N.  GCR, a minimal-residual Krylov
    iteration on the preconditioned system, absorbs them: two iterations at
    the preset, and a few tens when alpha is large next to the flip
    coupling, restarting every CAPACITANCE_RESTART iterations.  `iterations`
    holds the iterations of the last solve.  No sparse factor is formed.
    """

    def __init__(self, system, config):
        h = system.h
        f = 1j * system.dt / (2.0 * system.hbar)
        lower, upper = f * h.lower, f * h.upper
        shifts, group_of = np.unique(h.channel_shift, return_inverse=True)
        self._group_of = group_of
        self._every = self.orbits(np.arange(h.num_channels))  # one-channel orbits, for `solve`
        self._factors = [
            _tridiagonal_factor(lower, 1.0 + f * (h.kin_diag + shift), upper) for shift in shifts
        ]
        self._coupled = bool(h.flip_strength)
        self._max_iter = config.max_iter
        self.iterations = 0
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

    def _minimal_residual(self, w, w_norm):
        """Solve (I + G K) v = w by GCR, from v = 0.

        Each new pair z = P r, q = (I + G K) z is orthonormalized against the cycle's q.
        """
        v = np.zeros_like(w)
        if not w_norm:
            return v
        r = w.copy()
        for k in range(self._max_iter * CAPACITANCE_RESTART):
            if k % CAPACITANCE_RESTART == 0:
                zs, qs = [], []  # a new restart cycle
            z = self._precondition(r)
            q = z + self._gk(z)
            for zi, qi in zip(zs, qs):
                c = np.vdot(qi, q)
                q -= c * qi
                z -= c * zi
            q_norm = _norm(q)
            q /= q_norm
            z /= q_norm
            a = np.vdot(q, r)
            v += a * z
            r -= a * q
            self.iterations += 1
            residual = _norm(r) / w_norm
            if residual <= CAPACITANCE_RTOL:
                return v
            if not np.isfinite(residual):
                break
            zs.append(z)
            qs.append(q)
        raise SolverError(
            f"detector capacitance solve stopped at relative residual {residual:.3e} (target "
            f"{CAPACITANCE_RTOL:g} within {self._max_iter} restarts of {CAPACITANCE_RESTART})",
            residual=residual,
        )

    def _solve_grouped(self, r, orbits):
        """Overwrite the stored rows `r` of `orbits` with A^-1 r.

        The detector values of an unstored channel are its image's,
        reversed: each block T_g is reversal-symmetric, so
        (T_g^-1 J r)[i_j] = (T_g^-1 r)[i_(N-1-j)].
        """
        self.iterations = 0
        channels = orbits.channels
        if self._coupled:
            w = np.empty((len(self._g), len(self._det)), dtype=np.complex128)
            # a non-finite rhs turns w NaN quietly; its norm then raises
            # SolverError before the iteration runs
            with np.errstate(invalid="ignore"):
                for sl, (band, rows) in zip(orbits.slices, self._rows):
                    w[channels[sl]] = r[sl, band] @ rows
            orbits.fill(w)
            w_norm = _norm(w)
            if not np.isfinite(w_norm):
                raise SolverError(f"right-hand side is not finite at the detectors (norm {w_norm})")
            v = self._minimal_residual(w, w_norm)
            r[:, self._det] -= self._apply_k(v)[channels]
        for sl, lu in zip(orbits.slices, self._factors):
            _tridiagonal_solve(lu, r[sl])

    def solve(self, rhs, x0=None, out=None):
        """A^-1 rhs into `out` (a new array when None), both in natural order; `x0` is not used."""
        channels = self._every.channels
        r = rhs.reshape(len(channels), -1)[channels]  # a new array, in group order
        self._solve_grouped(r, self._every)
        out = np.empty(rhs.shape, dtype=np.complex128) if out is None else out
        out.reshape(r.shape)[channels] = r
        return out

    def orbits(self, images):
        """The `_Orbits` of the mirror images `images` (each channel's), in this solver's groups."""
        return _Orbits(images, self._group_of)

    def solve_stored(self, rhs, orbits, out):
        """A^-1 rhs into `out`, both holding the stored rows of `orbits` in their group order.

        The rows are solved in place, with no gather or scatter.
        """
        r = out.reshape(len(orbits.channels), -1)
        np.copyto(r, rhs.reshape(r.shape))
        self._solve_grouped(r, orbits)
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


class _Orbits:
    """The rows `run` stores: one channel per orbit {m, images[m]} of the mirror map.

    Row s holds channel `channels[s]`, the smaller one of its orbit, and
    channel m's values are row `slot[m]`: reversed in x for the `unstored`
    channels (`reflected[m]`), whose stored images are `images`.  The rows
    are sorted by the solver's group (stably, so by channel within a
    group), and group g holds rows `slices[g]`.  `weights[s]` is the size of row s's orbit, 2
    for a pair and 1 for a palindrome, so a sum over all channels is a
    weighted sum over the rows.  With one-channel orbits (`images[m] == m`)
    every channel is stored, with weight 1, and none is unstored.
    """

    def __init__(self, images, group_of):
        m = len(images)
        smaller = np.minimum(np.arange(m), images)
        stored = np.flatnonzero(smaller == np.arange(m))
        self.channels = stored[np.argsort(group_of[stored], kind="stable")]
        self.weights = np.where(images[self.channels] == self.channels, 1.0, 2.0)
        bounds = np.searchsorted(group_of[self.channels], np.arange(group_of.max() + 2))
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        row = np.empty(m, dtype=np.int64)
        row[self.channels] = np.arange(len(self.channels))
        self.slot = row[smaller]
        self.reflected = smaller != np.arange(m)
        self.unstored = np.flatnonzero(self.reflected)
        self.images = smaller[self.unstored]

    def fill(self, values):
        """Set the unstored rows of the natural-order (M, k) `values` to their images', reversed."""
        values[self.unstored] = values[self.images, ::-1]

    def expand(self, rows):
        """The natural-order (M, Nx) state of the stored (S, Nx) `rows`, as a new array."""
        values = np.empty((len(self.slot), rows.shape[1]), dtype=rows.dtype)
        values[self.channels] = rows
        self.fill(values)
        return values


def _mirror_images(h, values):
    """Each channel's image under the mirror map when it leaves the run unchanged, else each channel.

    The map P = (x -> -x) x (detector j <-> N-1-j) sends channel m to
    mirror(m).  It leaves H unchanged when the detector indices, the
    kinetic diagonal, the bands and the spin energies are mirror-symmetric,
    bit for bit, and the initial state `values` when psi0(mirror m) is
    psi0(m) reversed, bit for bit (a NaN never is).
    """
    m, nx = values.shape
    det = h.detector_indices
    if not len(det) or m != 1 << len(det):
        return np.arange(m)
    images = mirrors(len(det))
    symmetric = (
        np.array_equal(det[::-1], nx - 1 - det)
        and np.array_equal(h.kin_diag, h.kin_diag[::-1])
        and np.array_equal(h.upper, h.lower[::-1])
        and np.array_equal(h.channel_shift[images], h.channel_shift)
        and all(np.array_equal(values[images[k]], values[k, ::-1]) for k in range(m) if images[k] >= k)
    )
    return images if symmetric else np.arange(m)


def _dot(a, b, weights):
    """sum_s weights[s] <a_s, b_s> over the rows a_s of a and b."""
    rows = (len(weights), -1)
    # an inf entry gives inf * 0 terms: the sum turns NaN quietly, and the
    # step's finiteness checks reject the state
    with np.errstate(invalid="ignore"):
        return weights @ np.vecdot(a.reshape(rows), b.reshape(rows))


def _norm(v):
    # BLAS dot: elementwise products are several times slower on values
    # whose squares underflow to subnormals
    return np.sqrt(np.vdot(v, v).real)


def _weighted_norm(v, weights):
    """sqrt(sum_s weights[s] ||v_s||^2) over the rows v_s of v."""
    re_im = v.reshape(len(weights), -1).view(v.real.dtype)
    return np.sqrt(weights @ np.vecdot(re_im, re_im))


def _check_residual(r, rhs_norm, rtol, weights):
    """Relative residual ||r|| / ||rhs|| of r = +-(A x - rhs), raising SolverError above rtol.

    r holds stored rows and its norm is their weighted sum, which covers
    every channel, as `rhs_norm` must.  A non-finite entry in x or rhs
    makes the residual NaN or inf, which the negated comparison rejects,
    so this is also the finiteness check.  A zero right-hand side falls
    back to the absolute residual.
    """
    residual = float(_weighted_norm(r, weights) / (rhs_norm if rhs_norm != 0.0 else 1.0))
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
    `max_step_residual` is the largest relative residual of any step,
    `capacitance_iterations` (length num_steps) holds each step's detector
    solve iterations (`CapacitanceSolver.iterations`), and `stored_channels`
    counts the channels the run evolved (one per mirror orbit, or all 2^N);
    all three are None when the record was not produced by `run`.
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
    stored_channels: int | None = None


def run(system, initial, num_steps, config=None, sides=None):
    """Advance `num_steps` Crank-Nicolson steps, recording diagnostics.

    Each step costs one linear solve and one B-matvec: the product B x is
    the next right-hand side, and it also yields the residual check
    (A x = 2x - B x) and the energy (B = I - i f H with f = dt / 2 hbar, so
    Re <x, H x> = -Im <x, B x> / f).

    The run stores one channel per orbit, in the solver's group order, and
    steps with a B written over those rows only (`_identity_plus` on the
    orbits): each row keeps B's entries in B's order, so it sums them as B
    does, and no natural-order B is built; `system.b` stays unread.  When H
    and `initial` are mirror-symmetric (`_mirror_images`) the orbits are
    the mirror pairs; any other input has one-channel orbits and stores
    every channel.  The norm, the energy and the residual are sums over
    the rows weighted by their orbits' sizes, so they cover every channel.

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
    RunRecord, whose final state holds every channel in natural order.
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
    solver = make_linear_solver(system, config)
    orbits = solver.orbits(_mirror_images(system.h, initial.values))
    weights = orbits.weights
    b = _identity_plus(system.h, -1j * system.dt / (2.0 * system.hbar), layout=orbits)
    rows = initial.values[orbits.channels]  # the stored state, advanced in place
    x = rows.ravel()
    state = StateVector(rows, dx)

    def record(k, bx):
        probs = observables.channel_probs(state, t=times[k]).probs[orbits.slot]
        norm2[k] = probs.sum()
        energy[k] = energy_scale * _dot(x, bx, weights).imag
        if classes is not None:
            classes[k] = observables.class_sums(probs, tags)

    bx = b @ x
    record(0, bx)
    # Accuracy (not stability) guard: compare dt against the phase period of
    # the occupied modes, 2 hbar / |<H>|.  The operator norm would be the grid
    # cutoff energy and would flag every well-resolved run.
    if energy[0] != 0.0 and abs(system.dt) > 2.0 * system.hbar / abs(energy[0]):
        warnings.warn(
            f"dt={system.dt:g} exceeds 2*hbar/|<H>|~{2.0 * system.hbar / abs(energy[0]):g}; "
            "the scheme stays stable but phases will be inaccurate"
        )
    worst = 0.0
    iterations = np.empty(num_steps, dtype=np.int64)
    for k in range(1, num_steps + 1):
        rhs = bx
        try:
            solver.solve_stored(rhs, orbits, out=x)
            bx = b @ x
            # A x = 2x - B x because A + B = 2I exactly, so the residual check
            # reuses the B x that is the next step's right-hand side; the
            # residual's negative overwrites rhs, which the step is done with
            rhs_norm = _weighted_norm(rhs, weights)
            rhs += bx
            rhs -= x
            rhs -= x
            worst = max(worst, _check_residual(rhs, rhs_norm, config.rtol, weights))
        except SolverError as err:
            raise SolverError(f"step {k}: {err}", residual=err.residual) from err
        iterations[k - 1] = solver.iterations
        record(k, bx)
    del b, rhs, bx  # the stepping buffers go before the full final state is built
    return RunRecord(
        times=times,
        norm2=norm2,
        energy=energy,
        unchanged=classes[:, 0] if classes is not None else None,
        one_spin=classes[:, 1] if classes is not None else None,
        left_track=classes[:, 2] if classes is not None else None,
        right_track=classes[:, 3] if classes is not None else None,
        multi_track=classes[:, 4] if classes is not None else None,
        final_state=StateVector(orbits.expand(rows), dx),
        max_step_residual=worst,
        capacitance_iterations=iterations,
        stored_channels=len(orbits.channels),
    )
