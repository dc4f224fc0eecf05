"""Time integration: one linear solve per Crank-Nicolson step.

The implicit operator A is constant in time.  `CapacitanceSolver` factors
its tridiagonal channel blocks once and solves the small detector system
on every step by one preconditioned minimal-residual iteration.  It
forms no sparse factor and does not read the sparse A, so no run builds
it.  `run` steps in work buffers that it keeps, and applies B from one
tridiagonal band set per solver group (`_StoredB`, through LAPACK's
`zlagtm`), so a step allocates no array the size of the stored state.
A step's tridiagonal solves and band products release the GIL; on a
large enough state `run` splits them between the calling thread and one
worker thread pinned to another CPU (`_Worker`), with bit-identical
results.

`run` stores one channel per orbit {m, images[m]} (`_Orbits`), in the
solver's group order, and applies B to those rows only.  When H and the
initial state are both even under the mirror map
P = (x -> -x) x (detector j <-> N-1-j), every state of the run is too:
psi(mirror m, x) = psi(m, -x).  The orbits are then the mirror pairs,
136 of the 256 channels at N = 8, and the other channel of a pair is read
from its stored image, reversed in x.  Any other input takes the same
path with one-channel orbits.
"""

import ctypes
import os
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import blas, cython_lapack, lapack

from . import observables
from .assembly import cn_bands, detector_entries
from .model import ConfigurationError
from .spinspace import SideAssignment, classify_all, mirrors
from .state import StateVector

# The detector-system iteration stops at this relative residual, and forgets
# its search directions after every CAPACITANCE_RESTART iterations.
CAPACITANCE_RTOL = 1e-15
CAPACITANCE_RESTART = 30
# Bits of the channel index that one matrix product of its eigenbasis
# transform covers.
TRANSFORM_CHUNK_BITS = 6
# Rounds of iterative refinement a step may spend on a residual above rtol,
# and the fraction of its starting residual that a round must get below.
REFINEMENT_ROUNDS = 2
REFINEMENT_CONTRACTION = 1e-2
# The smallest stored state, in rows times grid points, that `run` steps on
# two threads: below it the hand-off to the second thread costs more than
# the thread saves.
TWO_THREAD_MIN_VALUES = 20_000


class SolverError(RuntimeError):
    """Linear solve failed or produced non-finite values.

    `notes` are the notes the run had made when its step failed (`RunRecord.notes`).
    """

    def __init__(self, message, residual=None, notes=()):
        super().__init__(message)
        self.residual = residual
        self.notes = list(notes)


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
            raise ConfigurationError(f"rtol must be in (0, 1e-6], got {self.rtol}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")


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
    coupling, restarting every CAPACITANCE_RESTART iterations.  `correct`
    returns the iterations of its solve.  No sparse factor is formed.
    """

    def __init__(self, system, config):
        h = system.h
        f = 1j * system.dt / (2.0 * system.hbar)
        self._group_of, bands = cn_bands(h, f)  # A's blocks, exactly as `system.a` holds them
        self._factors = [_tridiagonal_factor(*band) for band in bands]
        self._coupled = bool(h.flip_strength)
        self._max_iter = config.max_iter
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
        self._g = np.stack(blocks)[self._group_of]  # (M, N, N)
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
        """Solve (I + G K) v = w by GCR, from v = 0; returns (v, iterations).

        Each new pair z = P r, q = (I + G K) z is orthonormalized against the cycle's q.
        """
        v = np.zeros_like(w)
        if not w_norm:
            return v, 0
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
            residual = _norm(r) / w_norm
            if residual <= CAPACITANCE_RTOL:
                return v, k + 1
            if not np.isfinite(residual):
                break
            zs.append(z)
            qs.append(q)
        raise SolverError(
            f"detector capacitance solve stopped at relative residual {residual:.3e} (target "
            f"{CAPACITANCE_RTOL:g} within {self._max_iter} restarts of {CAPACITANCE_RESTART})",
            residual=residual,
        )

    def correct(self, r, orbits):
        """Overwrite the stored rows `r` of `orbits` with r - E K v, the detector part of A^-1 r.

        Returns the GCR iterations of the detector solve (0 without flip
        coupling); `solve_rows` over every row of `r` then completes
        A^-1 r.  The detector values of an unstored channel are its
        image's, reversed: each block T_g is reversal-symmetric, so
        (T_g^-1 J r)[i_j] = (T_g^-1 r)[i_(N-1-j)].
        """
        if not self._coupled:
            return 0
        channels = orbits.channels
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
        v, iterations = self._minimal_residual(w, w_norm)
        r[:, self._det] -= self._apply_k(v)[channels]
        return iterations

    def solve_rows(self, r, segments):
        """Overwrite the rows of `segments`, (group, row slice) pairs, of `r` with T^-1 r.

        Releases the GIL in LAPACK, so two threads may solve disjoint segments at once.
        """
        for group, sl in segments:
            _tridiagonal_solve(self._factors[group], r[sl])

    def solve(self, rhs, x0=None):
        """A^-1 rhs as a new array, both in natural order; `x0` is not used."""
        every = self.orbits(np.arange(len(self._group_of)))  # one-channel orbits
        r = rhs.reshape(len(every.channels), -1)[every.channels]  # a new array, in group order
        self.correct(r, every)
        self.solve_rows(r, every.segments(0, len(r)))
        return every.expand(r).reshape(rhs.shape)

    def orbits(self, images):
        """The `_Orbits` of the mirror images `images` (each channel's), in this solver's groups."""
        return _Orbits(images, self._group_of)


# the name the package exports and `run` builds its solver by, so a test can substitute it
make_linear_solver = CapacitanceSolver


def _cython_lapack(name, *argtypes):
    """LAPACK routine `name` from scipy's public Cython LAPACK table, as a ctypes function.

    ctypes releases the GIL for the length of each call.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
_INT, _REAL, _ADDRESS = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
# zlagtm(trans, n, nrhs, alpha, dl, d, du, x, ldx, beta, b, ldb): b = alpha T x + beta b for
# a tridiagonal T; alpha and beta are real and 0 or +-1.  f2py's scipy.linalg.lapack has no zlagtm.
_zlagtm = _cython_lapack(
    "zlagtm", ctypes.c_char_p, _INT, _INT, _REAL, _ADDRESS, _ADDRESS, _ADDRESS, _ADDRESS, _INT, _REAL, _ADDRESS, _INT
)
_ONE, _ZERO = ctypes.c_double(1.0), ctypes.c_double(0.0)


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
        bounds = np.searchsorted(group_of[self.channels], np.arange(group_of.max() + 2)).tolist()
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        row = np.empty(m, dtype=np.int64)
        row[self.channels] = np.arange(len(self.channels))
        self.slot = row[smaller]
        self.reflected = smaller != np.arange(m)
        self.unstored = np.flatnonzero(self.reflected)
        self.images = smaller[self.unstored]

    def segments(self, lo, hi):
        """The rows [lo, hi) as (group, row slice) pairs, one per group they meet, in row order."""
        pieces = ((g, slice(max(sl.start, lo), min(sl.stop, hi))) for g, sl in enumerate(self.slices))
        return [(g, sl) for g, sl in pieces if sl.start < sl.stop]

    def fill(self, values):
        """Set the unstored rows of the natural-order (M, k) `values` to their images', reversed."""
        values[self.unstored] = values[self.images, ::-1]

    def expand(self, rows):
        """The natural-order (M, Nx) state of the stored (S, Nx) `rows`, as a new array."""
        values = np.empty((len(self.slot), rows.shape[1]), dtype=rows.dtype)
        values[self.channels] = rows
        self.fill(values)
        return values


class _StoredB:
    """B = I - i f H on the stored rows of `_Orbits`, with f = dt / 2 hbar.

    Each solver group shares one set of tridiagonal bands: the three
    diagonals of its channels' block of B without the flips, as
    `assembly.cn_bands` writes them.  `apply_bands` multiplies row
    segments by their group's bands with LAPACK's `zlagtm`, which writes
    into `out` with no transposed copy and releases the GIL.
    `apply_detector` then writes the detector rows again from `_detector`,
    a CSR matrix with one row per stored row and detector: B's four
    entries of that row as `assembly.detector_entries` writes them, in B's
    order, with each column moved to its channel's stored row, reversed in
    x when that channel is unstored.
    zlagtm sums each band row lower, diagonal, upper, in the order in which
    the CSR kernel sums B's row, so every entry of B x equals
    `CNSystem.b`'s product bit for bit.  The operator holds (N + 1) band
    sets of 3 Nx - 2 numbers and 4 S N detector entries.
    """

    def __init__(self, h, scale, orbits):
        group, self._bands = cn_bands(h, scale)
        self._band_at = [tuple(diag.ctypes.data for diag in band) for band in self._bands]
        self._shape = (len(orbits.channels), h.num_points)
        self._nx = ctypes.c_int(h.num_points)
        self._det = h.detector_indices
        self._detector = None
        if not h.flip_strength:
            return
        (s, nx), n = self._shape, len(self._det)
        data, channel, point = detector_entries(h, scale, group, self._bands, orbits.channels)
        # each column at its channel's stored row, reversed in x when the channel is unstored
        cols = orbits.slot[channel] * nx + np.where(orbits.reflected[channel], nx - 1 - point, point)
        self._detector = sparse.csr_matrix(
            (data.ravel(), cols.ravel(), np.arange(0, 4 * s * n + 1, 4)), shape=(s * n, s * nx)
        )

    def apply_bands(self, x, out, segments):
        """The band part of B x into the rows of `segments`, (group, row slice) pairs, of `out`.

        x and out are C-ordered (S, Nx) complex arrays, so a segment's k
        rows are one Fortran-ordered (Nx, k) block, which zlagtm
        (alpha = 1, beta = 0) overwrites with the group's product.
        """
        for a in (x, out):  # LAPACK reads and writes through raw pointers
            if a.shape != self._shape or a.dtype != np.complex128 or not a.flags.c_contiguous:
                raise ValueError(f"B applies to C-ordered complex arrays of shape {self._shape}")
        x_at, out_at = x.ctypes.data, out.ctypes.data
        row = x.strides[0]
        nx = self._nx
        for group, sl in segments:
            dl, d, du = self._band_at[group]
            rows = ctypes.c_int(sl.stop - sl.start)
            at = sl.start * row
            _zlagtm(b"N", nx, rows, _ONE, dl, d, du, x_at + at, nx, _ZERO, out_at + at, nx)

    def apply_detector(self, x, out):
        """Write the detector rows of B x into `out`; x and out are (S, Nx) arrays of stored rows."""
        if self._detector is not None:
            out[:, self._det] = (self._detector @ x.ravel()).reshape(len(x), -1)


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


def _axpy(x, y, a):
    """y += a x, in place, in one BLAS pass; x and y are C-contiguous complex arrays."""
    out = blas.zaxpy(x.ravel(), y.ravel(), a=a)
    assert np.shares_memory(out, y), "zaxpy must write y in place"


class _Worker:
    """A thread pinned to one CPU that runs the second lane of `run`'s steps.

    It pins itself with `os.sched_setaffinity(0, ...)`, which sets the
    calling thread's affinity alone.  A thread that is not pinned tends to
    be woken on its waker's CPU, and the two lanes then take turns on it.
    """

    def __init__(self, cpu):
        self._tasks = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, args=(cpu,), name="spintrack-lane", daemon=True)
        self._thread.start()

    def _serve(self, cpu):
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # an unpinned lane is slower, not wrong
        for task, args in iter(self._tasks.get, None):
            try:
                task(*args)
            except BaseException as err:  # handed to the thread that waits for it
                self._done.put(err)
            else:
                self._done.put(None)

    def fork_join(self, task, theirs, ours):
        """task(*theirs) on the worker while this thread runs task(*ours).

        Returns once both have ended; an exception of either is raised then.
        """
        self._tasks.put((task, theirs))
        try:
            task(*ours)
        finally:
            err = self._done.get()
        if err is not None:
            raise err

    def close(self):
        self._tasks.put(None)
        self._thread.join()


def _other_cpu():
    """A CPU of this process's affinity set other than the one this thread last ran on.

    The CPU is read from /proc/thread-self/stat; where it cannot be read,
    the highest CPU of the set is taken.
    """
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as stat:
            here = int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39, `processor`
    except (OSError, ValueError, IndexError):
        here = None
    return max(cpu for cpu in os.sched_getaffinity(0) if cpu != here)


def _step_threads(threads, values):
    """The threads `run` steps on, 1 or 2, for a stored state of `values` numbers.

    Two when `threads` allows it, the state is at least
    TWO_THREAD_MIN_VALUES and this process may run on two CPUs, one of
    which a thread can be pinned to.
    """
    if threads < 2 or values < TWO_THREAD_MIN_VALUES or not hasattr(os, "sched_setaffinity"):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(eq=False)
class RunRecord:
    """Per-step diagnostic series plus the final state.

    All series have length num_steps + 1 and include t = 0; the five class
    probability series have their fields in ConfigClass order
    (`observables.CLASS_FIELDS`).
    `max_step_residual` is the largest relative residual of any step, after
    refinement, `capacitance_iterations` (length num_steps) holds each
    step's detector solve iterations (`CapacitanceSolver.correct`'s counts,
    summed over the step's refinement solves), `stored_channels` counts the
    channels the run evolved (one per mirror orbit, or all 2^N),
    `refined_steps` counts the steps that took iterative refinement,
    `threads` is the number of threads the steps ran on, and `profile`
    maps each phase of the run to its seconds: `setup` (from the call to
    the first step), then, summed over the steps, `detector_solve` (the
    right-hand side's norm and the detector values' gather, iteration and
    correction), `lanes` (the tridiagonal solves and B's bands, one lane
    per thread), `residual` (B's detector rows and the residual) and
    `record`.  A refinement round adds to the first three like the step's
    own solve.  All six are None when the record was not produced by `run`.
    `notes` holds the run's warnings, such as a time step too coarse for
    accurate phases.
    """

    times: np.ndarray
    norm2: np.ndarray
    energy: np.ndarray
    unchanged: np.ndarray
    one_spin: np.ndarray
    left_track: np.ndarray
    right_track: np.ndarray
    multi_track: np.ndarray
    final_state: StateVector
    max_step_residual: float | None = None
    capacitance_iterations: np.ndarray | None = None
    stored_channels: int | None = None
    refined_steps: int | None = None
    threads: int | None = None
    profile: dict | None = None
    notes: list = field(default_factory=list)


def run(system, initial, num_steps, config=None, threads=2):
    """Advance `num_steps` Crank-Nicolson steps, recording diagnostics.

    The record's class series sum each channel's probability into its
    ConfigClass, with each detector's side decided by
    `SideAssignment.from_grid` from H's detector indices; a run without
    detectors has one channel, which is unchanged.

    Each step costs one linear solve and one B-matvec: the product B x is
    the next right-hand side, and it also yields the residual check
    (A x = 2x - B x) and the energy (B = I - i f H with f = dt / 2 hbar, so
    Re <x, H x> = -Im <x, B x> / f).  A step whose residual exceeds
    `config.rtol` takes up to REFINEMENT_ROUNDS rounds of iterative
    refinement before it fails: a round solves A c = r for the residual r
    by the step's own solve (`solve_round`), with c in place of x, and
    adds c to x and B c to B x.  The step fails at once when a round
    leaves more than REFINEMENT_CONTRACTION of the residual it started
    from: a round that removes rounding error leaves far less, while a
    wrong operator contracts the residual slowly.

    The run stores one channel per orbit, in the solver's group order, and
    steps with B applied to those rows only (`_StoredB`): per group, one
    set of tridiagonal bands that all its rows share, plus the detector
    rows, each summed in B's order, so B x equals `system.b`'s product bit
    for bit; `system.b` stays unread.  B x is written into one of two
    buffers that swap roles each step.  When H and `initial` are
    mirror-symmetric (`_mirror_images`) the orbits are the mirror pairs;
    any other input has one-channel orbits and stores every channel.  The
    norm, the energy and the residual are sums over the rows weighted by
    their orbits' sizes, so they cover every channel.  The run drops its
    reference to `initial` once it has gathered the stored rows, so a
    caller that keeps none frees it before stepping.

    A step solves the detector system on the calling thread, and then the
    rows' tridiagonal blocks and B's bands on them in one lane per thread
    (`_step_threads`).  With two threads, the stored rows are cut into two
    halves of equal row count (a solver group may straddle the cut), and a
    `_Worker` pinned to another CPU of this process runs the second half
    while the calling thread runs the first; a refinement round splits its
    rows the same way.  B's detector rows, the residual and the record
    follow on the calling thread.  Every row is computed by the same
    operations on either count, so the results are bit-identical.  The
    worker lives for this call alone.

    Parameters
    ----------
    system : CNSystem
    initial : StateVector
    num_steps : int, >= 1
    config : SolveConfig, optional
    threads : int, optional
        The most threads the steps may run on; a caller that runs other
        work at the same time passes 1.

    Returns
    -------
    RunRecord, whose final state holds every channel in natural order.
    """
    started = time.perf_counter()
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    config = config or SolveConfig()
    shape = (system.h.num_channels, system.h.num_points)
    if initial.values.shape != shape:
        raise ValueError(f"state shape {initial.values.shape} does not match system {shape}")
    dx = initial.dx
    energy_scale = -dx * 2.0 * system.hbar / system.dt
    times = system.dt * np.arange(num_steps + 1)
    norm2 = np.empty(num_steps + 1)
    energy = np.empty(num_steps + 1)
    classes = np.empty((num_steps + 1, len(observables.CLASS_FIELDS)))
    det = system.h.detector_indices
    tags = classify_all(SideAssignment.from_grid(det, shape[1])) if len(det) else np.zeros(1, np.int8)
    solver = make_linear_solver(system, config)
    orbits = solver.orbits(_mirror_images(system.h, initial.values))
    weights = orbits.weights
    x = initial.values[orbits.channels]  # the stored rows, advanced in place
    del initial
    b = _StoredB(system.h, -1j * system.dt / (2.0 * system.hbar), orbits)
    state = StateVector(x, dx)

    def record(k, bx):
        probs = observables.channel_probs(state, t=times[k]).probs[orbits.slot]
        norm2[k] = probs.sum()
        energy[k] = energy_scale * _dot(x, bx, weights).imag
        classes[k] = observables.class_sums(probs, tags)

    def lane(segments, c, bc):
        solver.solve_rows(c, segments)
        b.apply_bands(c, bc, segments)

    def lap(phase):
        """Add the seconds since the last lap to `phase`'s entry of the profile."""
        nonlocal clock
        now = time.perf_counter()
        profile[phase] += now - clock
        clock = now

    def solve_round(r, c, bc, r_norm):
        """Solve A c = r for step k, write bc = B c, and overwrite r with r - A c.

        A c = 2c - B c because A + B = 2I exactly, so the new residual
        reuses B c.  Adds the detector iterations to step k's count and
        laps the profile.  Returns the relative residual ||r|| / r_norm, a
        weighted row norm that covers every channel (the absolute one when
        r_norm is 0); a non-finite entry makes it NaN or inf.
        """
        np.copyto(c, r)
        iterations[k - 1] += solver.correct(c, orbits)
        lap("detector_solve")
        if worker is None:
            lane(first, c, bc)
        else:
            worker.fork_join(lane, (second, c, bc), (first, c, bc))
        lap("lanes")
        b.apply_detector(c, bc)
        r += bc
        _axpy(c, r, -2.0)
        residual = float(_weighted_norm(r, weights) / (r_norm or 1.0))
        lap("residual")
        return residual

    bx = np.empty_like(x)
    b.apply_bands(x, bx, orbits.segments(0, len(x)))
    b.apply_detector(x, bx)
    spare = np.empty_like(x)
    record(0, bx)
    # Accuracy (not stability) guard: compare dt against the phase period of
    # the occupied modes, 2 hbar / |<H>|.  The operator norm would be the grid
    # cutoff energy and would flag every well-resolved run.
    notes = []
    if energy[0] != 0.0 and abs(system.dt) > 2.0 * system.hbar / abs(energy[0]):
        notes.append(
            f"dt={system.dt:g} exceeds 2*hbar/|<H>|~{2.0 * system.hbar / abs(energy[0]):g}; "
            "the scheme stays stable but phases will be inaccurate"
        )
    worst = 0.0
    refined = 0
    iterations = np.zeros(num_steps, dtype=np.int64)
    threads = _step_threads(threads, x.size)
    cut = len(x) // 2 if threads == 2 else len(x)
    first, second = orbits.segments(0, cut), orbits.segments(cut, len(x))
    worker = _Worker(_other_cpu()) if threads == 2 else None
    profile = dict.fromkeys(("setup", "detector_solve", "lanes", "residual", "record"), 0.0)
    clock = started
    try:
        lap("setup")
        for k in range(1, num_steps + 1):
            rhs, bx = bx, spare  # the last B x is this step's right-hand side
            try:
                # the residual rhs - A x overwrites rhs, which the step is done with
                rhs_norm = _weighted_norm(rhs, weights)
                residual = solve_round(rhs, x, bx, rhs_norm)
                rounds = 0
                # a NaN or inf residual is not refined, and it raises
                while config.rtol < residual < np.inf and rounds < REFINEMENT_ROUNDS:
                    before = residual
                    # a round of iterative refinement: c = A^-1 r, x += c and
                    # B x += B c; c and B c live for the round alone
                    c, bc = np.empty_like(x), np.empty_like(x)
                    residual = solve_round(rhs, c, bc, rhs_norm)
                    x += c
                    bx += bc
                    del c, bc
                    rounds += 1
                    if not residual < REFINEMENT_CONTRACTION * before:
                        raise SolverError(
                            f"refinement stalled: solve residual {residual:.3e} after round {rounds} "
                            f"is not below {REFINEMENT_CONTRACTION:g} of {before:.3e}, its residual before",
                            residual=residual,
                        )
                if not residual <= config.rtol:
                    raise SolverError(
                        f"solve residual {residual:.3e} exceeds tolerance {config.rtol:.3e}",
                        residual=residual,
                    )
            except SolverError as err:
                raise SolverError(f"step {k}: {err}", residual=err.residual, notes=notes) from err
            worst = max(worst, residual)
            refined += rounds > 0
            spare = rhs
            lap("residual")
            record(k, bx)
            lap("record")
    finally:
        if worker is not None:
            worker.close()
    del solver, b, bx, spare, rhs  # the stepping arrays go before the full final state is built
    return RunRecord(
        times=times,
        norm2=norm2,
        energy=energy,
        # column c of `classes` is the series of class c, CLASS_FIELDS[c]
        **dict(zip(observables.CLASS_FIELDS, classes.T, strict=True)),
        final_state=StateVector(orbits.expand(x), dx),
        max_step_residual=worst,
        capacitance_iterations=iterations,
        stored_channels=len(orbits.channels),
        refined_steps=refined,
        threads=threads,
        profile=profile,
        notes=notes,
    )
