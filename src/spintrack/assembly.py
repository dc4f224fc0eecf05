"""Discrete Hamiltonian and the Crank-Nicolson step operators.

The flat operator index is channel-major: entry (mask, i) of the state lives
at mask*Nx + i, so each spin channel is one contiguous tridiagonal block.
Per channel the Hamiltonian is

    diagonal      hbar^2/(m dx^2) + alpha * spin_sum(mask)      (interior)
                  ... + hbar^2 beta/(2 m dx)                    (detector rows)
    off-diagonal  -hbar^2/(2 m dx^2)

and each detector row (mask, i_j) additionally couples to the single-flip
partner channel at the same grid point with the purely imaginary entry

    -i * sigma_j * kappa * rho * hbar^2 / (2 m dx),   sigma_j = +-1 from bit j,

which pairs up into an exactly Hermitian block because the partner's spin
value has the opposite sign.  The pattern is the same in every run, so the
Hamiltonian stores only its strength gamma = kappa rho hbar^2 / (2 m dx).
The reflecting (zero-derivative) boundary is imposed by a ghost-point
substitution that doubles the first and last off-diagonal of every block
("ghost" mode, the validated default); the "symmetrized" mode keeps those
entries single so the matrix is exactly Hermitian, at the cost of a
slightly different boundary operator.  The wavepacket never reaches the
boundary in a sane configuration, so the two modes agree to machine noise.
This structure fixes every row's pattern, so H and the Crank-Nicolson
operators I -+ (i dt / 2 hbar) H are written straight into CSR arrays,
with no coordinate triplets or sparse sums.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .model import ConfigurationError
from .spinspace import spin_sums

BOUNDARY_MODES = ("ghost", "symmetrized")


@dataclass(eq=False)
class DiscreteHamiltonian:
    """Sparse Hamiltonian as shared bands plus one spin-flip strength.

    The tridiagonal bands are shared by all channels; `channel_shift` carries
    the per-channel diagonal energy alpha * spin_sum(mask).  Row (mask, i_j)
    couples to the flip partner (mask ^ 2^j, i_j) with the value
    -i sigma_j(mask) * flip_strength (`flips`); a zero strength leaves the
    channels uncoupled.
    """

    kin_diag: np.ndarray        # (Nx,)   real diagonal incl. the beta bumps
    upper: np.ndarray           # (Nx-1,) entries (i, i+1)
    lower: np.ndarray           # (Nx-1,) entries (i+1, i)
    channel_shift: np.ndarray   # (M,)    alpha * spin_sum per channel
    flip_strength: float        # gamma; 0.0 means the channels are uncoupled
    detector_indices: np.ndarray

    @property
    def num_channels(self):
        return len(self.channel_shift)

    @property
    def num_points(self):
        return len(self.kin_diag)

    @property
    def dim(self):
        return self.num_channels * self.num_points

    @property
    def nnz(self):
        coupled = len(self.detector_indices) if self.flip_strength else 0
        return self.num_channels * (3 * self.num_points - 2 + coupled)

    def flips(self):
        """(partner, value), each (M, N): row (mask, i_j) couples to column
        (partner[mask, j], i_j), partner = mask ^ 2^j, with the entry
        value[mask, j] = -i sigma_j(mask) gamma."""
        masks = np.arange(self.num_channels)[:, None]
        bits = 1 << np.arange(len(self.detector_indices))
        sign = np.where(masks & bits, 1.0, -1.0)
        return masks ^ bits, (-1j * sign) * self.flip_strength

    def to_sparse(self, fmt="csr"):
        """Materialize as a scipy sparse matrix."""
        return _identity_plus(self, 1.0, eye=0.0).asformat(fmt)

    def apply(self, values):
        """H @ v computed block-wise; `values` has shape (M, Nx), result is new."""
        if values.shape != (self.num_channels, self.num_points):
            raise ValueError(
                f"shape mismatch: state {values.shape}, operator "
                f"({self.num_channels}, {self.num_points})"
            )
        out = (self.kin_diag + self.channel_shift[:, None]) * values
        out[:, :-1] += self.upper * values[:, 1:]
        out[:, 1:] += self.lower * values[:, :-1]
        if self.flip_strength:
            det = self.detector_indices
            partner, value = self.flips()
            out[:, det] += value * values[partner, det]  # detector rows are distinct
        return out


@dataclass(eq=False)
class CNSystem:
    """The pair (A, B) with A psi_next = B psi for one Crank-Nicolson step.

    A = I + (i dt / 2 hbar) H and B = I - (i dt / 2 hbar) H, so A + B = 2I
    holds entrywise and exactly.  Both are built in natural order on first
    access, for the checks and the benchmark's traced loop.  No solve reads
    A, and `run` writes B over its own rows only, so a run caches neither.
    """

    h: DiscreteHamiltonian
    dt: float
    hbar: float

    @functools.cached_property
    def a(self):
        return _identity_plus(self.h, 1j * self.dt / (2.0 * self.hbar)).tocsc()

    @functools.cached_property
    def b(self):
        return _identity_plus(self.h, -1j * self.dt / (2.0 * self.hbar))

    @property
    def dim(self):
        return self.h.dim


def assemble_hamiltonian(params, grid, layout, boundary_mode="ghost"):
    """Build the discrete Hamiltonian for a detector layout on a grid.

    Parameters
    ----------
    params : PhysicalParams
    grid : Grid
    layout : DetectorLayout
        Detector grid indices must be interior and pairwise distinct.
    boundary_mode : {"ghost", "symmetrized"}

    Returns
    -------
    DiscreteHamiltonian with 2**N channels.
    """
    if boundary_mode not in BOUNDARY_MODES:
        raise ConfigurationError(f"unknown boundary mode {boundary_mode!r}")
    nx = grid.num_points
    n = layout.num_spins
    det = np.asarray(layout.grid_indices, dtype=np.int64)
    if len(np.unique(det)) != len(det):
        raise ConfigurationError("detector grid indices must be distinct")
    if np.any(det <= 0) or np.any(det >= nx - 1):
        raise ConfigurationError("detector on a boundary point: stencil undefined")

    hop = params.hbar**2 / (2.0 * params.mass * grid.dx**2)
    kin_diag = np.full(nx, 2.0 * hop)
    kin_diag[det] += params.hbar**2 * params.beta / (2.0 * params.mass * grid.dx)
    upper = np.full(nx - 1, -hop)
    lower = np.full(nx - 1, -hop)
    if boundary_mode == "ghost":
        upper[0] = -2.0 * hop
        lower[-1] = -2.0 * hop

    gamma = params.kappa * params.rho * params.hbar**2 / (2.0 * params.mass * grid.dx)
    return DiscreteHamiltonian(
        kin_diag=kin_diag,
        upper=upper,
        lower=lower,
        channel_shift=params.alpha * spin_sums(n).astype(np.float64),
        flip_strength=gamma,
        detector_indices=det,
    )


def _identity_plus(h, scale, eye=1.0, layout=None):
    """eye * I + scale * H as a CSR matrix, written straight from h.

    `layout` (None: natural mask order) places the rows: block s holds
    channel layout.channels[s] (whose slot is s), and a column (p, i) is
    written in block layout.slot[p], at the point Nx - 1 - i when
    layout.reflected[p].  Row (mask, i) holds (mask, i-1), (mask, i),
    (mask, i+1) and, at detector row i_j, the flip partner (mask ^ 2^j,
    i_j): first when bit j of mask is set, last when it is clear, so the
    natural order is canonical and any other keeps its entry order.  No two
    entries of a row share a column: the flip partner differs from the
    row's channel in one bit, and a mirror image never does.  All channels
    share one pattern, written as if every bit were clear: one row per
    diagonal shift, copied to its channels; the detector rows of the
    channels with the bit set are then rotated by one.  Off-diagonal values
    are 0.0 + scale * v, which turns -0.0 into +0.0 as a sum with I does.
    """
    m, nx = h.num_channels, h.num_points
    if layout is None:
        channels = slot = np.arange(m)
        reflected = np.zeros(m, dtype=bool)
    else:
        channels, slot, reflected = layout.channels, layout.slot, layout.reflected
    s = len(channels)
    det = h.detector_indices if h.flip_strength else np.empty(0, dtype=np.int64)
    counts = np.r_[2, np.full(nx - 2, 3), 2]
    counts[det] += 1
    ptr = np.concatenate(([0], np.cumsum(counts)))  # one channel's row pointers
    width = int(ptr[-1])
    diag = ptr[:-1] + (np.arange(nx) > 0)  # position of entry (i, i)
    partner = ptr[det] + 3
    idx_dtype = np.int32 if s * width <= np.iinfo(np.int32).max else np.int64
    cols = np.empty(width, dtype=idx_dtype)
    cols[diag] = np.arange(nx)
    cols[diag[1:] - 1] = np.arange(nx - 1)
    cols[diag[:-1] + 1] = np.arange(1, nx)
    indices = np.empty((s, width), dtype=idx_dtype)
    np.add(np.arange(0, s * nx, nx, dtype=idx_dtype)[:, None], cols, out=indices)
    row = np.empty(width, dtype=np.complex128)
    row[diag[1:] - 1] = 0.0 + scale * h.lower
    row[diag[:-1] + 1] = 0.0 + scale * h.upper
    shifts, group = np.unique(h.channel_shift, return_inverse=True)
    rows = np.tile(row, (len(shifts), 1))
    on_diag = scale * np.add.outer(shifts, h.kin_diag)
    on_diag += eye
    rows[:, diag] = on_diag
    data = np.take(rows, group[channels], axis=0)
    if len(det):
        partner_mask, value = h.flips()
        partner_mask = partner_mask[channels]
        indices[:, partner] = slot[partner_mask] * nx + np.where(reflected[partner_mask], nx - 1 - det, det)
        data[:, partner] = 0.0 + scale * value[channels]
        for j, start in enumerate(ptr[det]):
            flipped = np.flatnonzero(channels & (1 << j))  # the rows with bit j set
            for arr in (indices, data):
                arr[flipped, start:start + 4] = arr[flipped[:, None], start + np.array([3, 0, 1, 2])]
    indptr = np.empty(s * nx + 1, dtype=idx_dtype)
    np.add.outer(np.arange(s, dtype=idx_dtype) * width, ptr[:-1], out=indptr[:-1].reshape(s, nx))
    indptr[-1] = s * width
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(s * nx, s * nx))


def assemble_cn(h, dt, hbar):
    """Crank-Nicolson operators A = I + (i dt/2 hbar) H, B = I - (i dt/2 hbar) H.

    Neither is built here: each is built when `CNSystem.a` or `CNSystem.b`
    is first read.  A negative dt is allowed: it yields the exact inverse
    step, which the time-reversal checks rely on.
    """
    if dt == 0:
        raise ConfigurationError("dt must be nonzero")
    return CNSystem(h=h, dt=dt, hbar=hbar)
