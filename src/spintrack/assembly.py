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

    def flips(self):
        """(partner, value), each (M, N): row (mask, i_j) couples to column
        (partner[mask, j], i_j), partner = mask ^ 2^j, with the entry
        value[mask, j] = -i sigma_j(mask) gamma."""
        masks = np.arange(self.num_channels)[:, None]
        bits = 1 << np.arange(len(self.detector_indices))
        sign = np.where(masks & bits, 1.0, -1.0)
        return masks ^ bits, (-1j * sign) * self.flip_strength

    def to_sparse(self):
        """Materialize as a scipy CSR matrix."""
        return _identity_plus(self, 1.0, eye=0.0)


@dataclass(eq=False)
class CNSystem:
    """The pair (A, B) with A psi_next = B psi for one Crank-Nicolson step.

    A = I + (i dt / 2 hbar) H and B = I - (i dt / 2 hbar) H, so A + B = 2I
    holds entrywise and exactly.  Both are built in natural order on first
    access, for the checks and the benchmark's traced loop; a run builds
    neither.  Their entries come from `cn_bands` and `detector_entries`,
    which also write the solver's factored blocks of A and run's B
    (`solver._StoredB`), so those agree with `a` and `b` bit for bit.
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


def cn_bands(h, scale, eye=1.0):
    """(group, bands): each channel's group, and each group's bands of eye * I + scale * H without the flips.

    The groups are the distinct diagonal shifts, ascending; bands[g] is
    (lower, diagonal, upper), and every group shares the off-diagonals
    0.0 + scale * v, which turns -0.0 into +0.0 as a sum with I does.
    """
    shifts, group = np.unique(h.channel_shift, return_inverse=True)
    lower, upper = 0.0 + scale * h.lower, 0.0 + scale * h.upper
    diagonals = scale * np.add.outer(shifts, h.kin_diag)
    diagonals += eye
    return group, [(lower, diagonal, upper) for diagonal in diagonals]


def detector_entries(h, scale, group, bands, channels):
    """The detector rows of `channels` in eye * I + scale * H, from `cn_bands`' group and bands.

    Returns (values, channel, point), each (len(channels), N, 4): row
    (channels[s], i_j) sums values[s, j, k] at column (channel, point)[s, j, k]
    in k order: the band's i_j - 1, i_j, i_j + 1 and the flip partner's
    (mask ^ 2^j, i_j), which comes first instead when bit j of the mask is
    set, so that natural-order columns are sorted.
    """
    det = h.detector_indices
    partner, flip = h.flips()
    band = np.stack([np.stack((dl[det - 1], d[det], du[det]), axis=1) for dl, d, du in bands])
    values = np.concatenate((band[group[channels]], (0.0 + scale * flip[channels])[:, :, None]), axis=2)
    channel = np.where(np.arange(4) == 3, partner[channels][:, :, None], channels[:, None, None])
    point = np.broadcast_to(det[:, None] + np.array([-1, 0, 1, 0]), values.shape)
    first = (channels[:, None] >> np.arange(len(det))) & 1 == 1
    order = np.where(first[:, :, None], [3, 0, 1, 2], [0, 1, 2, 3])
    return tuple(np.take_along_axis(arr, order, axis=2) for arr in (values, channel, point))


def _identity_plus(h, scale, eye=1.0):
    """eye * I + scale * H as a CSR matrix in natural mask order, from `cn_bands` and `detector_entries`.

    Each group's rows are written once and copied to its channels; the
    detector rows are then overwritten in their summation order, which
    keeps every row's columns sorted.
    """
    m, nx = h.num_channels, h.num_points
    group, bands = cn_bands(h, scale, eye)
    det = h.detector_indices if h.flip_strength else np.empty(0, dtype=np.int64)
    counts = np.r_[2, np.full(nx - 2, 3), 2]
    counts[det] += 1
    ptr = np.concatenate(([0], np.cumsum(counts)))  # one channel's row pointers
    width = int(ptr[-1])
    diag = ptr[:-1] + (np.arange(nx) > 0)  # position of entry (i, i)
    idx_dtype = np.int32 if m * width <= np.iinfo(np.int32).max else np.int64
    cols = np.empty(width, dtype=idx_dtype)
    cols[diag] = np.arange(nx)
    cols[diag[1:] - 1] = np.arange(nx - 1)
    cols[diag[:-1] + 1] = np.arange(1, nx)
    rows = np.empty((len(bands), width), dtype=np.complex128)
    for row, (dl, d, du) in zip(rows, bands):
        row[diag[1:] - 1], row[diag], row[diag[:-1] + 1] = dl, d, du
    data = np.take(rows, group, axis=0)
    indices = np.empty((m, width), dtype=idx_dtype)
    np.add(np.arange(0, m * nx, nx, dtype=idx_dtype)[:, None], cols, out=indices)
    if len(det):
        values, channel, point = detector_entries(h, scale, group, bands, np.arange(m))
        at = ptr[det, None] + np.arange(4)  # each detector row's four entries
        data[:, at] = values
        indices[:, at] = channel * nx + point
    indptr = np.empty(m * nx + 1, dtype=idx_dtype)
    np.add.outer(np.arange(m, dtype=idx_dtype) * width, ptr[:-1], out=indptr[:-1].reshape(m, nx))
    indptr[-1] = m * width
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(m * nx, m * nx))


def assemble_cn(h, dt, hbar):
    """Crank-Nicolson operators A = I + (i dt/2 hbar) H, B = I - (i dt/2 hbar) H.

    Neither is built here: each is built when `CNSystem.a` or `CNSystem.b`
    is first read.  A negative dt is allowed: it yields the exact inverse
    step, which the time-reversal checks rely on.
    """
    if dt == 0:
        raise ConfigurationError("dt must be nonzero")
    return CNSystem(h=h, dt=dt, hbar=hbar)
