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
value has the opposite sign.  The reflecting (zero-derivative) boundary is
imposed by a ghost-point substitution that doubles the first and last
off-diagonal of every block ("ghost" mode, the validated default); the
"symmetrized" mode keeps those entries single so the matrix is exactly
Hermitian, at the cost of a slightly different boundary operator.  The
wavepacket never reaches the boundary in a sane configuration, so the two
modes agree to machine noise.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .model import ConfigurationError
from .spinspace import spin_sums

BOUNDARY_MODES = ("ghost", "symmetrized")


@dataclass(eq=False)
class DiscreteHamiltonian:
    """Sparse Hamiltonian in band + coupling-list form.

    The tridiagonal bands are shared by all channels; `channel_shift` carries
    the per-channel diagonal energy alpha * spin_sum(mask).  Couplings are
    coordinate triplets in the flat index space.
    """

    kin_diag: np.ndarray        # (Nx,)   real diagonal incl. the beta bumps
    upper: np.ndarray           # (Nx-1,) entries (i, i+1)
    lower: np.ndarray           # (Nx-1,) entries (i+1, i)
    channel_shift: np.ndarray   # (M,)    alpha * spin_sum per channel
    coup_rows: np.ndarray       # flat row indices of cross-channel entries
    coup_cols: np.ndarray       # flat column indices
    coup_vals: np.ndarray       # complex values
    detector_indices: np.ndarray
    dx: float
    boundary_mode: str

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
        return self.num_channels * (3 * self.num_points - 2) + len(self.coup_vals)

    def to_sparse(self, fmt="csr"):
        """Materialize as a scipy sparse matrix."""
        m, nx = self.num_channels, self.num_points
        rows = [
            np.arange(self.dim),
            (np.arange(m)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel(),
            (np.arange(m)[:, None] * nx + np.arange(1, nx)[None, :]).ravel(),
            self.coup_rows,
        ]
        cols = [
            np.arange(self.dim),
            (np.arange(m)[:, None] * nx + np.arange(1, nx)[None, :]).ravel(),
            (np.arange(m)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel(),
            self.coup_cols,
        ]
        vals = [
            np.add.outer(self.channel_shift, self.kin_diag).ravel(),
            np.tile(self.upper, m),
            np.tile(self.lower, m),
            self.coup_vals,
        ]
        coo = sparse.coo_matrix(
            (
                np.concatenate(vals).astype(np.complex128),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(self.dim, self.dim),
        )
        return coo.asformat(fmt)

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
        flat_in = values.ravel()
        flat_out = out.ravel()
        # Coupling rows are unique (one flip partner per detector row), but
        # add.at keeps the scatter correct under any schedule.
        np.add.at(flat_out, self.coup_rows, self.coup_vals * flat_in[self.coup_cols])
        return out


@dataclass(eq=False)
class CNSystem:
    """The pair (A, B) with A psi_next = B psi for one Crank-Nicolson step.

    A = I + (i dt / 2 hbar) H and B = I - (i dt / 2 hbar) H, so A + B = 2I
    holds entrywise and exactly.
    """

    a: sparse.csc_matrix
    b: sparse.csr_matrix
    h: DiscreteHamiltonian
    dt: float
    hbar: float

    @property
    def dim(self):
        return self.a.shape[0]


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

    m = 1 << n
    shift = params.alpha * spin_sums(n).astype(np.float64)

    if params.rho != 0.0:
        gamma = (
            params.coupling_factor
            * params.rho
            * params.hbar**2
            / (2.0 * params.mass * grid.dx)
        )
        masks = np.arange(m, dtype=np.int64)
        rows, cols, vals = [], [], []
        for j, ij in enumerate(det):
            sign = np.where((masks >> j) & 1, 1.0, -1.0)
            partners = masks ^ (1 << j)
            rows.append(masks * nx + ij)
            cols.append(partners * nx + ij)
            vals.append(-1j * sign * gamma)
        coup_rows = np.concatenate(rows)
        coup_cols = np.concatenate(cols)
        coup_vals = np.concatenate(vals)
    else:
        coup_rows = np.empty(0, dtype=np.int64)
        coup_cols = np.empty(0, dtype=np.int64)
        coup_vals = np.empty(0, dtype=np.complex128)

    return DiscreteHamiltonian(
        kin_diag=kin_diag,
        upper=upper,
        lower=lower,
        channel_shift=shift,
        coup_rows=coup_rows,
        coup_cols=coup_cols,
        coup_vals=coup_vals,
        detector_indices=det,
        dx=grid.dx,
        boundary_mode=boundary_mode,
    )


def assemble_cn(h, dt, hbar):
    """Crank-Nicolson operators A = I + (i dt/2 hbar) H, B = I - (i dt/2 hbar) H.

    A negative dt is allowed: it yields the exact inverse step, which the
    time-reversal checks rely on.
    """
    if dt == 0:
        raise ConfigurationError("dt must be nonzero")
    factor = 1j * dt / (2.0 * hbar)
    hs = h.to_sparse("csr")
    eye = sparse.identity(h.dim, dtype=np.complex128, format="csr")
    a = (eye + factor * hs).tocsc()
    b = (eye - factor * hs).tocsr()
    return CNSystem(a=a, b=b, h=h, dt=dt, hbar=hbar)
