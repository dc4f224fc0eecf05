"""The multi-channel wavefunction on the grid."""

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class StateVector:
    """Full system state: one complex grid function per spin channel.

    `values` has shape (M, Nx) with channel-major memory layout, so
    `values.ravel()` is the flat vector the sparse operators act on;
    channel `mask` occupies the contiguous slice [mask*Nx, (mask+1)*Nx).
    """

    values: np.ndarray
    dx: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values)
        if self.values.ndim != 2:
            raise ValueError(f"expected a (channels, points) array, got shape {self.values.shape}")
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(np.complex128)
        if self.dx <= 0:
            raise ValueError(f"grid spacing must be positive, got {self.dx}")

    def norm2(self):
        """Discrete squared norm dx * sum |psi|^2 over all channels.

        A BLAS dot: elementwise squares of the wavefunction's far tails
        underflow to subnormals and run several times slower.
        """
        return float(self.dx * np.vdot(self.values, self.values).real)

    def copy(self):
        return StateVector(self.values.copy(), self.dx)

    @classmethod
    def zeros(cls, num_channels, num_points, dx):
        return cls(np.zeros((num_channels, num_points), dtype=np.complex128), dx)
