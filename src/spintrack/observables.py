"""Per-channel probabilities, track-class aggregates, and diagnostics."""

from dataclasses import dataclass, fields

import numpy as np

from .spinspace import ConfigClass, classify_all


@dataclass(eq=False)
class ChannelProbabilities:
    """Discrete squared norm of each channel: probs[mask] = dx * sum |psi_mask|^2."""

    probs: np.ndarray
    t: float

    @property
    def total(self):
        return float(self.probs.sum())


@dataclass(frozen=True)
class ClassProbabilities:
    """Channel probabilities aggregated over the five configuration classes."""

    unchanged: float
    one_spin: float
    left_track: float
    right_track: float
    multi_track: float
    total: float


# The five class fields, in ConfigClass order: those of ClassProbabilities and
# of solver.RunRecord, and the order of the class columns `cli` writes.
CLASS_FIELDS = tuple(f.name for f in fields(ClassProbabilities))[: len(ConfigClass)]


def channel_probs(state, t=0.0):
    """Per-channel probabilities of a state; they sum to the state's norm2."""
    values = state.values
    # Row dot products of the (M, 2 Nx) real view.  A BLAS dot is several
    # times faster than np.abs(values)**2 (or einsum) on an evolved state,
    # whose far tails square to subnormal numbers.
    re_im = values.view(values.real.dtype)
    probs = state.dx * np.vecdot(re_im, re_im)
    return ChannelProbabilities(probs=probs, t=t)


def class_sums(probs, sides):
    """Channel probabilities summed per ConfigClass, indexed by class value.

    `probs` is in natural channel order; a length other than 2**N raises
    numpy's ValueError.
    """
    return np.bincount(classify_all(sides), weights=probs, minlength=len(ConfigClass))


def class_probs(cp, sides):
    """Aggregate channel probabilities by configuration class.

    The left and right track totals are reported separately; on a symmetric
    layout they agree, and their sum is the total probability of seeing a
    track on either side.
    """
    sums = class_sums(cp.probs, sides).tolist()  # indexed by class value, like CLASS_FIELDS
    return ClassProbabilities(**dict(zip(CLASS_FIELDS, sums, strict=True)), total=cp.total)


def energy(state, h):
    """Energy expectation Re <psi, H psi> in the dx-weighted inner product.

    H psi is the product with `h.to_sparse()`, which is built on each call.
    """
    h_psi = h.to_sparse() @ state.values.ravel()
    return float(state.dx * np.real(np.vdot(state.values, h_psi)))


def boundary_mass(state, grid, width):
    """Probability dx * sum |psi|^2 over the grid points within `width` of either end."""
    near = state.values[:, np.abs(grid.xs) >= grid.half_length - width]
    return float(state.dx * np.vdot(near, near).real)


def arrival_time(record, drop):
    """First recorded time at which the no-flip probability fell below 1 - drop.

    With a small fixed drop this is the onset of flipping: it depends on the
    coupling and precedes the ballistic arrival D/p0 at strong coupling.
    Returns None if it never did.
    """
    if not 0.0 < drop < 1.0:
        raise ValueError(f"drop must be in (0, 1), got {drop}")
    if record.unchanged is None:
        raise ValueError("run was recorded without class probabilities")
    below = record.unchanged < 1.0 - drop
    if not below.any():
        return None
    return float(record.times[int(np.argmax(below))])
