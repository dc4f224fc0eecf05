"""Per-channel probabilities, track-class aggregates, and diagnostics."""

from dataclasses import dataclass

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
    t: float


def channel_probs(state, t=0.0):
    """Per-channel probabilities of a state; they sum to the state's norm2."""
    values = state.values
    # Row dot products of the (M, 2 Nx) real view.  A BLAS dot is several
    # times faster than np.abs(values)**2 (or einsum) on an evolved state,
    # whose far tails square to subnormal numbers.
    re_im = values.view(values.real.dtype)
    probs = state.dx * np.vecdot(re_im, re_im)
    return ChannelProbabilities(probs=probs, t=t)


def class_tags(sides, num_channels):
    """ConfigClass tag of every channel, checked against the channel count."""
    tags = classify_all(sides)
    if len(tags) != num_channels:
        raise ValueError(
            f"{num_channels} channels but side assignment implies {len(tags)}"
        )
    return tags


def class_sums(probs, tags):
    """Channel probabilities summed per ConfigClass, indexed by class value."""
    return np.bincount(tags, weights=probs, minlength=len(ConfigClass))


def class_probs(cp, sides):
    """Aggregate channel probabilities by configuration class.

    The left and right track totals are reported separately; on a symmetric
    layout they agree, and their sum is the total probability of seeing a
    track on either side.
    """
    sums = class_sums(cp.probs, class_tags(sides, len(cp.probs)))
    return ClassProbabilities(
        unchanged=float(sums[ConfigClass.UNCHANGED]),
        one_spin=float(sums[ConfigClass.ONE_SPIN]),
        left_track=float(sums[ConfigClass.LEFT_TRACK]),
        right_track=float(sums[ConfigClass.RIGHT_TRACK]),
        multi_track=float(sums[ConfigClass.MULTIPLE_TRACKS]),
        total=cp.total,
        t=cp.t,
    )


def energy(state, h):
    """Energy expectation Re <psi, H psi> in the dx-weighted inner product."""
    return float(state.dx * np.real(np.vdot(state.values, h.apply(state.values))))


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
