"""Spin-configuration combinatorics for the detector array.

A joint state of N two-level detectors is encoded as an N-bit integer mask:
bit j set means detector j is excited ("up", sigma_j = +1), bit j clear means
it is in its ground state ("down", sigma_j = -1).  Detectors are numbered in
ascending position order, so bit 0 belongs to the leftmost detector.  Mask 0
is the all-down configuration every run starts from, and the 2**N masks index
the channels of the multi-channel wavefunction.

Everything here is a pure function of integers or numpy arrays; nothing is
stateful, so concurrent use needs no synchronization.
"""

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Masks must index a dense channel axis of 2**N entries; memory limits bite
# long before this cap does.
MAX_SPINS = 24

LEFT = -1
RIGHT = +1


class ConfigClass(enum.IntEnum):
    """Aggregate class of a configuration (flips counted against all-down)."""

    UNCHANGED = 0        # no detector flipped
    ONE_SPIN = 1         # exactly one flip, either side
    LEFT_TRACK = 2       # two or more flips, all on the left half
    RIGHT_TRACK = 3      # two or more flips, all on the right half
    MULTIPLE_TRACKS = 4  # flips on both sides


def _check_num_spins(num_spins):
    if not 1 <= num_spins <= MAX_SPINS:
        raise ValueError(
            f"number of spins must be in [1, {MAX_SPINS}], got {num_spins}"
        )


def _check_mask(mask, num_spins):
    if mask < 0 or mask >> num_spins:
        raise ValueError(
            f"mask {mask:#b} has bits outside the low {num_spins} positions"
        )


@dataclass(frozen=True)
class SideAssignment:
    """Left/right label per detector (-1 left, +1 right), ascending position order."""

    signs: tuple

    def __post_init__(self):
        _check_num_spins(len(self.signs))
        if any(s not in (LEFT, RIGHT) for s in self.signs):
            raise ValueError(f"side labels must be -1 or +1, got {self.signs}")

    @classmethod
    def from_grid(cls, grid_indices, num_points):
        """The sides of detectors at `grid_indices` of a grid of `num_points` points.

        A detector is left when it lies before the grid's middle,
        2 i < num_points - 1: on a `model.build_grid` grid that is x < 0,
        and a point at x = 0 is right.  The mirror map i -> num_points - 1 - i
        reflects about the same middle.
        """
        return cls(tuple(LEFT if 2 * i < num_points - 1 else RIGHT for i in grid_indices))

    @property
    def num_spins(self):
        return len(self.signs)

    @cached_property
    def left_mask(self):
        return sum(1 << j for j, s in enumerate(self.signs) if s == LEFT)

    @cached_property
    def right_mask(self):
        return sum(1 << j for j, s in enumerate(self.signs) if s == RIGHT)


def spin_sum(mask, num_spins):
    """Sum of the +-1 spin values, i.e. 2*popcount(mask) - N."""
    _check_num_spins(num_spins)
    _check_mask(mask, num_spins)
    return 2 * mask.bit_count() - num_spins


def spin_sums(num_spins):
    """Vector of spin sums over all 2**N masks, in mask order."""
    _check_num_spins(num_spins)
    masks = np.arange(1 << num_spins, dtype=np.int64)
    return 2 * np.bitwise_count(masks).astype(np.int64) - num_spins


def mirror(mask, num_spins):
    """Exchange each detector with its positional mirror (bit j <-> bit N-1-j)."""
    _check_mask(mask, num_spins)
    out = 0
    for j in range(num_spins):
        if (mask >> j) & 1:
            out |= 1 << (num_spins - 1 - j)
    return out


def mirrors(num_spins):
    """Vector of `mirror(mask, num_spins)` over all 2**N masks, in mask order."""
    _check_num_spins(num_spins)
    masks = np.arange(1 << num_spins, dtype=np.int64)
    out = np.zeros_like(masks)
    for j in range(num_spins):
        out |= ((masks >> j) & 1) << (num_spins - 1 - j)
    return out


def classify(mask, sides):
    """Class of a single configuration under the given side assignment.

    The five tags partition the 2**N masks: no flips, one flip, a track on
    the left, a track on the right (a track needs at least two flips on one
    side and none on the other), or flips on both sides.
    """
    _check_mask(mask, sides.num_spins)
    if mask == 0:
        return ConfigClass.UNCHANGED
    if mask.bit_count() == 1:
        return ConfigClass.ONE_SPIN
    on_left = mask & sides.left_mask
    on_right = mask & sides.right_mask
    if on_left and on_right:
        return ConfigClass.MULTIPLE_TRACKS
    return ConfigClass.LEFT_TRACK if on_left else ConfigClass.RIGHT_TRACK


@lru_cache(maxsize=None)
def classify_all(sides):
    """Vector of ConfigClass values for every mask, indexed by mask.

    Cached per side assignment; the result is marked read-only.
    """
    masks = np.arange(1 << sides.num_spins, dtype=np.int64)
    counts = np.bitwise_count(masks)
    on_left = masks & sides.left_mask
    on_right = masks & sides.right_mask
    tags = np.full(masks.shape, ConfigClass.MULTIPLE_TRACKS, dtype=np.int8)
    tags[(on_left != 0) & (on_right == 0)] = ConfigClass.LEFT_TRACK
    tags[(on_left == 0) & (on_right != 0)] = ConfigClass.RIGHT_TRACK
    tags[counts == 1] = ConfigClass.ONE_SPIN
    tags[counts == 0] = ConfigClass.UNCHANGED
    tags.flags.writeable = False
    return tags
