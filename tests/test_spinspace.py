"""Configuration encoding, flips, and track classification."""

import pytest

from spintrack import (
    MAX_SPINS,
    ConfigClass,
    SideAssignment,
    classify,
    classify_all,
    mirror,
    mirrors,
    spin_sum,
    spin_sums,
)


def _halves(num_spins):
    """The symmetric layout's sides: the first half of the detectors left, the rest right."""
    half = num_spins // 2
    return SideAssignment((-1,) * half + (1,) * half)


def test_spin_sum_examples():
    assert spin_sum(0b0000, 4) == -4
    assert spin_sum(0b1111, 4) == 4
    assert spin_sum(0b0011, 4) == 0
    with pytest.raises(ValueError):
        spin_sum(0b10000, 4)  # mask wider than N


@pytest.mark.parametrize("n", [1, 4, 8])
def test_spin_sum_complement_antisymmetry(n):
    for mask in range(1 << n):
        assert spin_sum(mask, n) + spin_sum(mask ^ (2**n - 1), n) == 0


def test_spin_sums_vector_matches_scalar():
    n = 6
    vec = spin_sums(n)
    assert vec.shape == (64,)
    for mask in range(64):
        assert vec[mask] == spin_sum(mask, n)


def test_num_spins_cap():
    with pytest.raises(ValueError):
        spin_sums(MAX_SPINS + 1)
    with pytest.raises(ValueError):
        SideAssignment(())


def test_classify_examples():
    sides = _halves(4)  # (L, L, R, R)
    assert classify(0b0000, sides) is ConfigClass.UNCHANGED
    assert classify(0b0011, sides) is ConfigClass.LEFT_TRACK
    assert classify(0b1100, sides) is ConfigClass.RIGHT_TRACK
    assert classify(0b0101, sides) is ConfigClass.MULTIPLE_TRACKS
    assert classify(0b0100, sides) is ConfigClass.ONE_SPIN


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_classify_partitions_all_masks(n):
    sides = _halves(n)
    half = n // 2
    counts = {tag: 0 for tag in ConfigClass}
    for mask in range(1 << n):
        counts[classify(mask, sides)] += 1
    assert counts[ConfigClass.UNCHANGED] == 1
    assert counts[ConfigClass.ONE_SPIN] == n
    # subsets of one side with >= 2 elements
    one_side_tracks = (1 << half) - 1 - half
    assert counts[ConfigClass.LEFT_TRACK] == one_side_tracks
    assert counts[ConfigClass.RIGHT_TRACK] == one_side_tracks
    assert sum(counts.values()) == 1 << n


@pytest.mark.parametrize("n", [2, 4, 8])
def test_classify_all_matches_scalar(n):
    sides = _halves(n)
    tags = classify_all(sides)
    assert tags.shape == (1 << n,)
    for mask in range(1 << n):
        assert tags[mask] == classify(mask, sides)


def test_classify_all_is_readonly_and_cached():
    sides = _halves(4)
    tags = classify_all(sides)
    assert classify_all(sides) is tags
    with pytest.raises(ValueError):
        tags[0] = 3


@pytest.mark.parametrize("n", [2, 4, 6])
def test_mirror_swaps_track_sides(n):
    sides = _halves(n)
    swap = {
        ConfigClass.LEFT_TRACK: ConfigClass.RIGHT_TRACK,
        ConfigClass.RIGHT_TRACK: ConfigClass.LEFT_TRACK,
    }
    for mask in range(1 << n):
        tag = classify(mask, sides)
        mirrored = classify(mirror(mask, n), sides)
        assert mirrored == swap.get(tag, tag)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_mirrors_vector_matches_mirror(n):
    images = mirrors(n)
    assert [int(m) for m in images] == [mirror(mask, n) for mask in range(1 << n)]
    assert all(images[images] == range(1 << n))  # an involution


def test_side_assignment_masks():
    sides = SideAssignment((-1, -1, 1, 1))
    assert sides.left_mask == 0b0011
    assert sides.right_mask == 0b1100
    with pytest.raises(ValueError):
        SideAssignment((0, 1))


def test_uniform_distribution_class_weights():
    # brute-force enumeration of the 16 masks at p = 1/16 each
    sides = _halves(4)
    weights = {tag: 0.0 for tag in ConfigClass}
    for mask in range(16):
        weights[classify(mask, sides)] += 1.0 / 16.0
    assert weights[ConfigClass.UNCHANGED] == pytest.approx(1 / 16)
    assert weights[ConfigClass.ONE_SPIN] == pytest.approx(4 / 16)
    assert weights[ConfigClass.LEFT_TRACK] == pytest.approx(1 / 16)
    assert weights[ConfigClass.RIGHT_TRACK] == pytest.approx(1 / 16)
    assert weights[ConfigClass.MULTIPLE_TRACKS] == pytest.approx(9 / 16)
