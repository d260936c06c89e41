"""Unit tests: IntervalSet."""

import random

from repro.sim.intervals import IntervalSet


def test_empty():
    s = IntervalSet()
    assert len(s) == 0
    assert not s
    assert not s.contains(0)


def test_single_add():
    s = IntervalSet()
    assert s.add(10, 5) == 5
    assert s.count == 5
    assert s.contains(10) and s.contains(14)
    assert not s.contains(9) and not s.contains(15)


def test_duplicate_add_counts_once():
    s = IntervalSet()
    s.add(10, 5)
    assert s.add(10, 5) == 0
    assert s.count == 5


def test_overlapping_adds_merge():
    s = IntervalSet()
    s.add(10, 5)
    assert s.add(12, 10) == 7
    assert s.count == 12
    assert list(s) == [(10, 22)]


def test_adjacent_intervals_coalesce():
    s = IntervalSet()
    s.add(0, 5)
    s.add(5, 5)
    assert list(s) == [(0, 10)]


def test_disjoint_intervals_stay_separate():
    s = IntervalSet()
    s.add(0, 2)
    s.add(10, 2)
    assert list(s) == [(0, 2), (10, 12)]
    assert s.count == 4


def test_bridge_merge():
    s = IntervalSet()
    s.add(0, 2)
    s.add(4, 2)
    s.add(2, 2)  # bridges the gap
    assert list(s) == [(0, 6)]


def test_overlap_query():
    s = IntervalSet()
    s.add(10, 10)
    assert s.overlap(0, 10) == 0
    assert s.overlap(5, 10) == 5
    assert s.overlap(15, 100) == 5
    assert s.overlap(12, 3) == 3


def test_zero_length_add():
    s = IntervalSet()
    assert s.add(5, 0) == 0
    assert not s


def test_clear():
    s = IntervalSet()
    s.add(0, 100)
    s.clear()
    assert s.count == 0
    assert list(s) == []


def test_random_adds_match_a_set_of_integers():
    """Seeded random adds, clears and queries against a plain set: the
    coalesced bounds cover exactly the added integers, no two intervals
    touch, and every count, membership and overlap agrees."""
    rng = random.Random(0xC10E)
    for _ in range(300):
        s, reference = IntervalSet(), set()
        for _ in range(rng.randint(1, 20)):
            if rng.random() < 0.05:
                s.clear()
                reference.clear()
                continue
            start, length = rng.randint(0, 60), rng.randint(-1, 12)
            added = set(range(start, start + length)) - reference
            assert s.add(start, length) == len(added)
            reference |= added
            pairs = list(s)
            assert {v for lo, hi in pairs for v in range(lo, hi)} == reference
            assert all(a[1] < b[0] for a, b in zip(pairs, pairs[1:]))
            assert s.count == len(reference)
            assert [v for v in range(-2, 75) if s.contains(v)] == \
                sorted(reference)
            start, length = rng.randint(0, 70), rng.randint(-1, 15)
            assert s.overlap(start, length) == \
                len(reference & set(range(start, start + length)))
