"""Restricted-part-size partition enumeration and its canonical order, and
the factor-peeling search."""

from hypothesis import given, settings, strategies as st

from pblocksim.partitions import partitions_max_part, peel_finest

from helpers import all_partitions


def test_counts_against_plain_recursion():
    for n in range(1, 7):
        for p in range(1, n + 1):
            items = list(range(n))
            got = partitions_max_part(items, p)
            want = {tuple(sorted(tuple(x) for x in parts))
                    for parts in all_partitions(items, p)}
            assert {tuple(ps) for ps in got} == want
            assert len(got) == len(want)


def test_order_finest_first():
    got = partitions_max_part([0, 1, 2], 2)
    assert got[0] == [(0,), (1,), (2,)]
    # then the two-part partitions in lexicographic order of sorted parts
    assert got[1:] == [[(0,), (1, 2)], [(0, 1), (2,)], [(0, 2), (1,)]]


def test_part_size_cap():
    for parts in partitions_max_part(range(6), 2):
        assert all(len(part) <= 2 for part in parts)


def test_singletons_only_when_p1():
    got = partitions_max_part([3, 5, 9], 1)
    assert got == [[(3,), (5,), (9,)]]


@st.composite
def hidden_partitions(draw):
    """(labels, hidden partition of them as sorted tuples)."""
    labels = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8,
                           unique=True))
    order = draw(st.permutations(labels))
    parts = []
    while order:
        size = draw(st.integers(1, len(order)))
        parts.append(tuple(sorted(order[:size])))
        order = order[size:]
    return labels, sorted(parts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hidden_partitions(), st.integers(1, 8))
def test_peel_finest_recovers_hidden_partition(case, max_part):
    """With "splits off" meaning "is a union of hidden parts", peeling
    returns the hidden partition exactly when every part fits, and never
    asks about the whole remainder."""
    labels, hidden = case

    def splits_off(part):
        # peeling goes in ascending head order, so the parts with a smaller
        # lowest label are already gone
        pending = {q for h in hidden if h[0] >= part[0] for q in h}
        assert set(part) != pending, "asked about the whole remainder"
        return all(set(h) <= set(part) or not set(h) & set(part)
                   for h in hidden)

    got = peel_finest(labels, splits_off, max_part)
    if max(len(h) for h in hidden) <= max_part:
        assert got == hidden
    else:
        assert got is None


def test_peel_finest_tries_smallest_parts_first():
    asked = []

    def splits_off(part):
        asked.append(part)
        return set(part) in ({1, 4}, {2, 3, 5})

    assert peel_finest([5, 4, 3, 2, 1], splits_off, 3) == \
        [(1, 4), (2, 3, 5)]
    assert asked == [(1,), (1, 2), (1, 3), (1, 4), (2,), (2, 3), (2, 5)]
