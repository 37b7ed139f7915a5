"""Restricted-part-size partition enumeration and its canonical order, the
one factor test, and the factor-peeling search with its rebuild check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pblocksim import partitions
from pblocksim.ap import analyze_blockedness, build_pair
from pblocksim.circuits import parse_circuit
from pblocksim.dense import dense_blockedness, dense_run
from pblocksim.exact import ExactScalar, ZERO
from pblocksim.partitions import (partitions_max_part, peel_finest,
                                  splits_across)

from helpers import all_partitions, rank_one_by_minors


def test_counts_against_plain_recursion():
    for n in range(1, 7):
        for p in range(1, n + 1):
            got = partitions_max_part(n, p)
            want = {tuple(sorted(tuple(x) for x in parts))
                    for parts in all_partitions(list(range(n)), p)}
            assert set(got) == want
            assert len(got) == len(want)


def test_order_finest_first():
    got = partitions_max_part(3, 2)
    assert got[0] == ((0,), (1,), (2,))
    # then the two-part partitions in lexicographic order of sorted parts
    assert got[1:] == (((0,), (1, 2)), ((0, 1), (2,)), ((0, 2), (1,)))


def test_part_size_cap():
    for parts in partitions_max_part(6, 2):
        assert all(len(part) <= 2 for part in parts)


def test_singletons_only_when_p1():
    assert partitions_max_part(3, 1) == (((0,), (1,), (2,)),)


def _labelled_order(labels, p):
    """The order of partitions of a label set itself: every partition into
    parts <= p as ascending sorted tuples, descending part count, then
    lexicographic on the sequence of parts."""
    return sorted((sorted(tuple(sorted(part)) for part in parts)
                   for parts in all_partitions(list(labels), p)),
                  key=lambda ps: (-len(ps), ps))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_shared_rank_partitions(data):
    """Each list is built once per size and cannot be changed by a caller,
    and ranks read through the sorted labels give the order of partitions of
    the labels themselves, whatever order the block holds its labels in."""
    assert [len(partitions_max_part(k, 3)) for k in (4, 5, 6)] == \
        [14, 46, 166]
    shared = partitions_max_part(6, 3)
    assert partitions_max_part(6, 3) is shared
    assert isinstance(shared, tuple)
    assert all(isinstance(parts, tuple) and
               all(isinstance(part, tuple) for part in parts)
               for parts in shared)
    labels = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=6,
                                unique=True))
    p = data.draw(st.integers(1, len(labels)))
    ranked = sorted(labels)
    assert [[tuple(ranked[r] for r in part) for part in parts]
            for parts in partitions_max_part(len(labels), p)] == \
        _labelled_order(labels, p)


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


EXACT_VALUES = [ExactScalar(a, b, c) for a, b, c in
                ((1, 0, 0), (-1, 0, 0), (Fraction(1, 2), 0, 0), (0, 1, 0),
                 (0, 0, 1), (1, 1, 0), (0, Fraction(-1, 3), 1), (2, 0, -1))]
INT_VALUES = [-3, -2, -1, 1, 2, 3]


@st.composite
def factor_cases(draw):
    """(nonzeros, mask, bits, zero): a random sparse map, a product u (x) w
    across the mask, or such a product with one entry changed or dropped,
    over exact scalars or ints, at 1-6 index bits."""
    bits = draw(st.integers(1, 6))
    mask = draw(st.integers(0, (1 << bits) - 1))
    values, zero = draw(st.sampled_from([(EXACT_VALUES, ZERO),
                                         (INT_VALUES, 0)]))
    value = st.sampled_from(values)
    kind = draw(st.sampled_from(["random", "product", "changed", "dropped"]))
    if kind == "random":
        keys = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1,
                             unique=True))
        return {k: draw(value) for k in keys}, mask, bits, zero
    rows = [i for i in range(1 << bits) if i & ~mask == 0]
    cols = [i for i in range(1 << bits) if i & mask == 0]
    row_keys = draw(st.lists(st.sampled_from(rows), unique=True,
                             min_size=min(2, len(rows))))
    col_keys = draw(st.lists(st.sampled_from(cols), unique=True,
                             min_size=min(2, len(cols))))
    u = {r: draw(value) for r in row_keys}
    w = {c: draw(value) for c in col_keys}
    nonzeros = {r | c: u[r] * w[c] for r in u for c in w}
    if kind != "product":
        key = draw(st.sampled_from(sorted(nonzeros)))
        if kind == "dropped" and len(nonzeros) > 1:
            del nonzeros[key]
        else:
            nonzeros[key] = nonzeros[key] * draw(value) + draw(value)
            if nonzeros[key] == zero:
                del nonzeros[key]
    return nonzeros, mask, bits, zero


@settings(max_examples=600, deadline=None, derandomize=True)
@given(factor_cases())
def test_splits_across_is_rank_one(case):
    """The one-pass factor test says what every 2 x 2 minor of the dense
    matrix says, for exact scalars and for ints."""
    nonzeros, mask, bits, zero = case
    if nonzeros:
        assert splits_across(nonzeros, mask) == \
            rank_one_by_minors(nonzeros, mask, bits, zero)


def test_rebuild_check_catches_a_wrong_split(monkeypatch):
    """A factor test that passes every part would hand back a split the
    state does not have; the rebuild check stops it in both deciders."""
    monkeypatch.setattr(partitions, "splits_across", lambda nonzeros, mask:
                        True)
    bell = dense_run(parse_circuit(
        "qubits 2\ninput 00\ngate H 0\ngate CNOT 0 1\nmeasure 0\n"))
    with pytest.raises(AssertionError):
        dense_blockedness(bell, 1)
    with pytest.raises(AssertionError):
        analyze_blockedness(build_pair(0, 3, 2), 1)
