"""Restricted-part-size partition enumeration and its canonical order, the
one factor test, and the finest-factorization search: its answer against
brute force, its count of factor tests on Shor registers, and its rebuild
check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pblocksim import partitions
from pblocksim.ap import BasisSuperposition, analyze_blockedness, build_pair
from pblocksim.circuits import parse_circuit
from pblocksim.dense import dense_blockedness, dense_run
from pblocksim.exact import ExactScalar, ZERO
from pblocksim.partitions import (finest_factorization, partitions_max_part,
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


@st.composite
def hidden_products(draw):
    """(nonzeros, masks): the product of random nonzero maps over a hidden
    partition of 1-6 labels, over exact scalars or ints, in three draws of
    ten with one entry changed or dropped.  Label q owns index bit q, as a
    state's amplitudes do, or bits q and q + n, as a density's flat indices
    row << n | col do."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        masks = [1 << q for q in range(n)]
    else:
        masks = [1 << q | 1 << q + n for q in range(n)]
    values, zero = draw(st.sampled_from([(EXACT_VALUES, ZERO),
                                         (INT_VALUES, 0)]))
    values = st.sampled_from(values)
    order = draw(st.permutations(range(n)))
    nonzeros = None
    while order:
        size = draw(st.integers(1, len(order)))
        part_mask = sum(masks[q] for q in order[:size])
        order = order[size:]
        keys = draw(st.lists(st.integers(0, part_mask), min_size=1,
                             max_size=4))
        factor = {key & part_mask: draw(values) for key in keys}
        nonzeros = factor if nonzeros is None else \
            {i | j: x * y for i, x in nonzeros.items()
             for j, y in factor.items()}
    change = draw(st.sampled_from(["none"] * 7 + ["changed"] * 2
                                  + ["dropped"]))
    if change != "none":
        key = draw(st.sampled_from(sorted(nonzeros)))
        changed = nonzeros[key] * draw(values) + draw(values)
        if change == "changed" and changed != zero:
            nonzeros[key] = changed
        elif len(nonzeros) > 1:
            del nonzeros[key]
    return nonzeros, masks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hidden_products())
def test_finest_factorization_matches_brute_force(case):
    """At every max_part, the search returns the first partition, finest
    first, whose parts all split off, and None when there is none."""
    nonzeros, masks = case
    n = len(masks)
    candidates = sorted((sorted(parts) for parts in
                         all_partitions(range(n), n)),
                        key=lambda parts: (-len(parts), parts))
    verdicts = {}

    def splits_off(part):
        if part not in verdicts:
            verdicts[part] = splits_across(
                nonzeros, sum(masks[q] for q in part))
        return verdicts[part]

    for max_part in range(1, n + 1):
        want = next((parts for parts in candidates
                     if max(map(len, parts)) <= max_part
                     and all(map(splits_off, parts))), None)
        assert finest_factorization(nonzeros, masks, max_part) == want


def _shor_register(modulus, base, t):
    """The period-finding register sum over x < 2^t of |x>|base^x mod
    modulus>, x in the high bits and the residue in the low ones."""
    work = modulus.bit_length()
    return BasisSuperposition(t + work, tuple(
        x << work | pow(base, x, modulus) for x in range(1 << t)))


@pytest.mark.parametrize("modulus, base, t, want", [
    (15, 7, 8, [(0, 1, 2, 3, 4, 5)] + [(q,) for q in range(6, 12)]),
    (33, 5, 12, [(0, 1, 2, 3, 4) + tuple(range(6, 18)), (5,)]),
])
def test_shor_registers_take_a_factor_test_per_pair(monkeypatch, modulus,
                                                    base, t, want):
    """A register whose largest part is nearly its width is decided with at
    most one factor test per pair of labels, where trying the subsets that
    hold a part's lowest label would take hundreds of thousands."""
    state = _shor_register(modulus, base, t)
    n = state.width
    asked = []

    def counted(nonzeros, mask):
        asked.append(mask)
        return splits_across(nonzeros, mask)

    monkeypatch.setattr(partitions, "splits_across", counted)
    assert analyze_blockedness(state, n) == want
    assert len(asked) <= n * (n - 1) // 2
    largest = max(map(len, want))
    assert analyze_blockedness(state, largest) == want
    assert analyze_blockedness(state, largest - 1) is None


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
