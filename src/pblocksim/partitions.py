"""Partitions of qubit labels into parts of bounded size, the exact test
of whether a part splits off, and the one search for a state's finest
factorization.

- `splits_across` is the one factor test: values keyed by index are rank
  one across the index bits in a mask and the other bits.  For a state
  vector that says the part splits off; for a density read over flat
  indices row << k | col, with the part's row and column bits both in the
  mask, it says the block is a product over the part and the rest, pure or
  mixed.  An equal-amplitude support is the map with every value 1, and
  then the test asks only whether the support is a product of sets.
- `partitions_max_part` enumerates every partition of the ranks
  0..count-1 into parts of size <= p, most-refined first: descending part
  count, then lexicographic on the sorted part contents.  The approx engine
  scores candidates in this order until one reproduces the merged block
  exactly (distance 0, which no later candidate can beat), and `split_exact`
  takes the first whose parts all split off.  Rank r stands for the r-th
  smallest label of the block (`rank_positions` says where that label
  sits), so the order over labels is the order over ranks and the list never
  needs re-labelling; both only ever see a merged block of at most 2p
  labels, so the list is built once per size and shared.
- `finest_factorization` finds the unique finest factorization of a
  nonzero map at any width: `peel_finest` peels one irreducible factor at a
  time with `splits_across` as its test, and the answer is rebuilt entry by
  entry before it is returned.  The dense and arithmetic-progression
  blockedness deciders both call it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations


def splits_across(nonzeros: dict, mask: int) -> bool:
    """Whether the nonzero values, arranged as a matrix with the index bits
    in `mask` choosing the row and the other bits the column, have rank one.

    One pass against the first entry a00, at row r0 and column c0: every
    entry v at row r and column c off that row and column needs
    v * a00 == M[r, c0] * M[r0, c], both of those present.  Every row seen
    then has an entry in column c0 and every column one in row r0, so
    counting those two lines counts the rows and columns, and the support
    is their whole grid exactly when the counts multiply to its size."""
    items = iter(nonzeros.items())
    idx0, a00 = next(items)
    r0 = idx0 & mask
    c0 = idx0 ^ r0
    rows = cols = 1
    for idx, value in items:
        r = idx & mask
        c = idx ^ r
        if r == r0:
            cols += 1
        elif c == c0:
            rows += 1
        else:
            left = nonzeros.get(r | c0)
            top = nonzeros.get(r0 | c)
            if left is None or top is None or value * a00 != left * top:
                return False
    return rows * cols == len(nonzeros)


def _partitions_rec(items: tuple, max_size: int):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for take in range(min(max_size, len(items)), 0, -1):
        for chosen in combinations(rest, take - 1):
            part = (head,) + chosen
            chosen_set = set(chosen)
            remaining = tuple(x for x in rest if x not in chosen_set)
            for tail in _partitions_rec(remaining, max_size):
                yield (part,) + tail


@cache
def partitions_max_part(count: int, max_size: int
                        ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of the ranks 0..count-1 with parts <= max_size,
    finest first, built once per (count, max_size) and shared by every
    caller, so it is all tuples.

    Each partition is a tuple of ascending parts, each an ascending tuple of
    ranks; the partitions come in the canonical order (descending number of
    parts, then lexicographic on the sequence of parts).
    """
    return tuple(sorted(_partitions_rec(tuple(range(count)), max_size),
                        key=lambda ps: (-len(ps), ps)))


def rank_positions(labels) -> list[int]:
    """positions[r] is the position in `labels` of their r-th smallest
    label, the label that rank r of `partitions_max_part` stands for."""
    return sorted(range(len(labels)), key=labels.__getitem__)


def peel_finest(labels, splits_off, max_part: int) -> list[tuple] | None:
    """Finest partition of `labels` into parts of size <= max_part over which
    a state factors, or None when some irreducible factor is larger.

    `splits_off(part)` says whether the state is a product across `part`
    and every other label.  Product bipartitions are closed under meet, so
    the smallest part that holds the lowest remaining label and splits off is
    that label's irreducible factor; parts are tried in ascending size, then
    lexicographic order.  Peeled factors split off too, so testing against
    the full complement stays correct at every level, and whatever remains
    once the others are peeled is a factor without asking.  Parts come back
    as sorted tuples in ascending order.
    """
    remaining = sorted(labels)
    parts = []
    while remaining:
        head, rest = remaining[0], remaining[1:]
        candidates = ((head,) + extra
                      for size in range(min(max_part, len(remaining)))
                      for extra in combinations(rest, size))
        part = next((c for c in candidates
                     if len(c) == len(remaining) or splits_off(c)), None)
        if part is None:
            return None
        parts.append(part)
        remaining = [q for q in rest if q not in part]
    return parts


def finest_factorization(nonzeros: dict, masks, max_part: int
                         ) -> list[tuple] | None:
    """Finest partition of the labels 0..len(masks)-1 into parts of size
    <= max_part over which the nonzero map factors, or None when some
    irreducible factor is larger.

    Label q owns the index bits in masks[q], and a part asks `splits_across`
    over the OR of its labels' masks.  The answer is rebuilt entry by entry
    before it is returned, so a wrong split can never pass silently."""
    def part_mask(part):
        mask = 0
        for q in part:
            mask |= masks[q]
        return mask

    parts = peel_finest(
        range(len(masks)),
        lambda part: splits_across(nonzeros, part_mask(part)), max_part)
    if parts is not None:
        _check_rebuild(nonzeros, [part_mask(part) for part in parts])
    return parts


def _check_rebuild(nonzeros: dict, masks) -> None:
    """Assert the parts over `masks` rebuild every nonzero value exactly.

    Each part's factor is read off the map with the other bits held at a
    reference index idx0, which scales it by the other factors' values
    there, so the product over the k parts is v(idx) * v(idx0)^(k-1).
    Matching every value and the support size pins the map.  Only `*` and
    `==` are asked of the values, so exact scalars and ints both work."""
    idx0, a0 = next(iter(nonzeros.items()))
    factors = [{idx & m: v for idx, v in nonzeros.items()
                if idx & ~m == idx0 & ~m} for m in masks]
    support = 1
    for factor in factors:
        support *= len(factor)
    assert support == len(nonzeros), "factor support mismatch"
    scale = None  # a0^(k-1); None for one part
    for _ in masks[1:]:
        scale = a0 if scale is None else scale * a0
    for idx, value in nonzeros.items():
        prod = None
        for m, factor in zip(masks, factors):
            x = factor.get(idx & m)
            assert x is not None, "factor support mismatch"
            prod = x if prod is None else prod * x
        assert prod == (value if scale is None else value * scale), \
            "factor product mismatch"
