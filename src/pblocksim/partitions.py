"""Partitions of qubit labels into parts of bounded size, and the exact
test of whether a part splits off.

- `splits_across` is the one factor test, shared by the blocked engine's
  split and the dense blockedness decider: a vector of exact values, keyed
  by index, is rank one across the index bits in a mask and the other
  bits.  For a state vector that says the part splits off; for a density
  read over flat indices row << k | col, with the part's row and column
  bits both in the mask, it says the block is a product over the part and
  the rest, pure or mixed.
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
- `peel_finest` finds the unique finest factorization of a state at any
  width by peeling one irreducible factor at a time, asking only whether a
  candidate part splits off from everything else.  The dense and
  arithmetic-progression blockedness deciders use it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .exact import ExactScalar


def splits_across(nonzeros: dict[int, ExactScalar], mask: int) -> bool:
    """Whether the nonzero values, arranged as a matrix with the index bits
    in `mask` choosing the row and the other bits the column, have rank one:
    the support is a product of row and column sets and the nonzero rows
    are proportional."""
    rows: dict[int, dict[int, ExactScalar]] = {}
    for idx, value in nonzeros.items():
        rows.setdefault(idx & mask, {})[idx & ~mask] = value
    row_iter = iter(rows.values())
    row0 = next(row_iter)
    if len(rows) * len(row0) != len(nonzeros):
        return False
    j0, a00 = next(iter(row0.items()))
    for row in row_iter:
        lead = row.get(j0)
        if lead is None or len(row) != len(row0):
            return False
        for j, v in row.items():
            ref = row0.get(j)
            if ref is None or v * a00 != ref * lead:
                return False
    return True


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
