"""Brute references for designations and minimality.

``all_distinct`` lists every distinct-part partition up to a weight.
``enumerate_designations`` lists every designation of one partition by
counting in binary over its eligible rafts; the tests sum signs over it and
build every rafted configuration from it.  ``is_minimal_structural`` decides
minimality from the shape of the parts alone, so the tests judge the move
rules' ``is_minimal`` against it.
"""

from typing import Iterator

from qrafts.partitions import Partition, iter_gap_exact
from qrafts.rafts import RaftedPartition

from raft_reference import eligible_rafts


def all_distinct(max_weight: int) -> Iterator[Partition]:
    """Every distinct-part partition of weight <= max_weight, weight by weight."""
    for w in range(max_weight + 1):
        for parts in iter_gap_exact(w, 1):
            yield Partition(parts)


def enumerate_designations(p: Partition) -> Iterator[tuple[int, ...]]:
    """All 2^R subsets of the eligible rafts, in binary counting order.

    Bit i of the counter toggles the i-th smallest eligible raft, so the
    order is deterministic: (), smallest alone, next alone, both, ...
    """
    elig = eligible_rafts(p.parts)
    for mask in range(1 << len(elig)):
        yield tuple(r for i, r in enumerate(elig) if mask >> i & 1)


def is_minimal_structural(rp: RaftedPartition) -> bool:
    """Shape test for minimality, independent of the move rules.

    With rafts r_1 < ... < r_k: every part 1..r_k+1 is present except exactly
    r_j+2 for j < k (forcing r_{j+1} >= r_j + 3), and the remaining parts all
    sit at r_k + 3 or higher.
    """
    if not rp.rafts:
        return True
    r = rp.rafts
    missing = {rj + 2 for rj in r[:-1]}
    expected_low = set(range(1, r[-1] + 2)) - missing
    parts = set(rp.partition.parts)
    low = {p for p in parts if p <= r[-1] + 1}
    if low != expected_low:
        return False
    if any(b - a < 3 for a, b in zip(r, r[1:])):
        return False
    return all(p >= r[-1] + 3 for p in parts - low)
