"""Reference raft validator and moves, built on part sets and a run table.

The library's ``RaftedPartition`` validates and moves rafts on one int
bitset of the parts.  This module keeps set-based forms: it looks every
membership up in ``set(parts)``, maps each part to its run through
``runs_of``, and re-sorts the parts after each move.  It shares no bit
arithmetic with the library, so the tests judge the two-bit flips and the
bitset validation against it.  ``runs_of`` and ``eligible_rafts`` read the
runs and the eligible rafts off a part tuple; the package needs neither,
since its listing finds the rafts as it builds the parts.  ``reference_render`` is a frozen copy of the
renderer over a raft set, so a change to ``render_rafted_text`` is judged
against the text it gave before.  ``reference_rafted`` is the filter route of
the rafted listing, which scans every distinct-part partition for its
eligible rafts, so the run-pruned recursion is judged against it.
"""

import itertools
from dataclasses import dataclass

from qrafts.partitions import Partition, iter_gap_exact
from qrafts.rafts import MoveError, RaftError


def runs_of(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, length) of each maximal consecutive block, in order."""
    starts = [i for i, p in enumerate(parts) if not i or parts[i - 1] != p - 1]
    return [(parts[i], j - i) for i, j in zip(starts, starts[1:] + [len(parts)])]


def eligible_rafts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Smaller members of the top pairs of all runs of length >= 2, in one scan.

    a is eligible when a+1 follows it and a+2 does not; the 0 padding the
    last pair can never equal a+2.
    """
    return tuple(a for a, b, c in zip(parts, parts[1:], parts[2:] + (0,))
                 if b == a + 1 and c != a + 2)


def reference_render(parts: tuple[int, ...], rafts) -> str:
    """``render_rafted_text`` as one loop: a part in the raft set fuses with
    the next part when that part is one more, and the pair is skipped."""
    if not parts:
        return "()"
    raft_set = set(rafts)
    items = []
    i = 0
    while i < len(parts):
        p = parts[i]
        if p in raft_set and i + 1 < len(parts) and parts[i + 1] == p + 1:
            items.append(f"[{p},{p + 1}]")
            i += 2
        else:
            items.append(str(p))
            i += 1
    return ",".join(items)


def reference_rafted(k: int, max_weight: int, min_weight: int = 0):
    """``enumerate_rafted``'s (parts, rafts) by the filter route: each
    distinct-part partition of each weight, in lexicographic order, crossed
    with every size-k subset of its eligible rafts, in lexicographic order."""
    for w in range(min_weight, max_weight + 1):
        for parts in iter_gap_exact(w, 1):
            for combo in itertools.combinations(eligible_rafts(parts), k):
                yield parts, combo


@dataclass(frozen=True, slots=True)
class ReferenceRafted:
    """``RaftedPartition``'s state and rules, checked and moved through sets."""

    partition: Partition
    rafts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rafts", tuple(sorted(self.rafts)))
        parts = set(self.partition.parts)
        for k in self.rafts:
            if k not in parts or k + 1 not in parts:
                raise RaftError("raft-pair-broken",
                                f"raft [{k},{k + 1}] needs both members in {self.partition}")
        if len(set(self.rafts)) != len(self.rafts):
            raise RaftError("colliding-rafts", f"repeated raft in {self.rafts}")
        run_of: dict[int, int] = {}
        for idx, (start, length) in enumerate(runs_of(self.partition.parts)):
            for v in range(start, start + length):
                run_of[v] = idx
        seen: dict[int, int] = {}
        for k in self.rafts:
            idx = run_of[k]
            if idx in seen:
                raise RaftError("colliding-rafts",
                                f"rafts [{seen[idx]},{seen[idx] + 1}] and [{k},{k + 1}] "
                                f"share a run in {self.partition}")
            seen[idx] = k
        for k in self.rafts:
            if k + 2 in parts:
                raise RaftError("raft-not-terminal",
                                f"raft [{k},{k + 1}] has {k + 2} present in {self.partition}")

    def __str__(self) -> str:
        return reference_render(self.partition.parts, self.rafts)

    def _require_raft(self, k: int) -> None:
        if k not in self.rafts:
            raise MoveError(f"move-not-applicable: {k} is not a designated raft of {self}")

    def can_forward(self, k: int) -> bool:
        if k not in self.rafts:
            return False
        parts = set(self.partition.parts)
        if k + 3 not in parts:
            return True
        e = k + 3
        while e + 1 in parts:
            e += 1
        return (e - 1) not in self.rafts

    def forward(self, k: int) -> "ReferenceRafted":
        self._require_raft(k)
        parts = set(self.partition.parts)
        if k + 3 in parts:
            e = k + 3
            while e + 1 in parts:
                e += 1
            if (e - 1) in self.rafts:
                raise MoveError(
                    f"move-not-applicable: raft [{k},{k + 1}] is blocked by designated "
                    f"raft [{e - 1},{e}] at the end of the run ahead"
                )
        parts.discard(k)
        parts.add(k + 2)
        e = k + 2
        while e + 1 in parts:
            e += 1
        new_rafts = tuple(r for r in self.rafts if r != k) + (e - 1,)
        return ReferenceRafted(Partition(tuple(sorted(parts))), new_rafts)

    def _run_start(self, k: int) -> int:
        parts = set(self.partition.parts)
        a = k
        while a - 1 in parts:
            a -= 1
        return a

    def can_backward(self, k: int) -> bool:
        if k not in self.rafts:
            return False
        a = self._run_start(k)
        return a >= 2 and (a - 3) not in self.rafts

    def backward(self, k: int) -> "ReferenceRafted":
        self._require_raft(k)
        a = self._run_start(k)
        if a < 2:
            raise MoveError(
                f"move-not-applicable: raft [{k},{k + 1}] sits on a run starting at 1"
            )
        if (a - 3) in self.rafts:
            raise MoveError(
                f"move-not-applicable: raft [{k},{k + 1}] is blocked by designated "
                f"raft [{a - 3},{a - 2}] just below its run"
            )
        parts = set(self.partition.parts)
        parts.discard(a + 1)
        parts.add(a - 1)
        new_rafts = tuple(r for r in self.rafts if r != k) + (a - 1,)
        return ReferenceRafted(Partition(tuple(sorted(parts))), new_rafts)
