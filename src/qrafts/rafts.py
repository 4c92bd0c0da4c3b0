"""Raft designations and the weight-changing moves on distinct-part partitions.

A designated raft [k, k+1] is the top pair of a run, so k+2 is never a part.
The forward move lifts the pair by one step, gaining weight 2.  In part-set
terms both cases of the move are the same swap:

  clear ahead (k+3 absent):      remove k, add k+2; the raft becomes [k+1, k+2]
  obstacle (run at k+3..k+s+2):  remove k, add k+2; after relabelling, the
                                 raft re-emerges at the top of the merged run

A forward move is refused when the obstacle run already ends in a designated
raft: letting the two rafts merge would break admissibility, and the
composition scheme never needs that case.  The backward move is the exact
mirror (remove a+1, add a-1, where a is the start of the raft's run), refused
when it would need a part 0 or land on a+1-type conflicts with a designated
raft ending at a-2.

The engine works on the sorted part tuple by index.  Since k+2 is absent and
a-1 is absent, each move is a two-slot splice that keeps the tuple sorted:
slots i, i+1 take (low, low+1), with low = k+1 forward (slots of k, k+1) and
low = a-1 backward (slots of a, a+1).  One step helper per direction finds
the splice and the refusal, bisect_left giving the raft's slot and walking
the neighbouring indices the run's end or start.  The can_* methods read its
refusal; _move raises on it or makes the splice, for forward, backward and
both traces.

One validator runs on every state, those the moves make included: Partition's
part rule, then the raft rules in one pass over the sorted rafts, one bisect
each.  Since parts strictly increase, rafts a < b share a run exactly when
their indices differ by b - a.  The pass keeps the first raft that breaks
each rule, and the RaftError names the first broken rule in a fixed order.
Every state the package builds, not only a move's, comes from _checked_state,
which runs that validator without the dataclass dispatch.

A configuration is minimal when no designated raft can move backward.
Minimal configurations have rigid structure (consecutive parts from 1 up with
one missing part above each lower raft), captured by MinimalProfile, and every
configuration decomposes uniquely as moves applied to a minimal one.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import lt
from typing import Iterator

from .partitions import (
    EvenPartition,
    Partition,
    _check_parts,
    _eligible_rafts,
    iter_gap_exact,
    parse_rafted_text,
    render_rafted_text,
)

__all__ = [
    "RaftedPartition",
    "MinimalProfile",
    "RaftError",
    "MoveError",
    "decompose",
    "decompose_with_trace",
    "compose",
    "compose_with_trace",
    "enumerate_minimal",
    "enumerate_rafted",
    "minimal_profile",
]


class RaftError(ValueError):
    """An invalid raft designation (broken pair, collision, non-terminal)."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(f"{reason}: {detail}")


class MoveError(ValueError):
    """A raft move that is not applicable in the current configuration."""


@dataclass(frozen=True, slots=True)
class RaftedPartition:
    """A distinct-part partition plus a set of designated rafts.

    Rafts are named by their smaller member and stored sorted.  Validation
    enforces, in order: both pair members present; at most one designated
    raft per run; k+2 absent for every designated raft k.
    """

    partition: Partition
    rafts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rafts", _valid_rafts(self.partition, self.rafts))

    # -- conveniences -------------------------------------------------------

    @classmethod
    def of(cls, parts, rafts=()) -> "RaftedPartition":
        return cls(Partition(tuple(sorted(parts))), tuple(sorted(rafts)))

    @classmethod
    def parse(cls, text: str) -> "RaftedPartition":
        return _checked_state(*parse_rafted_text(text))

    @property
    def weight(self) -> int:
        return self.partition.weight

    def __str__(self) -> str:
        return render_rafted_text(self.partition.parts, self.rafts)

    def _rank(self, k: int) -> int:
        """Index of designated raft k in self.rafts; MoveError when k is not one."""
        if k not in self.rafts:
            raise MoveError(f"move-not-applicable: {k} is not a designated raft of {self}")
        return self.rafts.index(k)

    def _move(self, rank: int, step: tuple[int, int, int, str | None]) -> "RaftedPartition":
        """The raft at this rank moved by its step; MoveError when the step is refused."""
        i, low, new_raft, refusal = step
        if refusal:
            raise MoveError(f"move-not-applicable: {refusal}")
        parts, rafts = self.partition.parts, self.rafts
        return _checked_state(parts[:i] + (low, low + 1) + parts[i + 2:],
                              rafts[:rank] + (new_raft,) + rafts[rank + 1:])

    # -- forward move -------------------------------------------------------

    def _forward_step(self, k: int) -> tuple[int, int, int, str | None]:
        """Raft k's forward splice (i, low, new raft, refusal or None): low = k+1."""
        parts = self.partition.parts
        i = bisect_left(parts, k)
        j = i + 2
        if j == len(parts) or parts[j] != k + 3:
            return i, k + 1, k + 1, None
        while j + 1 < len(parts) and parts[j + 1] == parts[j] + 1:
            j += 1
        e = parts[j]
        if e - 1 in self.rafts:
            return i, k + 1, e - 1, (f"raft [{k},{k + 1}] is blocked by designated "
                                     f"raft [{e - 1},{e}] at the end of the run ahead")
        return i, k + 1, e - 1, None

    def can_forward(self, k: int) -> bool:
        return k in self.rafts and self._forward_step(k)[3] is None

    def forward(self, k: int) -> "RaftedPartition":
        """Move raft k up, gaining weight 2: remove k, add k+2."""
        return self._move(self._rank(k), self._forward_step(k))

    # -- backward move ------------------------------------------------------

    def _backward_step(self, k: int) -> tuple[int, int, int, str | None]:
        """Raft k's backward splice (i, low, new raft, refusal or None): low = new raft = a-1."""
        parts = self.partition.parts
        i = bisect_left(parts, k)
        while i and parts[i - 1] == parts[i] - 1:
            i -= 1
        a = parts[i]
        if a < 2:
            return i, a - 1, a - 1, f"raft [{k},{k + 1}] sits on a run starting at 1"
        if a - 3 in self.rafts:
            return i, a - 1, a - 1, (f"raft [{k},{k + 1}] is blocked by designated "
                                     f"raft [{a - 3},{a - 2}] just below its run")
        return i, a - 1, a - 1, None

    def can_backward(self, k: int) -> bool:
        return k in self.rafts and self._backward_step(k)[3] is None

    def backward(self, k: int) -> "RaftedPartition":
        """Move raft k down, losing weight 2: remove a+1, add a-1 (a = run start)."""
        return self._move(self._rank(k), self._backward_step(k))

    # -- minimality ---------------------------------------------------------

    def is_minimal(self) -> bool:
        """No designated raft admits a backward move."""
        return all(not self.can_backward(k) for k in self.rafts)


def _valid_rafts(partition: Partition, rafts) -> tuple[int, ...]:
    """rafts as a sorted tuple, once every raft rule holds in partition.

    One pass over the sorted rafts, one bisect each, states each rule once
    and keeps the first raft that breaks it: its pair present, no repeat, no
    run shared with the raft before it, and k+2 absent.  After the pass the
    RaftError names the first broken rule in this order: pair-broken, then
    colliding (a repeated raft, then a shared run), then not-terminal.  A
    sorted tuple is neither copied nor sorted; any other designation is
    validated as its sorted copy.
    """
    if type(rafts) is not tuple:
        rafts = tuple(rafts)
    parts = partition.parts
    n = len(parts)
    broken = shared = open_top = None
    repeated = False
    # parts strictly increase, so rafts a < b share a run exactly when their
    # indices differ by b - a; from (rafts[0], -1) the first raft never does
    prev_k, prev_i = (rafts[0] if rafts else 0), -1
    for k in rafts:
        if k < prev_k:
            return _valid_rafts(partition, tuple(sorted(rafts)))
        i = bisect_left(parts, k)
        # a raft that breaks one rule is not tried on the later ones, which
        # rank below it
        if i + 1 >= n or parts[i] != k or parts[i + 1] != k + 1:
            if broken is None:
                broken = k
        elif i - prev_i == k - prev_k:
            if k == prev_k:
                repeated = True
            elif shared is None:
                shared = prev_k, k
        elif i + 2 < n and parts[i + 2] == k + 2 and open_top is None:
            open_top = k
        prev_k, prev_i = k, i
    if broken is not None:
        raise RaftError("raft-pair-broken",
                        f"raft [{broken},{broken + 1}] needs both members in {partition}")
    if repeated:
        raise RaftError("colliding-rafts", f"repeated raft in {rafts}")
    if shared is not None:
        lo, k = shared
        raise RaftError("colliding-rafts",
                        f"rafts [{lo},{lo + 1}] and [{k},{k + 1}] share a run in {partition}")
    if open_top is not None:
        k = open_top
        raise RaftError("raft-not-terminal",
                        f"raft [{k},{k + 1}] has {k + 2} present in {partition}")
    return rafts


# bound once: object.__new__, and the slots' member descriptors, whose __set__
# writes a field of a frozen instance past the dataclass's __setattr__ guard
_new = object.__new__
_set_parts = Partition.parts.__set__
_set_partition = RaftedPartition.partition.__set__
_set_rafts = RaftedPartition.rafts.__set__


def _checked_state(parts: tuple[int, ...], rafts: tuple[int, ...]) -> RaftedPartition:
    """RaftedPartition(Partition(parts), rafts), built without the dataclass calls.

    Every state the package builds comes from here: parse, to_rafted, both
    enumerations and the moves.  Partition's part rule and every raft rule
    still run; only the two frozen dataclasses' __init__ and __post_init__
    dispatch is skipped.
    """
    _check_parts(parts)
    p = _new(Partition)
    _set_parts(p, parts)
    rp = _new(RaftedPartition)
    _set_partition(rp, p)
    _set_rafts(rp, _valid_rafts(p, rafts))
    return rp


# ---------------------------------------------------------------------------
# decomposition into (minimal, even partition)


def decompose_with_trace(
    rp: RaftedPartition,
) -> tuple[RaftedPartition, EvenPartition, list[tuple[RaftedPartition, int, RaftedPartition]]]:
    """Back every raft down, smallest first; record each move.

    Returns (beta, eta, moves) where eta = (eta_1 >= ... >= eta_k) lists twice
    the number of backward moves applied to the largest raft first, and moves
    holds (before, raft, after) triples in execution order.
    """
    current = rp
    counts: list[int] = []  # smallest raft first
    moves: list[tuple[RaftedPartition, int, RaftedPartition]] = []
    record = moves.append
    for rank in range(len(rp.rafts)):
        n = 0
        while True:
            k = current.rafts[rank]
            step = current._backward_step(k)
            if step[3]:
                break
            nxt = current._move(rank, step)
            record((current, k, nxt))
            current = nxt
            n += 1
        counts.append(2 * n)
    eta = EvenPartition(tuple(reversed(counts)))
    return current, eta, moves


def decompose(rp: RaftedPartition) -> tuple[RaftedPartition, EvenPartition]:
    beta, eta, _ = decompose_with_trace(rp)
    return beta, eta


def compose_with_trace(
    beta: RaftedPartition, eta: EvenPartition
) -> tuple[RaftedPartition, list[tuple[RaftedPartition, int, RaftedPartition]]]:
    """Replay eta on a minimal configuration, largest raft first.

    eta_i/2 forward moves go to the i-th largest raft.  Raises MoveError with
    reason not-minimal when beta admits a backward move, and ValueError with
    reason invalid-eta when eta does not fit beta's raft count.
    """
    k = len(beta.rafts)
    if len(eta) != k:
        raise ValueError(
            f"invalid-eta: {len(eta.parts)} parts for {k} rafts in {beta}"
        )
    if not beta.is_minimal():
        raise MoveError(f"not-minimal: {beta} admits a backward move")
    current = beta
    moves: list[tuple[RaftedPartition, int, RaftedPartition]] = []
    record = moves.append
    for i, amount in enumerate(eta.parts):
        rank = k - 1 - i  # largest raft first
        for _ in range(amount // 2):
            raft = current.rafts[rank]
            nxt = current._move(rank, current._forward_step(raft))
            record((current, raft, nxt))
            current = nxt
    return current, moves


def compose(beta: RaftedPartition, eta: EvenPartition) -> RaftedPartition:
    result, _ = compose_with_trace(beta, eta)
    return result


# ---------------------------------------------------------------------------
# minimal configurations


@dataclass(frozen=True, slots=True)
class MinimalProfile:
    """Coordinates of a minimal configuration.

    raft_positions r_1 < ... < r_k; tail holds the free parts at r_k + 3 and
    above.  The property ``mu`` is computed from the positions.
    """

    raft_positions: tuple[int, ...]
    tail: tuple[int, ...]

    def __post_init__(self) -> None:
        r = self.raft_positions
        if not r:
            raise ValueError("a profile needs at least one raft")
        if any(b - a < 3 for a, b in zip(r, r[1:])) or r[0] < 1:
            raise ValueError(f"raft positions must climb by >= 3 from >= 1, got {r}")
        if any(p < r[-1] + 3 for p in self.tail):
            raise ValueError(f"tail parts must be >= {r[-1] + 3}, got {self.tail}")
        if not all(map(lt, self.tail, self.tail[1:])):
            raise ValueError(f"tail parts must be strictly increasing, got {self.tail}")

    @property
    def mu(self) -> tuple[int, ...]:
        """mu_j = r_{k-j} + 2 - 3(k-j): the offsets of the k-1 missing parts
        against the tightest staircase 3, 6, ..., 3(k-1), largest first.

        Non-increasing, and each lies in [0, r_k - 3k + 2]: positions from >= 1
        climbing by >= 3 give r_i >= 3i - 2 and r_k - r_i >= 3(k - i).
        """
        r = self.raft_positions
        k = len(r)
        return tuple(r[k - 1 - j] + 2 - 3 * (k - j) for j in range(1, k))

    @classmethod
    def from_positions(cls, raft_positions, tail=()) -> "MinimalProfile":
        return cls(tuple(sorted(raft_positions)), tuple(sorted(tail)))

    def to_rafted(self) -> RaftedPartition:
        r = self.raft_positions
        missing = {rj + 2 for rj in r[:-1]}
        low = [p for p in range(1, r[-1] + 2) if p not in missing]
        return _checked_state(tuple(low) + self.tail, r)


def minimal_profile(rp: RaftedPartition) -> MinimalProfile:
    """Extract the profile of a minimal configuration with >= 1 raft."""
    if not rp.rafts:
        raise ValueError("a profile needs at least one raft")
    if not rp.is_minimal():
        raise MoveError(f"not-minimal: {rp} admits a backward move")
    tail = tuple(p for p in rp.partition.parts if p > rp.rafts[-1] + 1)
    return MinimalProfile.from_positions(rp.rafts, tail)


def enumerate_minimal(k: int, max_weight: int,
                      min_weight: int = 0) -> Iterator[RaftedPartition]:
    """All minimal configurations with exactly k rafts, weight in [min_weight, max_weight].

    Constructive: choose raft positions climbing by >= 3, fill in the forced
    prefix, then append any distinct-part tail at r_k + 3 or above, drawn
    weight by weight, only at the tail weights that reach min_weight.
    Ordered by (weight, parts, rafts).
    """
    if k < 1:
        raise ValueError(f"raft count must be >= 1, got {k}")

    def prefix_weight(r: tuple[int, ...]) -> int:
        top = r[-1] + 1
        return top * (top + 1) // 2 - sum(rj + 2 for rj in r[:-1])

    def vectors(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        j = len(prefix)
        if j == k:
            if prefix_weight(prefix) <= max_weight:
                yield prefix
            return
        start = prefix[-1] + 3 if prefix else 1
        for r in itertools.count(start):
            tight = prefix + tuple(r + 3 * i for i in range(k - j))
            if prefix_weight(tight) > max_weight:
                break
            yield from vectors(prefix + (r,))

    found: list[RaftedPartition] = []
    for r in vectors(()):
        # r is checked once; a bad tail would break the state's own rules
        head = MinimalProfile(r, ()).to_rafted().partition.parts
        base = prefix_weight(r)
        for w in range(max(0, min_weight - base), max_weight - base + 1):
            for tail in iter_gap_exact(w, 1, r[-1] + 3):
                found.append(_checked_state(head + tail, r))
    found.sort(key=lambda rp: (rp.weight, rp.partition.parts, rp.rafts))
    yield from found


def enumerate_rafted(k: int, max_weight: int,
                     min_weight: int = 0) -> Iterator[RaftedPartition]:
    """All configurations with exactly k designated rafts, weight in [min_weight, max_weight].

    Filter route, streamed weight by weight: each distinct-part partition of
    that weight, in lexicographic order, crossed with every size-k subset of
    its eligible rafts, in lexicographic order.  So the stream is ordered by
    (weight, parts, rafts), and nothing heavier than the last item is drawn.
    """
    if k < 0:
        raise ValueError(f"raft count must be >= 0, got {k}")
    for w in range(min_weight, max_weight + 1):
        for parts in iter_gap_exact(w, 1):
            elig = _eligible_rafts(parts)
            if len(elig) >= k:
                for combo in itertools.combinations(elig, k):
                    yield _checked_state(parts, combo)
