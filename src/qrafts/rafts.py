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

The engine works on one int bitset of the parts, bit p set when p is a part.
Each move is one flip of two bits, bits ^ (5 << low) with low = k forward
(k leaves, k+2 joins) and low = a-1 backward (a+1 leaves, a-1 joins), and
the weight moves by 2.  The run start a is one past the highest clear bit
below k, (~bits & ((1 << k) - 1)).bit_length(), and the end of an obstacle
run one below the lowest clear bit above k+3.  One step function per
direction, _forward_step and _backward_step on (bits, rafts, k), finds the
flip, the new raft, the gain and whether the step is refused; the can_*
methods and is_minimal read only that flag.  One loop, _move_raft, makes
every move: once for forward and backward, until refused for
decompose_with_trace, eta_i/2 times for compose_with_trace.  It keeps the
bitset, rafts and weight in locals, builds each state through _state and
takes the rafts back from it; only a refusal that raises builds its text.

Every state the package builds comes from _state, which runs the part rule
on the bitset (no part 0: a bitset holds no repeated or unsorted part), then
one validator of the raft rules: a sorted designation passes with one shift
per raft, and any other is sorted or refused with a RaftError that names the
first broken rule in a fixed order.  A state built from a part tuple (the
constructor, parse, to_rafted, both enumerations) runs Partition's part rule
on the tuple first, in _checked_state.

The rafted listing recurses over the distinct-part partitions of each weight
with the open run's length and the eligible rafts so far, and skips every
subtree whose remaining weight cannot hold enough new runs of length >= 2 to
reach k rafts (_runs_exact).

A configuration is minimal when no designated raft can move backward.
Minimal configurations have rigid structure (consecutive parts from 1 up with
one missing part above each lower raft), captured by MinimalProfile, and every
configuration decomposes uniquely as moves applied to a minimal one.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from operator import attrgetter, lshift, lt
from typing import Iterator

from .partitions import (
    EvenPartition,
    Partition,
    _check_parts,
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


def _refuse(name: str):
    """A property setter that refuses, as a frozen dataclass does."""
    def refuse(self, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    return refuse


class RaftedPartition:
    """A distinct-part partition plus a set of designated rafts.

    Rafts are named by their smaller member and stored sorted.  Validation
    enforces, in order: both pair members present; at most one designated
    raft per run; k+2 absent for every designated raft k.

    The parts are held as one int bitset, bit p set when p is a part, beside
    the sorted rafts and the weight; ``partition`` is built from the bitset
    where it is read.  The bitset takes one bit per integer up to the largest
    part: a part near 10^6 costs about 125 KB in every state that holds it.
    Instances are frozen, and equal states hash equal.
    """

    __slots__ = ("_bits", "_rafts", "_weight", "_parts")
    __match_args__ = ("partition", "rafts")

    def __new__(cls, partition: Partition, rafts) -> "RaftedPartition":
        return _checked_state(partition.parts, rafts)

    # -- conveniences -------------------------------------------------------

    @classmethod
    def of(cls, parts, rafts=()) -> "RaftedPartition":
        return cls(Partition(tuple(sorted(parts))), tuple(sorted(rafts)))

    @classmethod
    def parse(cls, text: str) -> "RaftedPartition":
        return _checked_state(*parse_rafted_text(text))

    def _part_tuple(self) -> tuple[int, ...]:
        """The parts, ascending: read from the bitset once, then kept."""
        parts = self._parts
        if parts is None:
            parts = self._parts = _parts_of(self._bits)
        return parts

    def _partition(self) -> Partition:
        p = _new(Partition)
        _set_parts(p, self._part_tuple())
        return p

    # the fields read through properties, so that the package's own code
    # stores the slots directly; assigning a field raises, as on a frozen
    # dataclass
    partition = property(_partition, _refuse("partition"))
    rafts = property(attrgetter("_rafts"), _refuse("rafts"), doc="The designated rafts, sorted.")
    weight = property(attrgetter("_weight"), _refuse("weight"), doc="The sum of the parts.")

    def __str__(self) -> str:
        return render_rafted_text(self._part_tuple(), self._rafts)

    def __repr__(self) -> str:
        return f"RaftedPartition(partition={self.partition!r}, rafts={self.rafts!r})"

    def __eq__(self, other):
        if type(other) is not RaftedPartition:
            return NotImplemented
        return self._bits == other._bits and self._rafts == other._rafts

    def __hash__(self) -> int:
        return hash((self._bits, self._rafts))

    def __reduce__(self):
        return RaftedPartition, (self.partition, self._rafts)

    # -- moves --------------------------------------------------------------

    def _rank(self, k: int) -> int:
        """Index of designated raft k in self.rafts; MoveError when k is not one."""
        if k not in self._rafts:
            raise MoveError(f"move-not-applicable: {k} is not a designated raft of {self}")
        return self._rafts.index(k)

    def can_forward(self, k: int) -> bool:
        return k in self._rafts and not _forward_step(self._bits, self._rafts, k)[3]

    def forward(self, k: int) -> "RaftedPartition":
        """Move raft k up, gaining weight 2: remove k, add k+2."""
        return _move_raft(self, self._rank(k), _forward_step, 1, None)[0]

    def can_backward(self, k: int) -> bool:
        return k in self._rafts and not _backward_step(self._bits, self._rafts, k)[3]

    def backward(self, k: int) -> "RaftedPartition":
        """Move raft k down, losing weight 2: remove a+1, add a-1 (a = run start)."""
        return _move_raft(self, self._rank(k), _backward_step, 1, None)[0]

    # -- minimality ---------------------------------------------------------

    def is_minimal(self) -> bool:
        """No designated raft admits a backward move."""
        bits, rafts = self._bits, self._rafts
        return all(_backward_step(bits, rafts, k)[3] for k in rafts)


# ---------------------------------------------------------------------------
# the step of one raft, on the bitset and the sorted rafts


def _forward_step(bits: int, rafts: tuple[int, ...], k: int) -> tuple[int, int, int, bool]:
    """Raft k's forward step (flip, new raft, gain, refused): k leaves and k+2
    joins, so the flip is bits k and k+2 (5 << k) and the gain 2."""
    flip = 5 << k
    ahead = bits >> k + 3
    if not ahead & 1:
        return flip, k + 1, 2, False
    # the run ahead is k+3..e: ahead ^ (ahead + 1) has one bit per part of it
    # and one more
    e = k + 1 + (ahead ^ (ahead + 1)).bit_length()
    return flip, e - 1, 2, e - 1 in rafts


def _backward_step(bits: int, rafts: tuple[int, ...], k: int) -> tuple[int, int, int, bool]:
    """Raft k's backward step (flip, new raft, gain, refused): with a the
    start of its run, a+1 leaves and a-1 joins, so the flip is bits a-1 and
    a+1 (5 << a-1), the raft becomes a-1 and the gain is -2."""
    # the highest absent number below k is a-1; 0 is never a part
    a = (~bits & ((1 << k) - 1)).bit_length()
    return 5 << a - 1, a - 1, -2, a < 2 or a - 3 in rafts


def _refusal(k: int, new: int, gain: int) -> MoveError:
    """The error of raft k's refused step, from its new raft and gain."""
    if gain > 0:
        why = f"is blocked by designated raft [{new},{new + 1}] at the end of the run ahead"
    elif new < 1:
        why = "sits on a run starting at 1"
    else:
        why = f"is blocked by designated raft [{new - 2},{new - 1}] just below its run"
    return MoveError(f"move-not-applicable: raft [{k},{k + 1}] {why}")


def _move_raft(state: RaftedPartition, rank: int, step, limit: int | None,
               record) -> tuple[RaftedPartition, int]:
    """(last state, moves made): the raft at this rank moved by step up to
    limit times, or with no limit until refused; a refusal within the limit
    raises.  record, when given, takes each move as (before, raft, after)."""
    bits, rafts, weight = state._bits, state._rafts, state._weight
    n = 0
    while n != limit:  # never equal when limit is None
        k = rafts[rank]
        flip, new_raft, gain, refused = step(bits, rafts, k)
        if refused:
            if limit is None:
                break
            raise _refusal(k, new_raft, gain)
        bits ^= flip
        weight += gain
        moved = list(rafts)
        moved[rank] = new_raft
        after = _state(bits, tuple(moved), weight)
        rafts = after._rafts
        if record is not None:
            record((state, k, after))
        state = after
        n += 1
    return state, n


def _parts_of(bits: int) -> tuple[int, ...]:
    """The parts of a bitset, ascending: where its binary digits, lowest
    first, hold a 1.  str.find skips the 0s in C, so a sparse bitset with a
    part near 10^6 takes milliseconds."""
    digits = bin(bits)[:1:-1]
    parts = []
    p = digits.find("1")
    while p >= 0:
        parts.append(p)
        p = digits.find("1", p + 1)
    return tuple(parts)


def _check_bits(bits: int) -> None:
    """The part rule on a bitset: no part 0.  A bitset holds no repeated or
    unsorted part, so that is the whole of Partition's rule."""
    if bits & 1:
        raise ValueError(f"parts must be strictly increasing positive integers, "
                         f"got {_parts_of(bits)}")


def _valid_rafts(bits: int, rafts) -> tuple[int, ...]:
    """rafts as a sorted tuple, once every raft rule holds on the bitset.

    Raft k >= 1 keeps its own rules when bits k and k+1 are set and bit k+2
    is clear: bits >> k & 7 == 3.  Two such rafts a < b never share a run:
    b = a+1 would need a+2 present, and for b >= a+2 the absent a+2 lies
    between them.  So a strictly increasing tuple that passes the test, one
    shift per raft, keeps every rule and is neither copied nor sorted; any
    other designation goes to _sorted_rafts.
    """
    if type(rafts) is not tuple:
        rafts = tuple(rafts)
    prev = 0
    for k in rafts:
        if k <= prev or bits >> k & 7 != 3:
            return _sorted_rafts(bits, rafts)
        prev = k
    return rafts


def _sorted_rafts(bits: int, rafts: tuple[int, ...]) -> tuple[int, ...]:
    """rafts sorted, once every raft rule holds on the bitset.

    The RaftError names the first broken rule in this order: pair-broken,
    then colliding (a repeated raft, then a shared run), then not-terminal;
    within a rule, the lowest raft that breaks it.  The message renders the
    parts only when it raises.
    """
    rafts = tuple(sorted(rafts))
    for k in rafts:
        if k < 1 or bits >> k & 3 != 3:
            raise RaftError("raft-pair-broken",
                            f"raft [{k},{k + 1}] needs both members in {_text(bits)}")
    if len(set(rafts)) < len(rafts):
        raise RaftError("colliding-rafts", f"repeated raft in {rafts}")
    for a, b in zip(rafts, rafts[1:]):
        # a and b share a run when none of a..b-1 is absent
        if not ~bits >> a & (1 << b - a) - 1:
            raise RaftError("colliding-rafts",
                            f"rafts [{a},{a + 1}] and [{b},{b + 1}] share a run in {_text(bits)}")
    for k in rafts:
        if bits >> k + 2 & 1:
            raise RaftError("raft-not-terminal",
                            f"raft [{k},{k + 1}] has {k + 2} present in {_text(bits)}")
    return rafts


def _text(bits: int) -> str:
    """The parts of a bitset as Partition renders them."""
    return render_rafted_text(_parts_of(bits), ())


# bound once: object.__new__, and Partition's slot descriptor, whose __set__
# writes the field of a frozen dataclass past its __setattr__ guard
_new = object.__new__
_set_parts = Partition.parts.__set__


def _state(bits: int, rafts, weight: int, parts: tuple[int, ...] | None = None) -> RaftedPartition:
    """The state with this bitset, designation and weight, once both rules hold.

    Every state the package builds comes from here: the tuple routes through
    _checked_state, and the moves.  The part rule (_check_bits) and every
    raft rule (_valid_rafts) run on each state.  parts, when given, is the
    bitset's part tuple, kept for the readers of ``partition``.
    """
    _check_bits(bits)
    rp = _new(RaftedPartition)
    rp._bits = bits
    rp._rafts = _valid_rafts(bits, rafts)
    rp._weight = weight
    rp._parts = parts
    return rp


def _checked_state(parts: tuple[int, ...], rafts) -> RaftedPartition:
    """RaftedPartition(Partition(parts), rafts): Partition's rule on the tuple,
    then the state of its bitset.

    The route of every state built from a part tuple: the public
    constructor, parse, to_rafted and both enumerations.
    """
    _check_parts(parts)
    return _state(sum(map(lshift, repeat(1), parts)), rafts, sum(parts), parts)


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
    for rank in range(len(rp._rafts)):
        current, n = _move_raft(current, rank, _backward_step, None, moves.append)
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
    for i, amount in enumerate(eta.parts):
        current, _ = _move_raft(current, k - 1 - i, _forward_step, amount // 2, moves.append)
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
    above.
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

    found: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for r in vectors(()):
        # r is checked once; a bad tail would break the state's own rules
        head = MinimalProfile(r, ()).to_rafted().partition.parts
        base = prefix_weight(r)
        for w in range(max(0, min_weight - base), max_weight - base + 1):
            for tail in iter_gap_exact(w, 1, r[-1] + 3):
                found.append((base + w, head + tail, r))
    found.sort()
    for _, parts, r in found:
        yield _checked_state(parts, r)


def enumerate_rafted(k: int, max_weight: int,
                     min_weight: int = 0) -> Iterator[RaftedPartition]:
    """All configurations with exactly k designated rafts, weight in [min_weight, max_weight].

    Streamed weight by weight: each distinct-part partition of that weight
    with at least k eligible rafts, in lexicographic order (_runs_exact),
    crossed with every size-k subset of its eligible rafts, in lexicographic
    order.  So the stream is ordered by (weight, parts, rafts), and nothing
    heavier than the last item is drawn.
    """
    if k < 0:
        raise ValueError(f"raft count must be >= 0, got {k}")
    for w in range(min_weight, max_weight + 1):
        for parts, elig in _runs_exact(w, k):
            for combo in itertools.combinations(elig, k):
                yield _checked_state(parts, combo)


def _runs_exact(weight: int, k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(parts, eligible rafts) of each distinct-part partition of this exact
    weight with at least k eligible rafts, parts lexicographically ascending.

    The recursion is iter_gap_exact's at gap 1, so the order is its order.
    Beside the parts it keeps the length of the open run (the run ending at
    the last part, low-1; 0 before any part) and the eligible rafts so far,
    the top pair of each run of length >= 2.  The part low extends the open
    run: from length 1 that adds raft low-1, and from length >= 2 it moves
    the run's raft up to low-1.  Any larger part leaves the rafts as they are.

    A node with weight R still to place in parts >= low is skipped when its
    subtree cannot reach k rafts.  Every further raft comes from one of:
      - a new run of length >= 2.  It holds two parts q, q+1 with q >= low,
        of weight >= 2·low + 1, and two new runs share no part;
      - the open run, when it has length 1, reaching length 2.  That takes
        the part low, and the new runs then lie in the weight R - low left.
    Extending a run of length >= 2 adds no raft.  So at most
    max(R // (2·low+1), 1 + (R - low) // (2·low+1)) more rafts fit, the
    second term only when the open run has length 1 (for R < low it is 0).
    """
    if weight < 0:
        return
    prefix: list[int] = []

    def rec(remaining: int, low: int, run: int,
            rafts: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        pair = 2 * low + 1
        more = remaining // pair
        if run == 1:
            more = max(more, 1 + (remaining - low) // pair)
        if len(rafts) + more < k:
            return
        # the rafts once the part low extends the open run
        grown = rafts[:-1] + (low - 1,) if run > 1 else rafts + (low - 1,) if run else rafts
        for p in range(low, (remaining - 1) // 2 + 1):
            prefix.append(p)
            if p == low:
                yield from rec(remaining - p, p + 1, run + 1, grown)
            else:
                yield from rec(remaining - p, p + 1, 1, rafts)
            prefix.pop()
        # the last part
        if remaining >= low:
            last = grown if remaining == low else rafts
            if len(last) >= k:
                yield (*prefix, remaining), last

    if weight == 0:
        if k == 0:
            yield (), ()
        return
    yield from rec(weight, 1, 0, ())
