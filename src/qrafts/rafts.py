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

The engine works on two int bitsets: the parts, bit p set when p is a part,
and the designation, bit k set when [k,k+1] is a designated raft.  A move
flips two bits of the parts, 5 << low with low = k forward (k leaves, k+2
joins) and low = a-1 backward (a+1 leaves, a-1 joins), moves the raft's bit
of the designation from k to its new place, and moves the weight by 2.  The
run start a is one past the highest clear bit below k,
(~bits & ((1 << k) - 1)).bit_length(), and the end of an obstacle run one
below the lowest clear bit above k+3.  One step function per direction,
_forward_step and _backward_step on (bits, rmask, k), finds the new raft and
whether the step is refused; the can_* methods and is_minimal read only that
flag.  One loop, _move_raft, makes every move: once for forward and
backward, until refused for decompose_with_trace, eta_i/2 times for
compose_with_trace.  It keeps both bitsets, the weight and the moving raft's
place in locals and builds each state through _state; only a refusal that
raises builds its text.  The moves and the can_* methods test raft k's bit
in the designation, and the traces and is_minimal take each raft's place
off it, so no move path builds a raft tuple.

Every state the package builds comes from _state, which runs the part rule
(no part 0: a bitset holds no repeated or unsorted part) and the raft rules
as a few int tests on the two bitsets, with no loop.  parse reads both
bitsets and the weight straight from the text and builds no tuple
(partitions._read_rafted_text: one whole-line pattern, then one pass over
the numbers, which finds a part 0 or a repeated part on the part bitset;
any other text goes to parse_rafted_text's item loop).  The rafted listing builds the part bitset as it places the parts
and keeps both tuples beside the bitsets.  A state built from a part tuple
alone (the constructor, to_rafted, enumerate_minimal) runs Partition's part
rule on the tuple first, in _checked_state, and maps its rafts to their
bitset: a strictly increasing tuple directly, any other through
_sorted_rafts, which sorts it or raises the RaftError that names the first
broken rule.  A designation bitset that breaks a rule reaches _sorted_rafts
too, so every RaftError has one text.  The sorted tuples are built from the
bitsets only where they are read.

The rafted listing recurses over the distinct-part partitions of each weight
with the part bitset, the open run's length and the eligible rafts so far,
and skips every subtree whose remaining weight cannot hold the new runs of
length >= 2 that k rafts still need (_runs_exact).

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
    _check_ints,
    _check_parts,
    _read_rafted_text,
    iter_gap_exact,
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

    Rafts are named by their smaller member and read sorted.  Validation
    enforces, in order: both pair members present; at most one designated
    raft per run; k+2 absent for every designated raft k.

    A state is two int bitsets and the weight: the parts, bit p set when p
    is a part, and the designation (rmask), bit k set when raft k is
    designated.  ``partition`` and ``rafts`` are built from them where they
    are read.  Each bitset takes one bit per integer up to its top: a part
    near 10^6 costs about 125 KB in every state that holds it, and a raft
    there about 125 KB more.  Instances are frozen, and equal states hash
    equal.
    """

    __slots__ = ("_bits", "_rmask", "_weight", "_parts", "_rafts")
    __match_args__ = ("partition", "rafts")

    def __new__(cls, partition: Partition, rafts) -> "RaftedPartition":
        return _checked_state(partition.parts, rafts)

    # -- conveniences -------------------------------------------------------

    @classmethod
    def of(cls, parts, rafts=()) -> "RaftedPartition":
        return cls(Partition(tuple(sorted(parts))), tuple(sorted(rafts)))

    @classmethod
    def parse(cls, text: str) -> "RaftedPartition":
        return _state(*_read_rafted_text(text))

    def _part_tuple(self) -> tuple[int, ...]:
        """The parts, ascending: read from the bitset once, then kept."""
        parts = self._parts
        if parts is None:
            parts = self._parts = _ones(self._bits)
        return parts

    def _raft_tuple(self) -> tuple[int, ...]:
        """The rafts, ascending: read from the designation once, then kept."""
        rafts = self._rafts
        if rafts is None:
            rafts = self._rafts = _ones(self._rmask)
        return rafts

    # the fields read through properties, so that the package's own code
    # stores the slots directly; assigning a field raises, as on a frozen
    # dataclass
    partition = property(lambda self: Partition(self._part_tuple()), _refuse("partition"))
    rafts = property(_raft_tuple, _refuse("rafts"), doc="The designated rafts, sorted.")
    weight = property(attrgetter("_weight"), _refuse("weight"), doc="The sum of the parts.")

    def __str__(self) -> str:
        return render_rafted_text(self._part_tuple(), self._raft_tuple())

    def __repr__(self) -> str:
        return f"RaftedPartition(partition={self.partition!r}, rafts={self.rafts!r})"

    def __eq__(self, other):
        if type(other) is not RaftedPartition:
            return NotImplemented
        return self._bits == other._bits and self._rmask == other._rmask

    def __hash__(self) -> int:
        return hash((self._bits, self._rmask))

    def __reduce__(self):
        return RaftedPartition, (self.partition, self.rafts)

    # -- moves --------------------------------------------------------------

    def _designated(self, k: int) -> bool:
        """Whether k is a designated raft: an int >= 1 with its bit set in the
        designation.  Raft 0 is never designated, so no shift is negative."""
        return isinstance(k, int) and k > 0 and self._rmask >> k & 1 == 1

    def _raft(self, k: int) -> int:
        """k, when it is a designated raft; MoveError otherwise."""
        if not self._designated(k):
            raise MoveError(f"move-not-applicable: {k} is not a designated raft of {self}")
        return k

    def can_forward(self, k: int) -> bool:
        return self._designated(k) and not _forward_step(self._bits, self._rmask, k)[1]

    def forward(self, k: int) -> "RaftedPartition":
        """Move raft k up, gaining weight 2: remove k, add k+2."""
        return _move_raft(self, self._raft(k), _forward_step, 1, None)[0]

    def can_backward(self, k: int) -> bool:
        return self._designated(k) and not _backward_step(self._bits, self._rmask, k)[1]

    def backward(self, k: int) -> "RaftedPartition":
        """Move raft k down, losing weight 2: remove a+1, add a-1 (a = run start)."""
        return _move_raft(self, self._raft(k), _backward_step, 1, None)[0]

    # -- minimality ---------------------------------------------------------

    def is_minimal(self) -> bool:
        """No designated raft admits a backward move."""
        bits, rmask = self._bits, self._rmask
        rest = rmask
        while rest:
            k = rest.bit_length() - 1
            if not _backward_step(bits, rmask, k)[1]:
                return False
            rest ^= 1 << k
        return True


# ---------------------------------------------------------------------------
# the step of one raft, on the two bitsets


def _forward_step(bits: int, rmask: int, k: int) -> tuple[int, int]:
    """Raft k's forward step (new raft, refused): k leaves and k+2 joins,
    and the raft ends at the top of the run it reaches.  refused is truthy
    when that run's top pair, at e-1 >= k+3, is designated."""
    ahead = bits >> k + 3
    if not ahead & 1:
        return k + 1, 0
    # the run ahead is k+3..e: ahead ^ (ahead + 1) has one bit per part of it
    # and one more
    e = k + 1 + (ahead ^ (ahead + 1)).bit_length()
    return e - 1, rmask >> e - 1 & 1


def _backward_step(bits: int, rmask: int, k: int) -> tuple[int, int]:
    """Raft k's backward step (new raft, refused): with a the start of its
    run, a+1 leaves and a-1 joins, and the raft becomes a-1.  refused is
    truthy when a < 2 or raft a-3 is designated; there is no raft a-3 at
    a = 2, so no shift count is negative."""
    # the highest absent number below k is a-1; 0 is never a part
    a = (~bits & ((1 << k) - 1)).bit_length()
    return a - 1, a < 2 or a > 2 and rmask >> a - 3 & 1


def _refusal(k: int, new: int) -> MoveError:
    """The error of raft k's refused step to new: forward when new > k."""
    if new > k:
        why = f"is blocked by designated raft [{new},{new + 1}] at the end of the run ahead"
    elif new < 1:
        why = "sits on a run starting at 1"
    else:
        why = f"is blocked by designated raft [{new - 2},{new - 1}] just below its run"
    return MoveError(f"move-not-applicable: raft [{k},{k + 1}] {why}")


def _move_raft(state: RaftedPartition, k: int, step, limit: int | None,
               record) -> tuple[RaftedPartition, int]:
    """(last state, moves made): designated raft k moved by step up to limit
    times, or with no limit until refused; a refusal within the limit raises.
    record, when given, takes each move as (before, raft, after).

    Each move flips two bits of the parts, 5 << k forward and 5 << new
    backward, and moves the raft's bit of the designation from k to new.  No
    other raft moves, so each new designation is rest, the other rafts'
    bits, with 1 << new.
    """
    bits, rmask, weight = state._bits, state._rmask, state._weight
    rest = rmask ^ 1 << k
    n = 0
    while n != limit:  # never equal when limit is None
        new, refused = step(bits, rmask, k)
        if refused:
            if limit is None:
                break
            raise _refusal(k, new)
        if new > k:
            bits ^= 5 << k
            weight += 2
        else:
            bits ^= 5 << new
            weight -= 2
        rmask = rest | 1 << new
        after = _state(bits, rmask, weight)
        if record is not None:
            record((state, k, after))
        state, k = after, new
        n += 1
    return state, n


def _ones(bits: int) -> tuple[int, ...]:
    """The set bits of a bitset, ascending: where its binary digits, lowest
    first, hold a 1.  str.find skips the 0s in C, so a sparse bitset with a
    bit near 10^6 takes milliseconds."""
    digits = bin(bits)[:1:-1]
    ones = []
    p = digits.find("1")
    while p >= 0:
        ones.append(p)
        p = digits.find("1", p + 1)
    return tuple(ones)


def _broken_rule(bits: int, rmask: int) -> None:
    """Raise the error of the first rule a state breaks: the part rule's
    ValueError, else the RaftError of its sorted rafts."""
    if bits & 1:
        raise ValueError(f"parts must be strictly increasing positive integers, "
                         f"got {_ones(bits)}")
    _sorted_rafts(bits, _ones(rmask))


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
    return render_rafted_text(_ones(bits), ())


_new = object.__new__  # bound once


def _state(bits: int, rmask: int, weight: int, parts: tuple[int, ...] | None = None,
           rafts: tuple[int, ...] | None = None) -> RaftedPartition:
    """The state with these two bitsets and weight, once every rule holds.

    Every state the package builds comes from here: parse and the rafted
    listing directly, the tuple routes through _checked_state, and the
    moves.  The rules are a few int tests on the two bitsets, with no loop.
    The part rule is bits & 1 == 0: a bitset holds no repeated or unsorted
    part, so no part 0 is the whole of Partition's rule.  Raft k keeps its
    own rules when k and k+1 are parts and k+2 is not; raft 0 never does,
    as 0 is never a part.  Over the designation: bits holds rmask and
    rmask << 1, and misses rmask << 2.  Two such rafts a < b never share a
    run: b = a+1 would need a+2 present, and for b >= a+2 the absent a+2
    lies between them; a bitset holds no repeated raft.  So these tests
    cover every raft rule.  The first test takes the part rule and the last
    raft rule in one, bits & (rmask << 2 | 1); a state that fails a test
    goes to _broken_rule.

    parts and rafts, when given, are the bitsets' tuples, kept for their
    readers.
    """
    if bits & (rmask << 2 | 1) or bits | rmask | rmask << 1 != bits:
        _broken_rule(bits, rmask)
    rp = _new(RaftedPartition)
    rp._bits = bits
    rp._rmask = rmask
    rp._weight = weight
    rp._parts = parts
    rp._rafts = rafts
    return rp


def _checked_state(parts: tuple[int, ...], rafts, weight: int | None = None) -> RaftedPartition:
    """RaftedPartition(Partition(parts), rafts): Partition's rule on the tuple,
    then the state of its bitset and its rafts' bitset.

    The route of every state built from a part tuple without its bitset:
    the public constructor, to_rafted and enumerate_minimal, which passes
    the weight it sorted by.  Rafts that are not strictly increasing from 1
    go to _sorted_rafts, which sorts them or raises the RaftError that names
    the first broken rule.
    """
    _check_parts(parts)
    bits = sum(map(lshift, repeat(1), parts))
    if type(rafts) is not tuple:
        rafts = tuple(rafts)
    rmask = prev = 0
    for k in rafts:
        if k <= prev:
            rafts = _sorted_rafts(bits, rafts)
            rmask = sum(map(lshift, repeat(1), rafts))
            break
        rmask |= 1 << k
        prev = k
    return _state(bits, rmask, sum(parts) if weight is None else weight, parts, rafts)


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
    rest = rp._rmask  # the rafts still to move, read off the bitset
    while rest:
        k = (rest & -rest).bit_length() - 1
        rest ^= 1 << k
        current, n = _move_raft(current, k, _backward_step, None, moves.append)
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
    rest = beta._rmask  # the rafts still to move, read off the bitset
    if len(eta) != rest.bit_count():
        raise ValueError(
            f"invalid-eta: {len(eta.parts)} parts for {rest.bit_count()} rafts in {beta}"
        )
    if not beta.is_minimal():
        raise MoveError(f"not-minimal: {beta} admits a backward move")
    current = beta
    moves: list[tuple[RaftedPartition, int, RaftedPartition]] = []
    for amount in eta.parts:
        k = rest.bit_length() - 1
        rest ^= 1 << k
        current, _ = _move_raft(current, k, _forward_step, amount // 2, moves.append)
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
        _check_ints("raft positions", r)
        _check_ints("tail parts", self.tail)
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
    for weight, parts, r in found:
        yield _checked_state(parts, r, weight)


def enumerate_rafted(k: int, max_weight: int,
                     min_weight: int = 0) -> Iterator[RaftedPartition]:
    """All configurations with exactly k designated rafts, weight in [min_weight, max_weight].

    Streamed weight by weight: each distinct-part partition of that weight
    with at least k eligible rafts, in lexicographic order (_runs_exact),
    crossed with every size-k subset of its eligible rafts, in lexicographic
    order.  So the stream is ordered by (weight, parts, rafts), and nothing
    heavier than the last item is drawn.  Each state is built from the part
    bitset the recursion made, after Partition's rule on its tuple.
    """
    if k < 0:
        raise ValueError(f"raft count must be >= 0, got {k}")
    for w in range(min_weight, max_weight + 1):
        for parts, elig, bits in _runs_exact(w, k):
            for combo in itertools.combinations(elig, k):
                _check_parts(parts)
                yield _state(bits, sum(map(lshift, repeat(1), combo)), w, parts, combo)


def _runs_exact(weight: int, k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(parts, eligible rafts, part bitset) of each distinct-part partition of
    this exact weight with at least k eligible rafts, parts lexicographically
    ascending.

    The recursion is iter_gap_exact's at gap 1, so the order is its order.
    Beside the parts it keeps their bitset, the length of the open run (the
    run ending at the last part, low-1; 0 before any part) and the eligible
    rafts so far, the top pair of each run of length >= 2.  The part low
    extends the open run: from length 1 that adds raft low-1, and from
    length >= 2 it moves the run's raft up to low-1.  Any larger part leaves
    the rafts as they are.

    A node with weight R still to place in parts >= low, where m = k - (its
    rafts so far) > 0 rafts are missing, is skipped when its subtree cannot
    supply them.  Every further raft comes from one of:
      - a new run of length >= 2 in parts >= low.  Its top pair q, q+1
        weighs 2q + 1, and the next new run's top pair starts at q+3 or
        above, as q+2 is absent.  So j new runs weigh at least
        sum over i < j of 2(low + 3i) + 1 = j(2·low + 1) + 3j(j - 1);
      - the open run, when it has length 1, reaching length 2.  That takes
        the part low, and the new runs then lie in parts >= low+2 and in
        the weight R - low left.
    Extending a run of length >= 2 adds no raft.  So the subtree holds k
    rafts only if R >= m(2·low + 3m - 2), m new runs, or the open run has
    length 1 and R - low >= (m-1)(2·low + 3m - 1), m-1 new runs in parts
    >= low+2; the node is skipped when neither holds.
    """
    if weight < 0:
        return
    prefix: list[int] = []

    def rec(remaining: int, low: int, run: int, rafts: tuple[int, ...],
            bits: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
        m = k - len(rafts)
        if m > 0 and remaining < m * (2 * low + 3 * m - 2) and not (
                run == 1 and remaining - low >= (m - 1) * (2 * low + 3 * m - 1)):
            return
        # the rafts once the part low extends the open run
        grown = rafts[:-1] + (low - 1,) if run > 1 else rafts + (low - 1,) if run else rafts
        for p in range(low, (remaining - 1) // 2 + 1):
            prefix.append(p)
            if p == low:
                yield from rec(remaining - p, p + 1, run + 1, grown, bits | 1 << p)
            else:
                yield from rec(remaining - p, p + 1, 1, rafts, bits | 1 << p)
            prefix.pop()
        # the last part
        if remaining >= low:
            last = grown if remaining == low else rafts
            if len(last) >= k:
                yield (*prefix, remaining), last, bits | 1 << remaining

    if weight == 0:
        if k == 0:
            yield (), (), 0
        return
    yield from rec(weight, 1, 0, (), 0)
