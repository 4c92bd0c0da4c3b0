"""Partitions into distinct parts: enumeration, runs, and raft designations.

Parts are kept strictly increasing.  A run is a maximal block of consecutive
parts; the top pair of any run of length >= 2 is an eligible raft, named by
its smaller member.  A designation picks an arbitrary subset of the eligible
rafts, so a partition with R qualifying runs has exactly 2^R designations.

The enumeration generators come in two flavours: ordered (weight ascending,
then lexicographic, for user-facing listings) and tree-order (each partition
exactly once, for the constructive enumerators and the tests' brute counts,
where order is irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Partition",
    "Run",
    "EvenPartition",
    "enumerate_distinct",
    "iter_distinct_parts",
    "iter_distinct_exact",
    "iter_gap_parts",
    "iter_gap_exact",
    "enumerate_designations",
    "parse_rafted_text",
    "render_rafted_text",
]


@dataclass(frozen=True, slots=True)
class Run:
    """Maximal consecutive block start, start+1, ..., start+length-1."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True, slots=True)
class Partition:
    """A partition into distinct parts, stored strictly increasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for p in self.parts:
            if p <= prev:
                raise ValueError(
                    f"parts must be strictly increasing positive integers, got {self.parts}"
                )
            prev = p

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(sorted(parts)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def runs(self) -> tuple[Run, ...]:
        return tuple(Run(s, l) for s, l in runs_of(self.parts))

    def eligible_rafts(self) -> tuple[int, ...]:
        """Smaller members of the top pairs of all runs of length >= 2."""
        return tuple(r.end - 1 for r in self.runs() if r.length >= 2)

    def is_d_distinct(self, d: int) -> bool:
        """All gaps between successive parts >= d (1-distinct = distinct)."""
        return all(b - a >= d for a, b in zip(self.parts, self.parts[1:]))

    def has_k_sequence(self, k: int) -> bool:
        """Whether some run has length >= k."""
        if k <= 1:
            return bool(self.parts) or k <= 0
        return any(l >= k for _, l in runs_of(self.parts))

    def __str__(self) -> str:
        return render_rafted_text(self.parts, ())


@dataclass(frozen=True, slots=True)
class EvenPartition:
    """Non-increasing even parts, zeros allowed; length is meaningful."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = None
        for p in self.parts:
            if p < 0 or p % 2:
                raise ValueError(f"parts must be non-negative and even, got {self.parts}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be non-increasing, got {self.parts}")
            prev = p

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def runs_of(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, length) of each maximal consecutive block, in order."""
    out = []
    i, n = 0, len(parts)
    while i < n:
        j = i
        while j + 1 < n and parts[j + 1] == parts[j] + 1:
            j += 1
        out.append((parts[i], j - i + 1))
        i = j + 1
    return out


# ---------------------------------------------------------------------------
# enumeration


def iter_distinct_parts(max_weight: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """All distinct-part tuples with sum <= max_weight, each exactly once.

    Tree order (prefix-extension), not sorted by weight; meant for oracle
    accumulation where only coverage matters.
    """
    return iter_gap_parts(max_weight, 1, min_part)


def iter_gap_parts(max_weight: int, gap: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Distinct-part tuples with successive gaps >= gap and sum <= max_weight."""
    if max_weight < 0:
        return
    prefix: list[int] = []

    def rec(budget: int, low: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        p = low
        while p <= budget:
            prefix.append(p)
            yield from rec(budget - p, p + gap)
            prefix.pop()
            p += 1

    yield from rec(max_weight, min_part)


def iter_distinct_exact(weight: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Distinct-part tuples of exact weight, lexicographically ascending."""
    return iter_gap_exact(weight, 1, min_part)


def iter_gap_exact(weight: int, gap: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Gap->= gap partitions of exact weight, lexicographically ascending.

    Feasibility prune: after taking p, the remainder must be 0 or >= p+gap
    (a single larger part always works, so the bound is tight).
    """
    if weight < 0:
        return
    if weight == 0:
        yield ()
        return

    def rec(remaining: int, low: int) -> Iterator[tuple[int, ...]]:
        for p in range(low, remaining + 1):
            rest = remaining - p
            if rest == 0:
                yield (p,)
            elif rest >= p + gap:
                for tail in rec(rest, p + gap):
                    yield (p,) + tail

    yield from rec(weight, min_part)


def enumerate_distinct(max_weight: int) -> Iterator[Partition]:
    """All distinct-part partitions, weight ascending then lexicographic."""
    for w in range(max_weight + 1):
        for parts in iter_distinct_exact(w):
            yield Partition(parts)


def enumerate_designations(p: Partition) -> Iterator[tuple[int, ...]]:
    """All 2^R subsets of the eligible rafts, in binary counting order.

    Bit i of the counter toggles the i-th smallest eligible raft, so the
    order is deterministic: (), smallest alone, next alone, both, ...
    """
    elig = p.eligible_rafts()
    for mask in range(1 << len(elig)):
        yield tuple(r for i, r in enumerate(elig) if mask >> i & 1)


# ---------------------------------------------------------------------------
# text format


def render_rafted_text(parts: tuple[int, ...], rafts: tuple[int, ...]) -> str:
    """Bracketed text: designated raft pairs fuse into one [k,k+1] item."""
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


def parse_rafted_text(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of render_rafted_text; returns (parts, rafts), both sorted.

    Syntax errors raise ValueError; semantic raft rules are checked by
    RaftedPartition, not here.
    """
    text = "".join(text.split())
    if not text:
        raise ValueError("empty input; the empty partition is written '()'")
    if text == "()":
        return (), ()
    parts: list[int] = []
    rafts: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] == "[":
            j = text.find("]", i)
            if j < 0:
                raise ValueError(f"unclosed bracket in {text!r}")
            inner = text[i + 1 : j].split(",")
            if len(inner) != 2:
                raise ValueError(f"a raft bracket needs exactly two parts: {text[i:j+1]!r}")
            a, b = (int(s) for s in inner)
            if a < 1:
                raise ValueError(f"parts must be positive, got {a}")
            if b != a + 1:
                raise ValueError(f"a raft must be a consecutive pair, got [{a},{b}]")
            parts += [a, b]
            rafts.append(a)
            i = j + 1
            if i < n:
                if text[i] != ",":
                    raise ValueError(f"expected ',' after bracket in {text!r}")
                i += 1
        else:
            j = text.find(",", i)
            k = text.find("[", i)
            stop = min(x for x in (j, k, n) if x >= 0)
            tok = text[i:stop].strip()
            if not tok:
                raise ValueError(f"empty item in {text!r}")
            value = int(tok)
            if value < 1:
                raise ValueError(f"parts must be positive, got {value}")
            parts.append(value)
            i = stop
            if i < n and text[i] == ",":
                i += 1
    ordered = tuple(sorted(parts))
    if len(set(parts)) != len(parts):
        raise ValueError(f"repeated part in {text!r}")
    return ordered, tuple(sorted(rafts))
