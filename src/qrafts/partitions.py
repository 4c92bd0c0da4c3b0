"""Partitions into distinct parts: the model, one exact-weight generator,
and the bracketed text format.

Parts are kept strictly increasing.  A run is a maximal block of consecutive
parts; the top pair of any run of length >= 2 is an eligible raft, named by
its smaller member.  A designation picks an arbitrary subset of the eligible
rafts, so a partition with R qualifying runs has exactly 2^R designations.
The rafts module designates, moves and lists them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import lt
from typing import Iterator

__all__ = [
    "Partition",
    "EvenPartition",
    "iter_gap_exact",
    "parse_rafted_text",
    "render_rafted_text",
]


@dataclass(frozen=True, slots=True)
class Partition:
    """A partition into distinct parts, stored strictly increasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_parts(self.parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(sorted(parts)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

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


def _check_parts(parts: tuple[int, ...]) -> None:
    """Partition's rule: ValueError unless parts strictly increase from >= 1."""
    if not all(map(lt, (0, *parts), parts)):
        raise ValueError(f"parts must be strictly increasing positive integers, got {parts}")


# ---------------------------------------------------------------------------
# enumeration


def iter_gap_exact(weight: int, gap: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Gap->= gap partitions of exact weight, lexicographically ascending.

    A part p either is the last one (p = remaining) or leaves a rest of at
    least p + gap, so p <= (remaining - gap) // 2; every p in that range has
    at least the one-part tail, and the last part sorts after all of them.
    """
    # parts are positive and strictly increase, so both bounds must be >= 1
    if gap < 1:
        raise ValueError(f"need gap >= 1, got {gap}")
    if min_part < 1:
        raise ValueError(f"need min_part >= 1, got {min_part}")
    if weight < 0:
        return
    if weight == 0:
        yield ()
        return

    prefix: list[int] = []

    def rec(remaining: int, low: int) -> Iterator[tuple[int, ...]]:
        for p in range(low, (remaining - gap) // 2 + 1):
            prefix.append(p)
            yield from rec(remaining - p, p + gap)
            prefix.pop()
        if remaining >= low:
            yield (*prefix, remaining)

    yield from rec(weight, min_part)


# ---------------------------------------------------------------------------
# text format


def render_rafted_text(parts: tuple[int, ...], rafts: tuple[int, ...]) -> str:
    """Bracketed text: designated raft pairs fuse into one [k,k+1] item."""
    if not parts:
        return "()"
    items = []
    i, n = 0, len(parts)
    while i < n:
        p = parts[i]
        if p in rafts and i + 1 < n and parts[i + 1] == p + 1:
            items.append(f"[{p},{p + 1}]")
            i += 2
        else:
            items.append(str(p))
            i += 1
    return ",".join(items)


# one item and the whitespace around it: a part, or a raft bracket [a,b]
_ITEM = re.compile(r"\s*(?:([0-9]+)|\[\s*([0-9]+)\s*,\s*([0-9]+)\s*\])\s*")


def parse_rafted_text(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of render_rafted_text; returns (parts, rafts), both sorted.

    Items are separated by single commas; whitespace may surround items,
    brackets and commas but not split a number.  Syntax errors raise
    ValueError; semantic raft rules are checked by RaftedPartition, not here.
    """
    if not text.strip():
        raise ValueError("empty input; the empty partition is written '()'")
    if text.strip() == "()":
        return (), ()
    parts: list[int] = []
    rafts: list[int] = []
    pos = 0
    while True:
        m = _ITEM.match(text, pos)
        if m is None:
            raise ValueError(f"expected a part or a raft [k,k+1] at offset {pos} of {text!r}")
        single, a, b = m.groups()
        if single is not None:
            parts.append(int(single))
        else:
            a, b = int(a), int(b)
            if b != a + 1:
                raise ValueError(f"a raft must be a consecutive pair, got [{a},{b}]")
            parts += [a, b]
            rafts.append(a)
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != ",":
            raise ValueError(f"expected ',' at offset {pos} of {text!r}")
        pos += 1
    parts.sort()
    if parts[0] < 1:
        raise ValueError(f"parts must be positive, got {parts[0]}")
    if not all(map(lt, parts, parts[1:])):
        raise ValueError(f"repeated part in {text!r}")
    return tuple(parts), tuple(sorted(rafts))
