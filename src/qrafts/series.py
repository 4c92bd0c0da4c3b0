"""Exact truncated power series in q and in (x, q), and the factor steps
that build every product and quotient.

Everything is integer-exact: coefficients are Python ints, and the identity
checks downstream rely on exact cancellation, so no floating point appears
anywhere.  A ``QSeries`` is a formal power series known modulo q^(trunc+1).
``XQSeries`` layers a second variable x on top, sparse in x-degree: absent
degrees are the zero series, and every stored slice shares one q-truncation.
The containers are read-only values: they validate on construction, read
coefficients, slice and substitute, but compute nothing from one another.

Running terms are stepped in place on raw coefficient lists:
``mul_factor``/``div_factor`` multiply or divide by (1 - s*q^a) modulo
q^len(c).  Multiplying is one descending pass and dividing one ascending
pass, so a step costs O(len(c)), and a list cut to its first L coefficients
stays exact on them.  ``_product`` builds a quotient of Pochhammer products
on one packed int instead (Kronecker substitution q = 2^w): a multiply is
one shift and add, a divide log-many, and ``_signed_slots`` reads the
signed w-bit slots back, for ``identities``' packed staircase pass too.
One cancellation rule: what a quotient has on both sides is dropped from
both before any step, since each factor is a unit modulo the truncation and
the steps commute.  ``_product`` counts the factors of each side up to the
truncation order (every later factor is 1 modulo it), cancels the factors
the numerator and denominator share, and steps only the rest;
``identities._terms`` cancels the Pochhammer families that its ratio names
on both sides.  A bivariate builder keeps one coefficient list per x-degree
and files them with ``_from_buffers``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from operator import add, lshift
from typing import Mapping, Sequence

__all__ = [
    "QSeries",
    "XQSeries",
    "PochhammerSpec",
    "mul_factor",
    "div_factor",
    "TruncationMismatchError",
    "NonUnitConstantError",
]


_WORD = (1 << 64) - 1
_BIG_ENDIAN = sys.byteorder == "big"


class TruncationMismatchError(ValueError):
    """An ``XQSeries`` slice whose q-truncation differs from the container's."""


class NonUnitConstantError(ValueError):
    """Division by a factor (1 - s*q^a) whose constant term is not a unit (a = 0)."""


# ---------------------------------------------------------------------------
# univariate series


@dataclass(frozen=True, slots=True)
class QSeries:
    """c_0 + c_1 q + ... + c_trunc q^trunc, known modulo q^(trunc+1)."""

    trunc: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.trunc < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.trunc}")
        if len(self.coeffs) != self.trunc + 1:
            raise ValueError(
                f"need {self.trunc + 1} coefficients for truncation order "
                f"{self.trunc}, got {len(self.coeffs)}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls(trunc, (0,) * (trunc + 1))

    # -- accessors ----------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        if not 0 <= exponent <= self.trunc:
            raise IndexError(f"exponent {exponent} outside [0, {self.trunc}]")
        return self.coeffs[exponent]

    __getitem__ = coefficient

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# in-place factor steps


def mul_factor(c: list[int], sign: int, a: int) -> None:
    """c *= (1 - sign*q^a) in place, modulo q^len(c).

    Descends, so every c[i] is read before the step rewrites it.
    """
    for i in range(len(c) - 1 - a, -1, -1):
        if c[i]:
            c[i + a] -= sign * c[i]


def div_factor(c: list[int], sign: int, a: int) -> None:
    """c /= (1 - sign*q^a) in place, modulo q^len(c); needs a >= 1.

    Ascends, so every c[i - a] read is already divided: the quotient b of
    c by the factor satisfies b[i] = c[i] + sign*b[i - a].
    """
    if a < 1:
        raise NonUnitConstantError(f"(1 - {sign}*q^{a}) has no unit constant term")
    for i in range(a, len(c)):
        if c[i - a]:
            c[i] += sign * c[i - a]


def _add_shifted(dst: list[int], src, coeff: int, a: int) -> None:
    """dst += coeff * q^a * src, modulo q^len(dst); src may be shorter than len(dst) - a."""
    for i in range(min(len(src), len(dst) - a)):
        if src[i]:
            dst[i + a] += coeff * src[i]


# ---------------------------------------------------------------------------
# Pochhammer products


@dataclass(frozen=True, slots=True)
class PochhammerSpec:
    """Infinite product of factors (1 - sign * q^(base_exp + j*step_exp)), j >= 0.

    ``sign`` is the constant multiplying the monomial inside each factor, so
    sign=+1 describes (q^s; q^t)_inf and sign=-1 (-q^s; q^t)_inf.
    """

    sign: int
    base_exp: int
    step_exp: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.base_exp < 1:
            raise ValueError(f"base exponent must be >= 1, got {self.base_exp}")
        if self.step_exp < 1:
            raise ValueError(f"step exponent must be >= 1, got {self.step_exp}")


def _product(trunc: int, num: Sequence[PochhammerSpec] = (),
             den: Sequence[PochhammerSpec] = ()) -> list[int]:
    """prod(num) / prod(den) as a coefficient list modulo q^(trunc+1).

    Each family is a PochhammerSpec.  Exponents increase, so a family's
    factors stop at the first one past trunc: every later factor is 1 modulo
    q^(trunc+1).  power[sign][a] tallies the net multiplicity of the factor
    (1 - sign*q^a), one strided slice per family, so a factor on both sides
    cancels, and ``_packed_factor`` applies each factor left over.

    The steps run on one int x, the series at q = 2^w (Kronecker
    substitution), kept modulo 2^(w L) for L = trunc + 1 slots of w = 64 r
    bits, r = ``_slot_words(F, trunc)`` for the F families of num and den.
    Exactness.  q -> 2^w is a ring homomorphism from Z[q]/(q^L) onto
    Z/2^(w L), and every step is a ring operation there: a multiply by
    1 - s q^a, or a divide by it as a multiply by its inverse modulo q^L.
    So x is congruent to sum_n c_n 2^(w n) modulo 2^(w L), with c_n the
    exact result, whatever size the intermediate values reach, and only the
    result must fit its slots: ``_signed_slots`` reads each c_n back when
    |c_n| < 2^(w-1).  The bound.  Coefficientwise |1 - s q^a| <= 1/(1 - q^a)
    and |1/(1 - s q^a)| = |sum_j s^j q^(a j)| <= 1/(1 - q^a), and absolute
    values of a product are at most the product of the majorants.  A
    family's exponents are distinct and >= 1, so the family or its inverse
    is at most 1/(q;q)_inf, and |c_n| <= p_F(n), the coefficient of (q;q)_inf^-F, F-coloured partitions
    of n.  Apostol's argument for p(n) (Introduction to Analytic Number
    Theory, ch. 14) runs unchanged on P(x)^F: log p_F(n) < F pi^2 / (6 t)
    + n t for x = e^-t, and t = pi sqrt(F / (6 n)) gives
    p_F(n) < exp(pi sqrt(2 F n / 3)), which grows with n.  That is
    pi sqrt(2/3) / ln 2 < 3.71 < 15/4 bits per unit of sqrt(F n) < isqrt(F n)
    + 1, so ``_slot_words`` takes ceil(15 (isqrt(F trunc) + 1) / 4) bits and
    one sign bit.
    """
    power = {1: [0] * (trunc + 1), -1: [0] * (trunc + 1)}
    for families, side in ((num, 1), (den, -1)):
        for f in families:
            p = power[f.sign]
            p[f.base_exp::f.step_exp] = [m + side for m in p[f.base_exp::f.step_exp]]
    r = _slot_words(len(num) + len(den), trunc)
    w = 64 * r
    mask = (1 << (w * (trunc + 1))) - 1
    x = 1
    for sign, p in power.items():
        for a, m in enumerate(p):
            if m:
                x = _packed_factor(x, sign, a, m, w, mask)
    return _signed_slots(x, r, trunc + 1)


def _slot_words(families: int, trunc: int) -> int:
    """64-bit words per slot that hold every coefficient of a quotient of
    ``families`` Pochhammer families to q^trunc, as ``_product`` proves."""
    bits = -(-15 * (isqrt(families * trunc) + 1) // 4) + 1
    return -(-bits // 64)


def _packed_factor(x: int, sign: int, a: int, m: int, w: int, mask: int) -> int:
    """x times (1 - sign*q^a)^m at q = 2^w, modulo mask + 1 = 2^(w L); a >= 1.

    A multiply is x - sign*(x << w a).  A divide multiplies by
    1/(1 - y) = (1 + y)(1 + y^2)(1 + y^4)... for y = sign*q^a: y^(2^k) =
    q^(2^k a) for k >= 1, and the rounds stop once 2^k a >= L, where the
    shift leaves nothing below q^L.
    """
    shift = w * a
    if m > 0:
        for _ in range(m):
            x = (x - (x << shift) if sign == 1 else x + (x << shift)) & mask
        return x
    end = mask.bit_length()
    for _ in range(-m):
        x = (x + (x << shift) if sign == 1 else x - (x << shift)) & mask
        s = shift << 1
        while s < end:
            x = (x + (x << s)) & mask
            s <<= 1
    return x


# ---------------------------------------------------------------------------
# signed slots


def _slot_bits(bit: int, r: int, slots: int) -> int:
    """2^bit in each of the first ``slots`` slots of 64 r bits."""
    return int.from_bytes((1 << bit).to_bytes(8 * r, "little") * slots, "little")


def _signed_slots(v: int, r: int, slots: int, bias: int | None = None) -> list[int]:
    """Slots 0..slots-1 of v, each 64 r bits and signed.

    v is congruent to sum_D s_D 2^(w D) modulo 2^(w slots), w = 64 r, with
    |s_D| < 2^(w-1).  Adding 2^(w-1) to each slot then carries out of none,
    so taking the sum modulo 2^(w slots) and flipping that bit again leaves
    each slot's w-bit two's complement.  The words go through ``array`` in
    the host's byte order, swapped to little-endian on a big-endian host:
    each slot's top word is read signed and the words below it unsigned.

    A caller that reads many ints passes bias, ``_slot_bits(w - 1, r, S)``
    for some S >= slots, built once; its top S - slots slots are shifted off
    here, which leaves the same bits in fewer slots.
    """
    if bias is None:
        bias = _slot_bits(64 * r - 1, r, slots)
    else:
        bias >>= bias.bit_length() - 64 * r * slots
    words = array("q", (((v + bias) ^ bias) & ((1 << (64 * r * slots)) - 1))
                  .to_bytes(8 * r * slots, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    vals = words[r - 1::r]
    for t in range(r - 2, -1, -1):
        vals = map(add, map(lshift, vals, repeat(64)), map(_WORD.__and__, words[t::r]))
    return list(vals)


# ---------------------------------------------------------------------------
# bivariate series


@dataclass(frozen=True)
class XQSeries:
    """Sparse-in-x bivariate series: terms maps x-degree -> QSeries slice.

    Degrees not present are zero.  All slices carry trunc == q_trunc, and only
    degrees 0..x_trunc are representable.  Instances normalise away zero
    slices on construction, so equality is plain field equality.
    """

    x_trunc: int
    q_trunc: int
    terms: Mapping[int, QSeries]

    def __post_init__(self) -> None:
        if self.x_trunc < 0 or self.q_trunc < 0:
            raise ValueError("truncation orders must be >= 0")
        clean: dict[int, QSeries] = {}
        for deg in sorted(self.terms):
            s = self.terms[deg]
            if not 0 <= deg <= self.x_trunc:
                raise ValueError(f"x-degree {deg} outside [0, {self.x_trunc}]")
            if s.trunc != self.q_trunc:
                raise TruncationMismatchError(
                    f"slice at x^{deg} has q-truncation {s.trunc}, expected {self.q_trunc}"
                )
            if not s.is_zero():
                clean[deg] = s
        object.__setattr__(self, "terms", clean)

    # -- accessors ----------------------------------------------------------

    def slice(self, x_deg: int) -> QSeries:
        """Coefficient of x^x_deg as a QSeries (zero when absent)."""
        if not 0 <= x_deg <= self.x_trunc:
            raise IndexError(f"x-degree {x_deg} outside [0, {self.x_trunc}]")
        s = self.terms.get(x_deg)
        return s if s is not None else QSeries.zero(self.q_trunc)

    # -- substitutions ------------------------------------------------------

    def substitute_x_power(self, t: int, sign: int = 1) -> QSeries:
        """Substitute x = sign * q^t, t >= 0 and sign = +1 or -1, as a QSeries:
        x = q^t, x = 1 (t = 0) or x = -1 (t = 0, sign = -1).

        The result is declared valid to q_trunc.  That is an honest claim
        whenever every x-degree-n slice of the underlying object carries at
        least q^n, which holds for all series built here (each tracked part
        contributes at least 1 to the weight); x_trunc = q_trunc then covers
        every x-degree that could touch the retained q-range.
        """
        if t < 0:
            raise ValueError(f"substitution power must be >= 0, got {t}")
        if sign not in (1, -1):
            raise ValueError(f"substitution sign must be +1 or -1, got {sign}")
        nq = self.q_trunc
        out = [0] * (nq + 1)
        for deg, s in self.terms.items():
            base = t * deg
            if base > nq:
                continue
            unit = sign ** deg
            for e in range(nq + 1 - base):
                c = s.coeffs[e]
                if c:
                    out[base + e] += unit * c
        return QSeries(nq, tuple(out))


def _from_buffers(x_trunc: int, q_trunc: int, acc: Mapping[int, list[int]]) -> XQSeries:
    return XQSeries(x_trunc, q_trunc,
                    {d: QSeries(q_trunc, tuple(buf)) for d, buf in acc.items()})
