"""Exact truncated power series in q and in (x, q), and the factor steps
that build every product and quotient.

Everything is integer-exact: coefficients are Python ints, and the identity
checks downstream rely on exact cancellation, so no floating point appears
anywhere.  A ``QSeries`` is a formal power series known modulo q^(trunc+1).
``XQSeries`` layers a second variable x on top, sparse in x-degree: absent
degrees are the zero series, and every stored slice shares one q-truncation.
The containers are read-only values: they validate on construction, read
coefficients, slice and substitute, but compute nothing from one another.

Products and quotients are built by in-place factor steps on raw coefficient
lists: ``mul_factor``/``div_factor`` multiply or divide by (1 - s*q^a)
modulo q^len(c).  Multiplying is one descending pass and dividing one
ascending pass, so a step costs O(len(c)), and a list cut to its first L
coefficients stays exact on them.  One cancellation rule: what a quotient
has on both sides is dropped from both before any step, since each factor
is a unit modulo the truncation and the steps commute.  ``_product`` counts
the factors of each side up to the truncation order (every later factor is
1 modulo it), cancels the factors the numerator and denominator share, and
steps only the rest; ``identities._terms`` cancels the Pochhammer families
that its ratio names on both sides.  A bivariate builder keeps one
coefficient list per x-degree and files them with ``_from_buffers``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    cancels, and one step is applied per factor left over.
    """
    power = {1: [0] * (trunc + 1), -1: [0] * (trunc + 1)}
    for families, side in ((num, 1), (den, -1)):
        for f in families:
            p = power[f.sign]
            p[f.base_exp::f.step_exp] = [m + side for m in p[f.base_exp::f.step_exp]]
    c = [1] + [0] * trunc
    for sign, p in power.items():
        for a, m in enumerate(p):
            apply = mul_factor if m > 0 else div_factor
            for _ in range(abs(m)):
                apply(c, sign, a)
    return c


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
