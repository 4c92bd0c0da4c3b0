"""Identity checks: formula builders, enumeration oracles, and the registry.

Every check compares two independently built series to a truncation order and
reports the first differing coefficient, if any.  Formula sides are truncated
infinite q-sums and quotients of infinite products, and both are built by
factor steps from ``series``, each O(len) on what it steps: no formula side
multiplies or inverts a whole series.  ``series._product`` builds a quotient
of Pochhammer products on one packed int, q = 2^w, one shift and add (or
log-many, to divide) per factor that numerator and denominator do not
share, and reads it back as a coefficient list.  At d = 0 the staircase sum
divides all its rows by (q;q)_n at once, packed across x-degree into one
int per q-degree (``_packed_rows_pass``), where each factor step is the same
recurrence of adds on whole packed ints, and reads them back through the
same ``series._signed_slots``.  Every sum is hypergeometric: its summand
i+1 is summand i times a ratio of factors (1 - s*q^a).  One generator,
``_terms``, runs every sum: it keeps the running term as a coefficient
list, started by the caller (with ``_product`` where it carries an infinite
product), steps it in place by factor i of each Pochhammer family of the
ratio, and yields it with its q-shift e(i); ``_add_term`` or
``_add_shifted`` files it.  Both share one cancellation rule: what a
quotient has on both sides is dropped from both before any step, a factor
in ``_product`` and a family of the ratio in ``_terms``, since every factor
is a unit modulo q^(N+1) and the steps commute.  ``_double_terms`` nests
two ``_terms`` loops for both double sums: C_k and the staircase's (k, m) table.

``_terms`` also owns the cutoff and the cut.  It stops at the first index
whose shift passes the truncation order N, since the shifts never decrease
(it raises ValueError on one that does): that summand and every later one
start past q^N.  For the same reason coefficient N+1-e(i) of the term, and
every later one, can reach no output from index i on, so it deletes them
before index i's factor steps; the steps work modulo q^len, so the shorter
term stays exact on what is kept, and a term is never longer than its buffer
minus its shift.

Oracle sides count partitions into distinct parts from their definitions,
by one transfer-matrix walk, ``_walk``, over the 0/1 word that says which of
1..N are parts, with one small transition per family.  The walk numbers
each state the first time it appears and packs each state's counts by weight
into one int, a w-bit slot per weight, so a step is one big-int mask, shift
and add, and it unpacks them once per output series with that w.  A
transition lists two moves only on a taken letter, so every count of weight e
is at most A(e) = [q^e] prod_{p<=N} (1 + 2q^p), and w is one spare bit over
the largest of them, A(N), computed once per walk.  It takes only the
containers from ``series``, so no oracle shares code with a formula side.

The registry names each side as a ``_Side``: a builder, its fixed leading
arguments, and an optional view of a bivariate result (x = +-q^t, or one
x-slice), which builds at (N, N).  ``run_many`` builds each distinct
(builder, arguments, truncations) once per call and keeps it only until the
last check that uses it; the view is applied per check.  The master sum is
``bmn_gf(2, ...)``, so the master identity, C_2 and their specialisations
share one build, and one rafted table, every raft count's closed form by
x-degree, serves each rafted-gf-k check as a slice and the signed sum at
x = -1.  Every oracle takes (x-order, q-order) and is one uncapped
walk by (part or raft count, weight): no step reads the x-order, and ``_xq``
alone cuts the final states there.  Read through the views, each automaton
is walked once per run: the designation walk, x marking the rafts, serves
every raft count and, at x = -1, the signed sum; one minimal walk serves
every minimal count; and the gap-2 walk serves C_2 and the d = 0 staircase
as it is and, at x = 1, the count of partitions with gaps >= 2 by weight.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import count, repeat, zip_longest
from math import isqrt
from operator import rshift
from typing import Callable, Iterator, Sequence

from .series import (
    _BIG_ENDIAN,
    _WORD,
    PochhammerSpec,
    QSeries,
    XQSeries,
    _add_shifted,
    _from_buffers,
    _product,
    _signed_slots,
    _slot_bits,
    div_factor,
    mul_factor,
)

__all__ = [
    "CheckReport",
    "FirstDiff",
    "IdentityCheck",
    "PROFILES",
    "REGISTRY",
    "first_difference",
    "run_check",
    "run_many",
]

PROFILES = {"quick": 30, "standard": 60, "deep": 100}


def _b2(a: int) -> int:
    return a * (a - 1) // 2


def _unit(trunc: int) -> list[int]:
    return [1] + [0] * trunc


# ---------------------------------------------------------------------------
# product sides


def rr_product(residues: tuple[int, ...], modulus: int, trunc: int) -> QSeries:
    """1 / prod_{r in residues} (q^r; q^modulus)_inf."""
    den = [PochhammerSpec(1, r, modulus) for r in residues]
    return QSeries(trunc, tuple(_product(trunc, den=den)))


# ---------------------------------------------------------------------------
# the running term


def _terms(trunc: int, shift: Callable[[int], int], term: list[int],
           num: Sequence[PochhammerSpec] = (), den: Sequence[PochhammerSpec] = (),
           stop: Callable[[int], bool] = lambda i: False,
           ) -> Iterator[tuple[int, int, list[int]]]:
    """(i, shift(i), term_i) for i = 0, 1, 2, ... of a sum truncated at q^trunc.

    ``term`` is term_0, stepped in place: term_i is term_{i-1} times factor i
    of each family in ``num`` and divided by factor i of each in ``den``,
    where factor i of (s q^b; q^t) is (1 - s q^(b+(i-1)t)).  A family in both
    is dropped from both, as a multiset, before index 1: its factors are
    units modulo q^(trunc+1) and the steps commute, so no index needs them.
    Before its steps, term_i is cut to its first trunc+1-shift(i)
    coefficients, those that q^shift(i) keeps within trunc.  The sum ends at
    the first index whose shift passes trunc, or where ``stop(i)`` holds.
    Shifts must be >= 0 and must not decrease, which is what makes both the
    end and the cut exact; ValueError otherwise.  The yielded list is the
    running term itself.
    """
    num, den = list(num), list(den)
    for f in num[:]:
        if f in den:
            num.remove(f)
            den.remove(f)
    last = 0
    for i in count():
        e = shift(i)
        if e < last:
            raise ValueError(f"summand shifts must be >= 0 and must not decrease, "
                             f"got {e} after {last} at index {i}")
        if e > trunc or stop(i):
            return
        last = e
        del term[trunc + 1 - e:]
        if i:
            for f in num:
                mul_factor(term, f.sign, f.base_exp + (i - 1) * f.step_exp)
            for f in den:
                div_factor(term, f.sign, f.base_exp + (i - 1) * f.step_exp)
        yield i, e, term


def _add_term(acc: dict[int, list[int]], size: int, xd: int, e: int,
              sign: int, term: list[int]) -> None:
    """acc[xd] += sign * q^e * term, in a buffer of ``size`` coefficients.

    The cut in ``_terms`` makes term no longer than size - e.
    """
    buf = acc.get(xd)
    if buf is None:
        buf = acc[xd] = [0] * size
    _add_shifted(buf, term, sign, e)


def _q_sum(trunc: int, shift: Callable[[int], int], term: list[int],
           num: Sequence[PochhammerSpec] = (), den: Sequence[PochhammerSpec] = (),
           sign: int = 1) -> QSeries:
    """sum_i sign^i q^shift(i) term_i, the terms as ``_terms`` steps them."""
    total = [0] * (trunc + 1)
    for i, e, t in _terms(trunc, shift, term, num, den):
        _add_shifted(total, t, sign ** i, e)
    return QSeries(trunc, tuple(total))


def _double_terms(q_trunc: int, c: int, exp: Callable[[int, int], int],
                  stop: Callable[[int, int], bool],
                  num: Callable[[int], Sequence[PochhammerSpec]] = lambda j: (),
                  ) -> Iterator[tuple[int, int, int, list[int]]]:
    """(j, r, exp(j, r), term) for sum_j sum_r q^exp(j, r) num_j(r) / ((q^c;q^c)_j (q;q)_r)
    to q^q_trunc, num_j(r) the first r factors of each family in ``num(j)``.

    A ``_terms`` loop steps 1 / (q^c;q^c)_j, cut at exp(j, 0), to the first j
    where stop(j, 0) holds; a second steps a copy of it through ``num(j)`` and
    (q;q), cut at exp(j, r), to the first r where stop(j, r) holds.  Each also
    ends at its first summand past q^q_trunc, so exp must not decrease in j at
    r = 0 or in r (``_terms`` raises ValueError).
    """
    for j, _, outer in _terms(q_trunc, lambda j: exp(j, 0), _unit(q_trunc),
                              den=[PochhammerSpec(1, c, c)], stop=lambda j: stop(j, 0)):
        for r, e, term in _terms(q_trunc, partial(exp, j), outer[:], num(j), _QQ, partial(stop, j)):
            yield j, r, e, term


# ---------------------------------------------------------------------------
# univariate formula sides


def _slater_sum(shift: int, extra_len: int, trunc: int) -> QSeries:
    """(-q;q)_inf * sum_j (-1)^j q^(3j^2+shift*j) / ((q^2;q^2)_j (-q;q)_{2j+extra_len}).

    The prefactor cancels each denominator's head, so the running term is
    (-q^(2j+extra_len+1);q)_inf / (q^2;q^2)_j.
    """
    return _q_sum(trunc, lambda j: 3 * j * j + shift * j,
                  _product(trunc, [PochhammerSpec(-1, extra_len + 1, 1)]),
                  den=[PochhammerSpec(-1, extra_len + 1, 2), PochhammerSpec(-1, extra_len + 2, 2),
                       PochhammerSpec(1, 2, 2)], sign=-1)


def slater19_sum(trunc: int) -> QSeries:
    """(-q;q)_inf * sum_j (-1)^j q^(3j^2) / ((q^2;q^2)_j (-q;q)_{2j})."""
    return _slater_sum(0, 0, trunc)


def slater15_sum(trunc: int) -> QSeries:
    """(-q;q)_inf * sum_j (-1)^j q^(3j^2-2j) / ((q^2;q^2)_j (-q;q)_{2j})."""
    return _slater_sum(-2, 0, trunc)


def slater15_alt_sum(trunc: int) -> QSeries:
    """(-q;q)_inf * sum_j (-1)^j q^(3j^2+2j) / ((q^2;q^2)_j (-q;q)_{2j+1})."""
    return _slater_sum(2, 1, trunc)


def minimal_exponent(k: int, m: int) -> int:
    """Weight of the lightest k-raft minimal configuration with r_k = m+3k-2.

    binom(3k+m, 2) - 3 binom(k, 2) counts the full prefix staircase minus the
    tightest missing parts; the reversed Gaussian binomial soaks up a further
    m(k-1) at most, which the fused form subtracts up front so only ordinary
    (non-reciprocal) q-binomials appear.  The result is >= 3k^2, increasing
    in m.
    """
    return _b2(3 * k + m) - 3 * _b2(k) - m * (k - 1)


def minimal_gf(k: int, trunc: int) -> QSeries:
    """Generating function of minimal k-raft configurations by weight.

    sum_m q^minimal_exponent(k, m) [m+k-1 choose k-1]_q (-q^(3k+m+1); q)_inf;
    the q^(-1)-binomial of the profile count is already folded into the
    exponent (reciprocal law), so coefficients stay plain polynomials.
    """
    if k < 1:
        raise ValueError(f"raft count must be >= 1, got {k}")
    return _q_sum(trunc, partial(minimal_exponent, k),
                  _product(max(trunc - minimal_exponent(k, 0), 0),
                           [PochhammerSpec(-1, 3 * k + 1, 1)]),
                  num=[PochhammerSpec(1, k, 1)],  # over (q;q)_m: the Gaussian binomial
                  den=[PochhammerSpec(1, 1, 1), PochhammerSpec(-1, 3 * k + 1, 1)])


def rafted_gf(k: int, trunc: int) -> QSeries:
    """Generating function of all k-raft configurations: minimal_gf / (q^2;q^2)_k."""
    row = list(minimal_gf(k, trunc).coeffs)
    for i in range(1, k + 1):
        div_factor(row, 1, 2 * i)
    return QSeries(trunc, tuple(row))


def rafted_table(x_trunc: int, q_trunc: int) -> XQSeries:
    """Configurations by (number of rafts, weight), x marking the rafts: row 0
    is (-q;q)_inf, the distinct-part partitions with no raft, and row k is
    rafted_gf(k).  k rafts weigh at least 3k^2, so rows past isqrt(q_trunc // 3)
    are zero and none is built."""
    rows = {0: QSeries(q_trunc, tuple(_product(q_trunc, [PochhammerSpec(-1, 1, 1)])))}
    for k in range(1, min(x_trunc, isqrt(q_trunc // 3)) + 1):
        rows[k] = rafted_gf(k, q_trunc)
    return XQSeries(x_trunc, q_trunc, rows)


def no_raft_gf(trunc: int) -> QSeries:
    """(-q;q)_inf + sum_{k>=1} (-1)^k rafted_gf(k): the signed designation sum,
    ``rafted_table`` at x = -1."""
    return rafted_table(trunc, trunc).substitute_x_power(0, -1)


def qgauss_lhs(a_exp: int, b_exp: int, c_exp: int, trunc: int) -> QSeries:
    """sum_n (q^A;q)_n (q^B;q)_n q^((C-A-B)n) / ((q;q)_n (q^C;q)_n)."""
    gap = c_exp - a_exp - b_exp
    if a_exp < 1 or b_exp < 1 or gap < 1:
        raise ValueError("need a_exp, b_exp >= 1 and c_exp > a_exp + b_exp")
    return _q_sum(trunc, lambda n: gap * n, _unit(trunc),
                  num=[PochhammerSpec(1, a_exp, 1), PochhammerSpec(1, b_exp, 1)],
                  den=[PochhammerSpec(1, 1, 1), PochhammerSpec(1, c_exp, 1)])


def qgauss_rhs(a_exp: int, b_exp: int, c_exp: int, trunc: int) -> QSeries:
    """(q^(C-A);q)_inf (q^(C-B);q)_inf / ((q^C;q)_inf (q^(C-A-B);q)_inf)."""
    num = [PochhammerSpec(1, c_exp - a_exp, 1), PochhammerSpec(1, c_exp - b_exp, 1)]
    den = [PochhammerSpec(1, c_exp, 1), PochhammerSpec(1, c_exp - a_exp - b_exp, 1)]
    return QSeries(trunc, tuple(_product(trunc, num, den)))


def gauss_step_lhs(k: int, trunc: int) -> QSeries:
    """sum_m q^(m(m-1)/2 + (2k+1)m) (q^k;q)_m / ((q;q)_m (-q^(3k+1);q)_m)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _q_sum(trunc, lambda m: _b2(m) + (2 * k + 1) * m, _unit(trunc),
                  num=[PochhammerSpec(1, k, 1)],
                  den=[PochhammerSpec(1, 1, 1), PochhammerSpec(-1, 3 * k + 1, 1)])


def gauss_step_rhs(k: int, trunc: int) -> QSeries:
    """(-q^(2k+1);q)_inf / (-q^(3k+1);q)_inf."""
    num = [PochhammerSpec(-1, 2 * k + 1, 1)]
    den = [PochhammerSpec(-1, 3 * k + 1, 1)]
    return QSeries(trunc, tuple(_product(trunc, num, den)))


# ---------------------------------------------------------------------------
# bivariate formula sides

_QQ = [PochhammerSpec(1, 1, 1)]  # (q;q): in den, steps the running 1 / (q;q)_i


def master_rhs(x_trunc: int, q_trunc: int) -> XQSeries:
    """sum_n q^(n^2) x^n / (q;q)_n."""
    acc: dict[int, list[int]] = {}
    for n, e, term in _terms(q_trunc, lambda n: n * n, _unit(q_trunc), den=_QQ,
                             stop=lambda n: n > x_trunc):
        _add_term(acc, q_trunc + 1, n, e, 1, term)
    return _from_buffers(x_trunc, q_trunc, acc)


def bmn_gf(k: int, x_trunc: int, q_trunc: int) -> XQSeries:
    """C_k(x;q): double sum over j, r of
    (-1)^j x^(kj+r) q^(binom(kj+r+1,2) + k binom(j,2)) / ((q^k;q^k)_j (q;q)_r);
    generates partitions into distinct parts with no k consecutive parts,
    x marking the number of parts.

    C_2 is the paper's master sum
    (-xq;q)_inf * sum_j (-1)^j q^(3j^2) x^(2j) / ((q^2;q^2)_j (-xq;q)_{2j})
    term by term.  The prefactor cancels each denominator's head, leaving the
    summand (-1)^j q^(3j^2) x^(2j) (-xq^(2j+1);q)_inf / (q^2;q^2)_j, and
    Euler's identity (-xq^a;q)_inf = sum_r x^r q^(binom(r,2) + a r) / (q;q)_r,
    at a = 2j+1, expands it into the summands (j, r) above: x^(2j+r), and
    3j^2 + binom(r,2) + (2j+1)r = binom(2j+r+1,2) + 2 binom(j,2).
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    acc: dict[int, list[int]] = {}
    for j, r, e, term in _double_terms(q_trunc, k, lambda j, r: _b2(k * j + r + 1) + k * _b2(j),
                                       lambda j, r: k * j + r > x_trunc):
        _add_term(acc, q_trunc + 1, k * j + r, e, -1 if j % 2 else 1, term)
    return _from_buffers(x_trunc, q_trunc, acc)


def staircase_gf(d: int, x_trunc: int, q_trunc: int) -> XQSeries:
    """Triple sum generating (2+d)-distinct partitions, x marking parts.

    sum over n, k, m of
      q^(binom(n+1,2) + d binom(n,2)) / (q;q)_n
      * (-1)^k q^(3k^2 + d binom(2k,2)) / (q^2;q^2)_k
      * (q^(2k);q)_m q^(d binom(m,2)) (-q)^m / (q;q)_m
      * x^(n+2k+m) * q^(2dnk + dnm + 2dkm).

    The n-index meets k and m only through x^n (x q^(dn))^j, with j = 2k+m,
    so the sum factors.  Pass (a) builds the (k, m) double sum once, as an
    x-table of rows, row j holding G_j(q) / q^j.  Every summand of G_j
    carries q^j: its exponent less 2k+m is
    3k^2 - 2k + d (binom(2k,2) + binom(m,2) + 2km) >= 0, since 3k^2 >= 2k.
    So row j needs only N+1-j coefficients, and each (k, m) term is cut at
    its own exponent.  Pass (b) then sums over n, for each row j, the
    quotient row / (q;q)_n times q^(binom(n+1,2) + d binom(n,2) + dnj + j)
    x^(n+j), ending where n + j passes x_trunc or the q-shift passes q_trunc:
    both grow with n.  At d = 0 the shift less j is the same for every row,
    so ``_packed_rows_pass`` divides all rows at once, packed across
    x-degree into one int per q-degree, each step a recurrence of big-int
    adds; its docstring proves the bound on every slot that makes the
    packing exact, (n_max + 1) M sum_{s<=N} p_{n_max}(s) for the last step
    n_max and the largest row coefficient M.  At d >= 1 the shift's dnj
    differs from row to row, so no one shift per step serves every row, and
    ``_list_rows_pass`` runs each row through ``_terms`` on its own list.
    Each pass takes O(N^2.5) coefficient steps at d = 0, against O(N^3) for
    the nested triple loop.
    At order 85 pass (a) steps or adds 17,172 coefficients, where
    full-length terms took 35,958, and the packed pass's bound steps 954.

    The k = 0 column collapses to m = 0 because (1;q)_m vanishes: its first
    factor is (1 - q^0), so the running m-term stops there.
    """
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")

    rows: dict[int, list[int]] = {}  # pass (a): j -> G_j / q^j
    for k, m, e, term in _double_terms(
            q_trunc, 2, lambda k, m: 3 * k * k + d * _b2(2 * k) + m + d * _b2(m) + 2 * d * k * m,
            lambda k, m: 2 * k + m > x_trunc or (k == 0 and m > 0),
            lambda k: [PochhammerSpec(1, 2 * k, 1)] if k else []):
        j = 2 * k + m
        _add_term(rows, q_trunc + 1 - j, j, e - j, -1 if (k + m) % 2 else 1, term)

    if d == 0:
        return _packed_rows_pass(rows, x_trunc, q_trunc)
    return _list_rows_pass(rows, d, x_trunc, q_trunc)


def _list_rows_pass(rows: dict[int, list[int]], d: int, x_trunc: int, q_trunc: int) -> XQSeries:
    """Pass (b) of ``staircase_gf`` row by row, each row stepped in place:
    the sum over n and j of q^(binom(n+1,2) + d binom(n,2) + dnj + j) x^(n+j)
    rows[j] / (q;q)_n to x^x_trunc, q^q_trunc.  It runs at d >= 1, and at
    d = 0 the tests hold ``_packed_rows_pass`` to it."""
    acc: dict[int, list[int]] = {}
    for j, row in rows.items():
        for n, e, term in _terms(q_trunc, lambda n: _b2(n + 1) + d * _b2(n) + d * n * j + j,
                                 row, den=_QQ, stop=lambda n: n + j > x_trunc):
            _add_term(acc, q_trunc + 1, n + j, e, 1, term)
    return _from_buffers(x_trunc, q_trunc, acc)


def _packed_rows_pass(rows: dict[int, list[int]], x_trunc: int, q_trunc: int) -> XQSeries:
    """Pass (b) of ``staircase_gf`` at d = 0, every row at once: the sum over
    n and j of q^(binom(n+1,2) + j) x^(n+j) rows[j] / (q;q)_n, cut at x^x_trunc
    and q^q_trunc = q^N.  Row j holds N+1-j coefficients; ``rows`` is emptied.

    The q-shift binom(n+1,2) + j is binom(n+1,2) for every row once row j is
    multiplied by q^j, so the rows are packed across x-degree: one int per
    q-degree i, V[i] = sum_j [q^i](q^j rows[j]) 2^(w j), a signed w-bit slot
    per row.  Step n files acc[e + i] += V[i] << (w n) for i <= N - e, with
    e = binom(n+1,2), so slot D of acc[t] is the coefficient of x^D q^t.  The
    divisor (1 - q^n) of step n is the ascending recurrence
    V[i] += V[i - n] on V cut to its first N + 1 - e entries: the only ones
    that step n and later steps file, and the recurrence reads only lower
    entries, so the cut keeps them exact.  A step costs O(N) big-int adds
    for all rows together, where the list pass takes O(N) list steps per row.

    Exactness.  Packing, the recurrence, the shifts and the adds are exact
    integer arithmetic on sum_D s_D 2^(w D), whatever size the slots s_D
    reach, so acc[t] = sum_D s_D(t) 2^(w D) with s_D(t) the coefficient of
    x^D q^t.  ``series._signed_slots`` reads slots D < L back from acc[t]
    modulo 2^(w L), which drops every higher slot, and needs only
    |s_D(t)| < 2^(w-1) for D < L.  The bound: [q^i] rows[j] / (q;q)_n =
    sum_s rows[j][i-s] p_n(s), with p_n(s) the partitions of s into parts
    <= n, so its size is at most M sum_{s<=N} p_n(s), where
    M = max |rows[j][i]|, and p_n <= p_{n_max} coefficientwise for the last
    step n_max; slot D of acc[t] sums one such coefficient per step.  So every slot is at most
    (n_max + 1) M sum_{s<=N} p_{n_max}(s) in size, computed exactly from
    n_max ``div_factor`` steps on a unit list, and w = 64 r bits for the least
    r that leaves a bit above it.  Summand n of row j starts at
    q^(binom(n+1,2)+j), no lower than q^(n+j), so slot D of acc[t] is zero
    for D > t, and acc[t] is read at L = min(t, x_trunc) + 1 slots: no slot
    past x_trunc is read back.

    V is packed from q^N down: V[i] takes the last coefficient left in each
    row j <= i, rows[j][i - j], since row j holds N+1-j of them and rows
    past i start past q^i.  So each row is emptied as it is packed, and the
    table and V are never held in full together.  The words go through
    ``array`` in the host's byte order, swapped to little-endian on a
    big-endian host, so packing is a C loop, as reading back is.  A row
    coefficient is packed as its two's complement in the low rp words of
    its slot, the least rp that holds M, with bit 64 rp - 1 flipped to
    offset it by 2^(64 rp - 1); one subtraction of those offsets leaves
    V[i].
    """
    N = q_trunc
    top = max(rows)
    n_max = min(x_trunc, (isqrt(8 * N + 1) - 1) // 2)  # the last n with binom(n+1,2) <= N
    parts = _unit(N)  # p_{n_max}(s), s <= N
    for a in range(1, n_max + 1):
        div_factor(parts, 1, a)
    big = max(max(map(max, rows.values())), -min(map(min, rows.values())))
    r = ((n_max + 1) * big * sum(parts)).bit_length() // 64 + 1
    rp = big.bit_length() // 64 + 1
    w = 64 * r

    flip = _slot_bits(64 * rp - 1, r, top + 1)
    table = [rows.pop(j) if j in rows else [0] * (N + 1 - j) for j in range(top + 1)]
    packed = [0] * (N + 1)  # V, by q-degree
    for i in range(N, -1, -1):
        col = list(map(list.pop, table[:i + 1]))  # slot j: rows[j][i - j]
        words = array("Q", bytes(8 * r * len(col)))
        for t in range(rp - 1):
            words[t::r] = array("Q", map(_WORD.__and__, map(rshift, col, repeat(64 * t))))
        words[rp - 1::r] = array("Q", array("q", col if rp == 1 else
                                            map(rshift, col, repeat(64 * (rp - 1)))).tobytes())
        if _BIG_ENDIAN:
            words.byteswap()
        f = flip & ((1 << (w * len(col))) - 1)
        packed[i] = (int.from_bytes(words, "little") ^ f) - f

    acc = packed[:]  # step 0
    for n in range(1, n_max + 1):
        e = _b2(n + 1)
        del packed[N + 1 - e:]
        for i in range(n, len(packed)):
            packed[i] += packed[i - n]
        shift = w * n
        for t, v in enumerate(packed, e):
            acc[t] += v << shift

    out = []  # the slots of acc[t], by x-degree
    bias = _slot_bits(w - 1, r, min(N, x_trunc) + 1)  # for the widest read
    for t in range(N + 1):
        out.append(_signed_slots(acc[t], r, min(t, x_trunc) + 1, bias))
        acc[t] = 0
    return XQSeries(x_trunc, N, {D: QSeries(N, col) for D, col
                                 in enumerate(zip_longest(*out, fillvalue=0)) if any(col)})


# ---------------------------------------------------------------------------
# enumeration oracles: one transfer-matrix walk


def _count_bits(n: int) -> int:
    """A bound b with A(e) = [q^e] prod_{p<=n} (1 + 2q^p) < 2^(b-1) for e <= n.

    Coefficientwise 1 + 2q^p <= (1 - q^p)^-2, so A(e) <= sum_i p(i) p(e-i) <=
    (e+1) exp(2 pi sqrt(e/3)), by p(i) < exp(pi sqrt(2i/3)) for i >= 1
    (Apostol, Introduction to Analytic Number Theory, ch. 14): at most
    5.233 sqrt(n) + log2(n+1) bits, and 21/4 > 2 pi / (sqrt(3) ln 2).
    """
    return -(-21 * (isqrt(n) + 1) // 4) + (n + 1).bit_length() + 1


def _width(n: int) -> int:
    """Bits per weight slot in a walk over 1..n: one bit over max A(e).

    A(e) = [q^e] prod_{p<=n} (1 + 2q^p), e <= n, bounds every count of the
    walk, as ``_walk`` proves.  The largest is A(n): raising the largest
    part by 1 maps the sets of distinct parts of sum e >= 1 one-to-one into
    those of sum e + 1, of the same size, and A(0) = 1.  A(n) is read off the
    product packed into one int, in ``_count_bits(n)``-bit slots that no
    coefficient fills, each factor keeping the slots that stay within n.

    The top bit of each slot is spare: the walk only adds and reads its
    slots unsigned, so every count fits in the w - 1 bits below it.
    """
    b = _count_bits(n)
    a = 1
    for p in range(1, n + 1):
        a += (a & ((1 << ((n + 1 - p) * b)) - 1)) << (p * b + 1)
    return (a >> (n * b)).bit_length() + 1


def _moves(step, state, taken: bool) -> list:
    """``step(state, taken)``, refused past the bound that ``_walk`` proves."""
    moves = step(state, taken)
    if len(moves) > 2:
        raise ValueError(f"a walk step lists at most 2 moves, got {len(moves)}")
    if len(moves) > 1 and not taken:
        raise ValueError(f"a walk step lists at most 1 move on a 0 letter, got {len(moves)}")
    return moves


def _walk(n: int, start, step) -> tuple[dict, int]:
    """Count the 0/1 words over positions 1..n by final state and weight.

    A word says which of 1..n are parts; a 1 at position p adds p to the
    weight.  ``step(state, taken)`` lists the next states of one letter, and
    an empty list refuses the word.  One more 0 after position n, of no
    weight, closes the last open run.  Returns the counts by weight 0..n of
    every final state with a nonzero count, each packed into one int
    (Kronecker substitution), and the slot width w = ``_width(n)``: the count
    for weight e is the unsigned w-bit slot at bit e*w, and ``_unpack`` reads
    them back with that w.

    Each state is numbered the first time it appears.  Each letter keeps a
    table from a state's number to the numbers of its next states, filled
    through ``_moves``, which checks them, the first time that state is read
    on that letter: ``step`` runs at most once per (state, letter), and never
    on a 1 letter after position n.  A layer is a list of packed ints indexed
    by state number, and a zero entry is skipped.

    A 0 letter adds a state's packed int as it is.  A 1 letter at p keeps
    slots 0..n-p, the low (n+1-p)*w bits, and shifts them up by p slots, so no
    slot past n is ever kept.  The walk never subtracts, so all of this is
    exact while every count fits its slot, 0 <= count < 2^w: no add carries
    out of a slot, the mask cuts at a slot boundary, and each slot reads back
    as its count.  Proof, with a bit to spare, that 0 <= count < 2^(w-1): a
    step lists at most two moves on a 1 letter and at most one on a 0 letter,
    or the walk raises ValueError.  So a word whose parts form the set S has
    at most 2^|S| paths, and a count of weight e, the number of paths of
    words of weight e, is nonnegative and at most the sum of 2^|S| over the
    sets S of distinct parts <= n that sum to e.  That sum is
    A(e) = [q^e] prod_{p<=n} (1 + 2q^p), and max A(e) < 2^(w-1).  After
    position p the words run over 1..p, and the same sum over parts <= p is
    no larger.  A sum over several final states obeys the same bound, since
    each path ends in one state.
    """
    w = _width(n)
    states, ids = [start], {start: 0}
    zero: list = [None]  # each letter's table: id -> its checked moves, as ids
    one: list = [None]

    def lookup(table, i, taken):
        moves = []
        for new in _moves(step, states[i], taken):
            j = ids.get(new)
            if j is None:
                j = ids[new] = len(states)
                states.append(new)
                zero.append(None)
                one.append(None)
            moves.append(j)
        table[i] = moves = tuple(moves)
        return moves

    layer = [1]
    for p in range(1, n + 2):
        nxt = [0] * len(states)
        mask = (1 << ((n + 1 - p) * w)) - 1  # slots 0..n-p, those that stay within n at q^p
        shift = w * p
        for i, packed in enumerate(layer):
            if not packed:
                continue
            moves = zero[i]
            if moves is None:
                moves = lookup(zero, i, False)
                nxt += [0] * (len(states) - len(nxt))
            for j in moves:
                nxt[j] += packed
            if p > n:
                continue
            moves = one[i]
            if moves is None:
                moves = lookup(one, i, True)
                nxt += [0] * (len(states) - len(nxt))
            if moves:
                packed = (packed & mask) << shift
                for j in moves:
                    nxt[j] += packed
        layer = nxt
    return {states[i]: c for i, c in enumerate(layer) if c}, w


def _unpack(packed: int, n: int, w: int) -> list[int]:
    """The counts by weight 0..n that ``_walk`` packed into w-bit slots."""
    mask = (1 << w) - 1
    return [(packed >> (e * w)) & mask for e in range(n + 1)]


def _xq(x_trunc: int, q_trunc: int, walked: tuple[dict, int]) -> XQSeries:
    """The walk's counts by (part count, weight); the part count ends each
    state.  No step reads x_trunc, so this is the one cut at the x-order."""
    layer, w = walked
    by_parts: dict[int, int] = {}
    for s, c in layer.items():
        if s[-1] <= x_trunc:
            by_parts[s[-1]] = by_parts.get(s[-1], 0) + c
    return XQSeries(x_trunc, q_trunc, {x: QSeries(q_trunc, tuple(_unpack(c, q_trunc, w)))
                                       for x, c in by_parts.items()})


def d_distinct_xq(d: int, x_trunc: int, q_trunc: int) -> XQSeries:
    """Partitions with part gaps >= d, by (number of parts, weight).

    The state is (distance since the last part, capped at d; part count); a
    part that is too close is refused.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")

    def step(state, taken):
        dist, parts = state
        if taken:
            return [(1, parts + 1)] if dist == d else []
        return [(min(dist + 1, d), parts)]

    return _xq(x_trunc, q_trunc, _walk(q_trunc, (d, 0), step))


def no_kseq_oracle(k: int, x_trunc: int, q_trunc: int) -> XQSeries:
    """Partitions with no run of length >= k, by (part count, weight).

    The state is (open run length; part count); a part that would make the
    run reach length k is refused.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")

    def step(state, taken):
        run, parts = state
        if taken:
            return [(run + 1, parts + 1)] if run + 1 < k else []
        return [(0, parts)]

    return _xq(x_trunc, q_trunc, _walk(q_trunc, (0, 0), step))


def _designation_walk(trunc: int, minimal: bool = False) -> tuple[dict, int]:
    """Designations by rafts and weight, every raft count in one walk.

    The state is (open run length, capped at 2; anchored; designated; rafts
    so far), and ``_xq`` reads the rafts as the x-degree.  An anchored run
    may be designated on the 1 letter that brings it to length 2, so only a
    taken letter lists two moves; the designated flag carries that choice to
    the 0 letter that closes the run.  With ``minimal`` a run is anchored
    when it starts at 1, or exactly one missing part above a designated run:
    where ``RaftedPartition.can_backward`` refuses the raft's move.
    Otherwise every run is anchored.  With no run open, the anchored flag
    says whether a run starting at the next position would be.  The raft
    count needs no cap: k rafts weigh at least 3k^2, so no more than
    isqrt(trunc // 3) of them fit within the weight the walk keeps.
    """
    def step(state, taken):
        run, anchored, designated, rafts = state
        if not taken:
            return [(0, designated or not minimal, False, rafts)]
        out = [(min(run + 1, 2), anchored, designated, rafts)]
        if run == 1 and anchored:
            out.append((2, anchored, True, rafts + 1))
        return out

    return _walk(trunc, (0, True, False, 0), step)


def minimal_oracle(x_trunc: int, q_trunc: int) -> XQSeries:
    """Minimal configurations by (number of rafts, weight), counted from the
    definition."""
    return _xq(x_trunc, q_trunc, _designation_walk(q_trunc, minimal=True))


def rafted_oracle(x_trunc: int, q_trunc: int) -> XQSeries:
    """Designations by (number of rafts, weight)."""
    return _xq(x_trunc, q_trunc, _designation_walk(q_trunc))


def _x_slice(s: XQSeries, k: int) -> QSeries:
    """The x^k slice of s, read as zero past its x-order.

    That is exact for a series whose x^n slice starts at q^n or later and
    whose x-order is its q-order, as every viewed side's build is (``_plan``).
    """
    return s.slice(k) if k <= s.x_trunc else QSeries.zero(s.q_trunc)


# ---------------------------------------------------------------------------
# reports and the registry


@dataclass(frozen=True, slots=True)
class FirstDiff:
    """Location and values of the first coefficient where two sides differ."""

    x: int | None
    q: int
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {"x": self.x, "q": self.q, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True, slots=True)
class CheckReport:
    """One check's verdict; error holds (type name, message) when a builder raised.

    millis times the whole check; lhs_ms and rhs_ms time each side's build
    alone, and read 0 for a side that raised or never ran.  A side reused
    from an earlier check of the same run names that check in lhs_from or
    rhs_from, and its time counts only this check's view of it (``_Side``).
    """

    name: str
    q_trunc: int
    x_trunc: int | None
    passed: bool
    first_diff: FirstDiff | None
    millis: int
    lhs_ms: int
    rhs_ms: int
    error: tuple[str, str] | None = None
    lhs_from: str | None = None
    rhs_from: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "q_trunc": self.q_trunc,
            "x_trunc": self.x_trunc,
            "passed": self.passed,
            "first_diff": self.first_diff.to_json_dict() if self.first_diff else None,
            "millis": self.millis,
            "lhs_ms": self.lhs_ms,
            "rhs_ms": self.rhs_ms,
        }
        for key, source in (("lhs_from", self.lhs_from), ("rhs_from", self.rhs_from)):
            if source is not None:
                out[key] = source
        if self.error is not None:
            out["error"] = {"type": self.error[0], "message": self.error[1]}
        return out


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    """Two builders for the same series; bivariate builders take (Nx, Nq)."""

    name: str
    bivariate: bool
    lhs: Callable
    rhs: Callable
    description: str


@dataclass(frozen=True, slots=True)
class _Side:
    """A registry side, ``builder(*fixed, *truncations)``, read through at
    most one view of a bivariate result: ``x_power`` substitutes
    x = x_sign * q^x_power, and ``x_slice`` reads the x^k slice.  A viewed
    side is univariate and builds at (N, N) (``_plan``).  Views are not part
    of what ``run_many`` keys a build by, so checks that view one build
    differently share it.

    The builder is looked up by name in this module when the side is built,
    so a rebound name (a test's spy, a tracer's span) is the one that runs.
    """

    builder: str
    fixed: tuple = ()
    x_power: int | None = None
    x_sign: int = 1
    x_slice: int | None = None

    def __call__(self, *truncs):
        _, build, finish = _plan(self, truncs)
        return finish(build())

    def build(self, truncs: tuple):
        return globals()[self.builder](*self.fixed, *truncs)

    def finish(self, built):
        if self.x_power is not None:
            return built.substitute_x_power(self.x_power, self.x_sign)
        return built if self.x_slice is None else _x_slice(built, self.x_slice)


def first_difference(lhs, rhs) -> FirstDiff | None:
    """First differing coefficient, scanning q ascending (then x-degree).

    A ``QSeries`` is one row, at x-degree None; an ``XQSeries`` is one row
    per x-degree that either side holds.  Equal rows are skipped whole.
    """
    if isinstance(lhs, QSeries) and isinstance(rhs, QSeries):
        if lhs.trunc != rhs.trunc:
            raise ValueError("cannot compare series at different truncations")
        n, rows = lhs.trunc, [(None, lhs.coeffs, rhs.coeffs)]
    elif isinstance(lhs, XQSeries) and isinstance(rhs, XQSeries):
        if (lhs.x_trunc, lhs.q_trunc) != (rhs.x_trunc, rhs.q_trunc):
            raise ValueError("cannot compare series at different truncations")
        n, rows = lhs.q_trunc, [(d, lhs.slice(d).coeffs, rhs.slice(d).coeffs)
                                for d in sorted(lhs.terms.keys() | rhs.terms.keys())]
    else:
        raise TypeError(f"cannot compare {type(lhs).__name__} with {type(rhs).__name__}")
    rows = [row for row in rows if row[1] != row[2]]
    for e in range(n + 1):
        for d, a, b in rows:
            if a[e] != b[e]:
                return FirstDiff(d, e, str(a[e]), str(b[e]))
    return None


def _plan(side, args: tuple):
    """(memo key, build, finish) of one side at its check's truncations: a
    ``_Side`` keyed by its computation, any other callable by its identity.
    A viewed side builds at (N, N), where each view reads it exactly."""
    if isinstance(side, _Side):
        viewed = side.x_power is not None or side.x_slice is not None
        truncs = args * 2 if viewed else args
        return (side.builder, side.fixed, truncs), partial(side.build, truncs), side.finish
    return (id(side), args), partial(side, *args), lambda built: built


def _run_checks(checks: list[IdentityCheck], q_trunc: int,
                x_trunc: int | None) -> list[CheckReport]:
    """Run the checks in order, building each distinct side once.

    A built side is kept only until the last check that uses it.  A builder
    that raises keeps nothing, so it fails each check that uses it, with its
    error; an exception from a builder or the comparison fails that check
    alone, and the other checks still report.
    """
    plans = []
    for check in checks:
        xt = (q_trunc if x_trunc is None else x_trunc) if check.bivariate else None
        args = (xt, q_trunc) if check.bivariate else (q_trunc,)
        plans.append((xt, [_plan(check.lhs, args), _plan(check.rhs, args)]))
    last = {key: i for i, (_, sides) in enumerate(plans) for key, _, _ in sides}
    memo: dict = {}  # key -> (built side, name of the check that built it)
    reports = []
    for i, (check, (xt, sides)) in enumerate(zip(checks, plans)):
        t0 = time.perf_counter()
        diff = error = None
        ms, source, values = [0, 0], [None, None], []
        try:
            for side, (key, build, finish) in enumerate(sides):
                t1 = time.perf_counter()
                if key in memo:
                    built, source[side] = memo[key]
                else:
                    built = build()
                    memo[key] = (built, check.name)
                values.append(finish(built))
                ms[side] = _ms(t1, time.perf_counter())
            diff = first_difference(*values)
        except Exception as exc:  # the run reports every check, so contain any fault
            error = (type(exc).__name__, str(exc))
        millis = _ms(t0, time.perf_counter())
        reports.append(CheckReport(check.name, q_trunc, xt, diff is None and error is None,
                                   diff, millis, *ms, error, *source))
        for key, _, _ in sides:
            if last[key] == i:
                memo.pop(key, None)
    return reports


def _ms(start: float, stop: float) -> int:
    return int((stop - start) * 1000)


def run_check(check: IdentityCheck, q_trunc: int, x_trunc: int | None = None) -> CheckReport:
    """Build both sides, locate the first difference, time each side and the whole.

    An exception from a builder or the comparison fails this check: the
    report carries its type and message.
    """
    return _run_checks([check], q_trunc, x_trunc)[0]


def run_many(names, q_trunc: int, x_trunc: int | None = None) -> list[CheckReport]:
    """Run the named checks in registry order; unknown names raise ValueError.

    A side that several of the checks name is built once, by the first of
    them, and its later reports name that check (``CheckReport``).
    """
    names = list(names)
    for n in names:
        if n not in REGISTRY:
            raise ValueError(f"unknown-identity: {n}")
    wanted = set(names)
    return _run_checks([c for n, c in REGISTRY.items() if n in wanted], q_trunc, x_trunc)


# the master sum is C_2 term by term (see bmn_gf), so it, C_2 and their
# x-specialisations all name one computation
_MASTER = _Side("bmn_gf", (2,))
_S19, _S15_ALT = _Side("slater19_sum"), _Side("slater15_alt_sum")
_RR1, _RR2 = _Side("rr_product", ((1, 4), 5)), _Side("rr_product", ((2, 3), 5))
_NO_RAFT = _Side("rafted_table", x_power=0, x_sign=-1)
# the rafted table serves every rafted-gf check and, at x = -1, the signed
# sum.  Each oracle automaton is walked once per run: one designation walk
# serves every raft count and the signed sum, one minimal walk serves every
# minimal count, and distinct parts with no 2-sequence are those with gaps
# >= 2, so the gap-2 walk serves inclusion-exclusion-2-distinct at x = 1,
# bmn-k2 and staircase-d0
REGISTRY: dict[str, IdentityCheck] = {row[0]: IdentityCheck(*row) for row in [
    ("slater-19", False, _S19, _RR1,
     "alternating raft sum against the modulus-5 product for gaps >= 2"),
    ("slater-15", False, _Side("slater15_sum"), _RR2,
     "shifted alternating raft sum against the complementary modulus-5 product"),
    ("slater-15-alt", False, _S15_ALT, _RR2,
     "companion form of slater-15 with the same product side (x = q in the master)"),
    *[row for k in (1, 2, 3) for row in [
        (f"minimal-gf-k{k}", False, _Side("minimal_gf", (k,)), _Side("minimal_oracle", x_slice=k),
         f"closed form vs definition count for minimal {k}-raft configurations"),
        (f"rafted-gf-k{k}", False, _Side("rafted_table", x_slice=k),
         _Side("rafted_oracle", x_slice=k),
         f"closed form vs designation count for exactly {k} rafts"),
    ]],
    ("inclusion-exclusion", False, _NO_RAFT, _Side("rafted_oracle", x_power=0, x_sign=-1),
     "signed designation sum collapses to run-free partitions"),
    ("inclusion-exclusion-2-distinct", False, _NO_RAFT, _Side("d_distinct_xq", (2,), x_power=0),
     "the same signed sum counts partitions with gaps >= 2"),
    ("inclusion-exclusion-rr1", False, _NO_RAFT, _RR1,
     "the same signed sum equals the modulus-5 product"),
    ("master-identity", True, _MASTER, _Side("master_rhs"),
     "bivariate raft sum equals the classical gap->=2 double series in x, q"),
    ("master-at-x-q", False, _Side("bmn_gf", (2,), x_power=1), _S15_ALT,
     "x = q specialisation of the master identity hits the slater-15-alt sum"),
    ("master-at-x-1", False, _Side("bmn_gf", (2,), x_power=0), _S19,
     "x = 1 specialisation of the master identity hits the slater-19 sum"),
    *[(f"bmn-k{k}", True, _Side("bmn_gf", (k,)),
       _Side("d_distinct_xq", (2,)) if k == 2 else _Side("no_kseq_oracle", (k,)),
       f"double sum vs direct count of partitions with no {k}-sequence") for k in (2, 3, 4)],
    ("bmn-c2-slater-19", False, _Side("bmn_gf", (2,), x_power=0), _S19,
     "C_2(1; q) agrees with the slater-19 sum side"),
    ("bmn-c2-slater-15", False, _Side("bmn_gf", (2,), x_power=1), _Side("slater15_sum"),
     "C_2(q; q) agrees with the slater-15 sum side"),
    *[(f"staircase-d{d}", True, _Side("staircase_gf", (d,)), _Side("d_distinct_xq", (2 + d,)),
       f"staircase triple sum vs direct count of gap->={2 + d} partitions") for d in range(4)],
    ("staircase-d0-master", True, _Side("staircase_gf", (0,)), _MASTER,
     "the d = 0 triple sum re-expands the master identity's sum side"),
    *[(f"q-gauss-{a}-{b}-{c}", False, _Side("qgauss_lhs", (a, b, c)),
       _Side("qgauss_rhs", (a, b, c)), f"summable hypergeometric case at (q^{a}, q^{b}, q^{c})")
      for a, b, c in ((1, 1, 3), (1, 2, 4), (2, 2, 5), (1, 1, 4), (2, 3, 7), (1, 3, 5))],
    *[(f"proof-gauss-step-k{k}", False, _Side("gauss_step_lhs", (k,)),
       _Side("gauss_step_rhs", (k,)), f"limiting summation step at k = {k}") for k in (1, 2, 3)],
]}
