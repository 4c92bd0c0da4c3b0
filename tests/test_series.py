"""Truncated series containers, factor steps, Pochhammer products, and the tests'
list reference and Gaussian binomials."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrafts.partitions import iter_gap_exact
from qrafts.series import (
    NonUnitConstantError,
    PochhammerSpec,
    QSeries,
    TruncationMismatchError,
    XQSeries,
    _from_buffers,
    _product,
    _slot_words,
    div_factor,
    mul_factor,
)

from product_forms import (
    _factor,
    _geometric,
    _inv_poch,
    _mul,
    _poch,
    _xadd,
    _xq_poch,
    gaussian_binomial,
)

N = 12


def poly(*coeffs, trunc=N):
    """The series with these leading coefficients, zero-padded to trunc."""
    return QSeries(trunc, coeffs + (0,) * (trunc + 1 - len(coeffs)))


small_series = st.builds(
    lambda cs: poly(*cs),
    st.lists(st.integers(-9, 9), max_size=N + 1),
)


class TestQSeriesBasics:
    def test_zero_one_monomial(self):
        assert QSeries.zero(3).coeffs == (0, 0, 0, 0) and QSeries.zero(3).is_zero()
        assert poly(1, trunc=3) == QSeries(3, (1, 0, 0, 0))
        q2 = QSeries(3, (0, 0, 1, 0))
        assert q2[2] == 1 and not q2.is_zero()

    def test_negative_trunc_rejected(self):
        with pytest.raises(ValueError):
            QSeries.zero(-1)

    def test_coefficient_access(self):
        s = poly(5, 0, -3)
        assert s.coefficient(0) == 5
        assert s[2] == -3
        assert s[N] == 0
        with pytest.raises(IndexError):
            s.coefficient(N + 1)


class TestPochhammer:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PochhammerSpec(0, 1, 1)
        with pytest.raises(ValueError):
            PochhammerSpec(1, 0, 1)
        with pytest.raises(ValueError):
            PochhammerSpec(1, 1, 0)

    def test_euler_pentagonal(self):
        # (q;q)_inf has coefficient (-1)^j at j(3j-1)/2 and j(3j+1)/2, else 0
        got = _product(30, [PochhammerSpec(1, 1, 1)])
        want = [0] * 31
        want[0] = 1
        j = 1
        while j * (3 * j - 1) // 2 <= 30:
            s = -1 if j % 2 else 1
            want[j * (3 * j - 1) // 2] = s
            if j * (3 * j + 1) // 2 <= 30:
                want[j * (3 * j + 1) // 2] = s
            j += 1
        assert got == want

    def test_distinct_part_counts(self):
        got = _product(10, [PochhammerSpec(-1, 1, 1)])
        assert got == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]

    def test_all_partition_counts(self):
        # 1/(q;q)_inf against the classic dynamic-programming count
        M = 20
        dp = [1] + [0] * M
        for part in range(1, M + 1):
            for w in range(part, M + 1):
                dp[w] += dp[w - part]
        assert _product(M, den=[PochhammerSpec(1, 1, 1)]) == dp

    def test_infinite_product_steps(self):
        # (1 - q^2)(1 - q^7)(1 - q^12) modulo q^13; the factor at q^17 is 1 there
        got = _product(12, [PochhammerSpec(1, 2, 5)])
        assert got == [1, 0, -1, 0, 0, 0, 0, -1, 0, 1, 0, 0, -1]


def _stepped(trunc, num, den):
    """prod(num) / prod(den) with every factor stepped and nothing cancelled."""
    c = [1] + [0] * trunc
    for families, apply in ((num, mul_factor), (den, div_factor)):
        for f in families:
            for a in range(f.base_exp, trunc + 1, f.step_exp):
                apply(c, f.sign, a)
    return c


SPECS = [PochhammerSpec(s, b, t) for s in (1, -1) for b in range(1, 5) for t in range(1, 4)]
SMALL_SPECS = [f for f in SPECS if f.base_exp <= 2 and f.step_exp <= 2]


class TestProductCancellation:
    """``_product`` cancels the factors its two sides share; that changes no coefficient."""

    def test_one_family_per_side(self):
        for num in SPECS:
            for den in SPECS:
                for trunc in range(26):
                    assert _product(trunc, [num], [den]) == _stepped(trunc, [num], [den]), \
                        (num, den, trunc)

    def test_two_families_per_side(self):
        pairs = list(itertools.combinations_with_replacement(SMALL_SPECS, 2))
        for num in pairs:
            for den in pairs:
                want = _stepped(25, num, den)
                for trunc in range(26):
                    assert _product(trunc, num, den) == want[:trunc + 1], (num, den, trunc)

    def test_full_cancellation_and_signs(self):
        q_q, mq_q = PochhammerSpec(1, 1, 1), PochhammerSpec(-1, 1, 1)
        assert _product(25, [q_q], [q_q]) == [1] + [0] * 25
        # (q;q)_inf / (-q;q)_inf: the same exponents with other signs never cancel
        got = _product(25, [q_q], [mq_q])
        assert got == _stepped(25, [q_q], [mq_q]) and got[1] == -2
        # one factor of (q;q)_inf^2 left over
        assert _product(25, [q_q, q_q], [q_q]) == _product(25, [q_q])


def _multiplied_out(trunc, num, den):
    """prod(num) / prod(den), every family multiplied out by product_forms."""
    c = [1] + [0] * trunc
    for families, inverse in ((num, False), (den, True)):
        for f in families:
            c = _mul(list(_poch(f.sign, f.base_exp, f.step_exp, None, trunc, inverse)), c)
    return c


class TestPackedProduct:
    """``_product`` steps one int that packs every coefficient in a signed
    slot of ``_slot_words`` 64-bit words.  It equals the products multiplied
    out in tests/product_forms.py, and its slots hold the widest quotient of
    F families, 1/(q;q)_inf^F."""

    @pytest.mark.parametrize("F", range(1, 7))
    def test_seeded_families(self, F):
        """Seeded lists of F families (mixed signs, base 1-4, step 1-3), at
        every split into num and den, at orders 0, 1, 2, 7, 40 and 200."""
        rnd = random.Random(F)
        for _ in range(3):
            families = [rnd.choice(SPECS) for _ in range(F)]
            for k in range(F + 1):
                num, den = families[:k], families[k:]
                want = _multiplied_out(200, num, den)
                for trunc in (0, 1, 2, 7, 40, 200):
                    assert _product(trunc, num, den) == want[:trunc + 1], (num, den, trunc)

    @pytest.mark.parametrize("F", range(1, 7))
    def test_seeded_families_at_order_800(self, F):
        """One seeded list of F families at order 800, at a seeded split,
        drawn from four families so that product_forms builds each once."""
        rnd = random.Random(800 + F)
        pool = [PochhammerSpec(1, 1, 1), PochhammerSpec(-1, 1, 1),
                PochhammerSpec(1, 2, 3), PochhammerSpec(-1, 4, 2)]
        families = [rnd.choice(pool) for _ in range(F)]
        k = rnd.randint(0, F)
        num, den = families[:k], families[k:]
        assert _product(800, num, den) == _multiplied_out(800, num, den), (num, den)

    def test_widest_quotient(self):
        """1/(q;q)_inf^6 at order 800, whose coefficients take 231 bits."""
        den = [PochhammerSpec(1, 1, 1)] * 6
        got = _product(800, den=den)
        assert got == _multiplied_out(800, [], den)
        assert max(got).bit_length() == 231

    @pytest.mark.parametrize("N", [200, 800])
    def test_slots_hold_the_widest_quotient(self, N):
        """Every coefficient of 1/(q;q)_inf^F to q^N, F = 1..6, fits a
        signed slot: its size takes fewer bits than the slot has."""
        inverse = list(_poch(1, 1, 1, None, N, True))
        c = [1] + [0] * N
        for F in range(1, 7):
            c = _mul(inverse, c)
            assert max(c).bit_length() < 64 * _slot_words(F, N), F


class TestGaussianBinomial:
    def test_edges(self):
        one = QSeries(8, (1,) + (0,) * 8)
        assert gaussian_binomial(5, 0, 8) == one
        assert gaussian_binomial(5, 5, 8) == one
        assert gaussian_binomial(3, 5, 8).is_zero()

    def test_four_choose_two(self):
        assert gaussian_binomial(4, 2, 6).coeffs[:5] == (1, 1, 2, 1, 1)

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_symmetry_and_counting(self, n, k):
        big = 90
        a = gaussian_binomial(n, k, big)
        assert a == gaussian_binomial(n, n - k, big) if k <= n else a.is_zero()
        if k <= n:
            assert sum(a.coeffs) == math.comb(n, k)

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_pascal_recurrence(self, n, k):
        big = 90
        lhs = gaussian_binomial(n, k, big)
        shifted = ((0,) * k + gaussian_binomial(n - 1, k, big).coeffs)[: big + 1]
        rhs = tuple(map(sum, zip(gaussian_binomial(n - 1, k - 1, big).coeffs, shifted)))
        assert lhs == QSeries(big, rhs)

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_palindrome(self, a, b):
        # degree a*b, coefficients read the same both ways
        cs = gaussian_binomial(a + b, a, a * b + 2).coeffs
        assert cs[a * b + 1] == 0
        body = cs[: a * b + 1]
        assert body == body[::-1]

    def test_box_counting(self):
        # coefficient of q^w counts partitions inside a 3 x 4 box
        cs = gaussian_binomial(7, 3, 12).coeffs
        for w in range(13):
            count = 0
            for p1 in range(0, 5):
                for p2 in range(0, p1 + 1):
                    for p3 in range(0, p2 + 1):
                        if p1 + p2 + p3 == w:
                            count += 1
            assert cs[w] == count


class TestXQSeries:
    def test_normalization_drops_zero_slices(self):
        a = XQSeries(3, 5, {1: QSeries.zero(5), 2: poly(1, trunc=5)})
        assert list(a.terms) == [2]
        assert a == XQSeries(3, 5, {2: poly(1, trunc=5)})

    def test_validation(self):
        with pytest.raises(ValueError):
            XQSeries(3, 5, {4: poly(1, trunc=5)})
        with pytest.raises(TruncationMismatchError):
            XQSeries(3, 5, {1: poly(1, trunc=4)})

    def test_monomial_and_slice(self):
        m = XQSeries(3, 5, {1: poly(0, 0, 1, trunc=5)})  # x q^2
        assert m.slice(1) == poly(0, 0, 1, trunc=5)
        assert m.slice(0).is_zero()

    def test_substitute_x_power(self):
        a = XQSeries(6, 10, {2: poly(0, 0, 0, 1, trunc=10), 1: poly(0, 1, trunc=10)})
        # x -> q^2: x^2 q^3 -> q^7, x q -> q^3
        got = a.substitute_x_power(2)
        assert got == poly(0, 0, 0, 1, 0, 0, 0, 1, trunc=10)
        # x -> 1 keeps exponents
        assert a.substitute_x_power(0) == poly(0, 1, 0, 1, trunc=10)

    def test_substitute_signed_x_power(self):
        a = XQSeries(6, 10, {0: poly(1, trunc=10), 1: poly(0, 1, 2, trunc=10),
                             2: poly(0, 0, 0, 1, trunc=10), 3: poly(0, 0, 0, 5, trunc=10)})
        # x -> -1 is sum_d (-1)^d slice_d, degree by degree
        want = [sum((-1) ** d * s.coeffs[e] for d, s in a.terms.items()) for e in range(11)]
        assert a.substitute_x_power(0, -1) == QSeries(10, tuple(want))
        assert a.substitute_x_power(0, -1) == poly(1, -1, -2, -4, trunc=10)
        # x -> -q: 1 - (q + 2q^2) q + q^3 q^2 - 5q^3 q^3
        assert a.substitute_x_power(1, -1) == poly(1, 0, -1, -2, 0, 1, -5, trunc=10)
        # x -> -q^2: 1 - (q + 2q^2) q^2 + q^3 q^4 - 5q^3 q^6
        assert a.substitute_x_power(2, -1) == poly(1, 0, 0, -1, -2, 0, 0, 1, 0, -5, trunc=10)
        assert a.substitute_x_power(1, 1) == a.substitute_x_power(1)
        for sign in (2, 0, -2):
            with pytest.raises(ValueError, match="sign must be"):
                a.substitute_x_power(0, sign)


class TestXQPochhammer:
    """The tests' reference (x, q)-products, ``product_forms._xq_poch``, against
    brute force and the classical expansions; ``product_forms.master_lhs``
    builds on it, and ``identities.bmn_gf(2, ...)`` rests on the Euler form."""

    def test_tracks_distinct_partitions_by_length(self):
        got = _from_buffers(8, 16, _xq_poch(-1, 1, 1, None, 8, 16))
        acc = {}
        for w in range(17):
            for parts in iter_gap_exact(w, 1):
                if len(parts) <= 8:
                    acc.setdefault(len(parts), [0] * 17)[w] += 1
        want = XQSeries(8, 16, {d: QSeries(16, tuple(b)) for d, b in acc.items()})
        assert got == want

    def test_euler_distinct_form(self):
        # (-xq^a; q)_inf = sum_r x^r q^(r(r-1)/2 + a*r) / (q;q)_r
        xt, qt = 10, 18
        for a in range(1, 6):
            lhs = _xq_poch(-1, a, 1, None, xt, qt)
            rhs = {}
            r = 0
            while r * (r - 1) // 2 + a * r <= qt and r <= xt:
                _xadd(rhs, {0: _inv_poch(1, 1, 1, r, qt)}, r, r * (r - 1) // 2 + a * r, 1, xt)
                r += 1
            assert _from_buffers(xt, qt, lhs) == _from_buffers(xt, qt, rhs), f"a={a}"

    def test_euler_geometric_form(self):
        # 1/(xq; q)_inf = sum_n x^n q^n / (q;q)_n
        xt, qt = 10, 18
        table = _xq_poch(1, 1, 1, None, xt, qt, inverse=True)
        rhs = {}
        for n in range(min(xt, qt) + 1):
            _xadd(rhs, {0: _inv_poch(1, 1, 1, n, qt)}, n, n, 1, xt)
        assert _from_buffers(xt, qt, table) == _from_buffers(xt, qt, rhs)

    def test_finite_q_binomial_theorem(self):
        # (-xq; q)_n = sum_k q^(k(k+1)/2) [n choose k]_q x^k
        xt, qt = 8, 24
        for n in range(7):
            lhs = _xq_poch(-1, 1, 1, n, xt, qt)
            rhs = {}
            for k in range(n + 1):
                _xadd(rhs, {0: gaussian_binomial(n, k, qt).coeffs}, k, k * (k + 1) // 2, 1, xt)
            assert _from_buffers(xt, qt, lhs) == _from_buffers(xt, qt, rhs), f"n={n}"

    def test_base_zero_needs_x_degree(self):
        # base 0 is allowed because every factor carries x: the (x; q)-style product
        got = _from_buffers(4, 4, _xq_poch(1, 0, 1, 1, 4, 4))
        assert got == XQSeries(4, 4, {0: poly(1, trunc=4), 1: poly(-1, trunc=4)})


factor_steps = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.integers(1, N + 2)), max_size=5)


class TestFactorSteps:
    @given(small_series, factor_steps)
    def test_mul_then_div_restores(self, a, steps):
        c = list(a.coeffs)
        for sign, e in steps:
            mul_factor(c, sign, e)
        for sign, e in reversed(steps):
            div_factor(c, sign, e)
        assert c == list(a.coeffs)

    @given(small_series, factor_steps)
    def test_steps_match_series_products(self, a, steps):
        c = list(a.coeffs)
        want = list(a.coeffs)
        for sign, e in steps:
            mul_factor(c, sign, e)
            assert c == (want := _mul(_factor(sign, e, N), want))
        for sign, e in steps:
            div_factor(c, sign, e)
            assert c == (want := _mul(_geometric(sign, e, N), want))

    @pytest.mark.parametrize("sign, base, step, count", [
        (1, 1, 1, None), (-1, 1, 1, None), (1, 2, 2, 4), (-1, 3, 1, 5), (1, 2, 5, None),
    ])
    def test_div_matches_pochhammer_inverse(self, sign, base, step, count):
        c = [1] + [0] * 30
        j = 0
        while (count is None or j < count) and base + j * step <= 30:
            div_factor(c, sign, base + j * step)
            j += 1
        assert c == list(_inv_poch(sign, base, step, count, 30))

    def test_div_needs_unit_constant(self):
        with pytest.raises(NonUnitConstantError):
            div_factor([1, 0, 0], 1, 0)
        c = [1, 2, 3]
        mul_factor(c, 1, 0)  # times (1 - 1) is zero, which is fine
        assert c == [0, 0, 0]
