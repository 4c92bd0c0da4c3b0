"""Truncated series arithmetic, factor steps, Pochhammer products, and the tests'
Gaussian-binomial reference."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrafts.series import (
    NonUnitConstantError,
    PochhammerSpec,
    QSeries,
    TruncationMismatchError,
    XQSeries,
    _from_buffers,
    div_factor,
    div_x_factor,
    mul_factor,
    mul_x_factor,
    pochhammer,
    xq_pochhammer,
)

from product_forms import gaussian_binomial, xq_inverse

N = 12


def poly(*coeffs, trunc=N):
    return QSeries.from_coeffs(coeffs, trunc)


small_series = st.builds(
    lambda cs: QSeries.from_coeffs(cs, N),
    st.lists(st.integers(-9, 9), max_size=N + 1),
)
unit_series = st.builds(
    lambda c0, cs: QSeries.from_coeffs([c0, *cs], N),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), max_size=N),
)


class TestQSeriesBasics:
    def test_zero_one_monomial(self):
        assert QSeries.zero(3).coeffs == (0, 0, 0, 0)
        assert QSeries.one(3).coeffs == (1, 0, 0, 0)
        assert QSeries.monomial(2, 3).coeffs == (0, 0, 1, 0)
        assert QSeries.monomial(7, 3).is_zero()

    def test_negative_trunc_rejected(self):
        with pytest.raises(ValueError):
            QSeries.zero(-1)

    def test_from_coeffs_pads_and_clips(self):
        assert QSeries.from_coeffs([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
        assert QSeries.from_coeffs([1, 2, 3], 1).coeffs == (1, 2)

    def test_coefficient_access(self):
        s = poly(5, 0, -3)
        assert s.coefficient(0) == 5
        assert s[2] == -3
        assert s[N] == 0
        with pytest.raises(IndexError):
            s.coefficient(N + 1)

    def test_add_mul_small(self):
        a = poly(1, 1)
        b = poly(1, -1)
        assert (a + b).coeffs[:3] == (2, 0, 0)
        assert (a * b).coeffs[:3] == (1, 0, -1)
        assert (a * 3).coeffs[:2] == (3, 3)
        assert (-a).coeffs[:2] == (-1, -1)

    def test_mixed_trunc_rejected(self):
        a = QSeries.one(3)
        b = QSeries.one(4)
        with pytest.raises(TruncationMismatchError):
            a + b
        with pytest.raises(TruncationMismatchError):
            a * b

    def test_truncated(self):
        s = poly(1, 2, 3)
        t = s.truncated(1)
        assert t.trunc == 1 and t.coeffs == (1, 2)
        with pytest.raises(ValueError):
            s.truncated(N + 1)

    def test_str_mentions_low_terms(self):
        assert "q^2" in str(poly(0, 0, 7))


class TestQSeriesAlgebra:
    @given(small_series, small_series, small_series)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_series)
    def test_identities_and_negation(self, a):
        assert a + QSeries.zero(N) == a
        assert a * QSeries.one(N) == a
        assert a - a == QSeries.zero(N)
        assert -(-a) == a

    @given(unit_series)
    def test_inverse_roundtrip(self, a):
        assert a * a.inverse() == QSeries.one(N)
        assert a.inverse().inverse() == a

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(NonUnitConstantError):
            poly(2, 1).inverse()
        with pytest.raises(NonUnitConstantError):
            poly(0, 1).inverse()

    def test_geometric_inverse(self):
        inv = poly(1, -1).inverse()
        assert inv.coeffs == tuple([1] * (N + 1))

    def test_negative_unit_inverse(self):
        a = poly(-1, 1, 4)
        assert (a * a.inverse()) == QSeries.one(N)

    def test_two_part_product_inverse(self):
        # 1 / ((1-q)(1-q^2)) counts partitions into parts 1 and 2
        f = (poly(1, -1) * poly(1, 0, -1)).inverse()
        assert f.coeffs[:5] == (1, 1, 2, 2, 3)


class TestPochhammer:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PochhammerSpec(0, 1, 1, None)
        with pytest.raises(ValueError):
            PochhammerSpec(1, 0, 1, None)
        with pytest.raises(ValueError):
            PochhammerSpec(1, 1, 0, None)
        with pytest.raises(ValueError):
            PochhammerSpec(1, 1, 1, -1)

    def test_finite_product(self):
        got = pochhammer(PochhammerSpec(1, 1, 1, 2), 6)
        want = poly(1, -1, trunc=6) * poly(1, 0, -1, trunc=6)
        assert got == want
        assert pochhammer(PochhammerSpec(1, 1, 1, 0), 6) == QSeries.one(6)

    def test_euler_pentagonal(self):
        # (q;q)_inf has coefficient (-1)^j at j(3j-1)/2 and j(3j+1)/2, else 0
        got = pochhammer(PochhammerSpec(1, 1, 1, None), 30)
        want = [0] * 31
        want[0] = 1
        j = 1
        while j * (3 * j - 1) // 2 <= 30:
            s = -1 if j % 2 else 1
            want[j * (3 * j - 1) // 2] = s
            if j * (3 * j + 1) // 2 <= 30:
                want[j * (3 * j + 1) // 2] = s
            j += 1
        assert got.coeffs == tuple(want)

    def test_distinct_part_counts(self):
        got = pochhammer(PochhammerSpec(-1, 1, 1, None), 10)
        assert got.coeffs == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10)

    def test_all_partition_counts(self):
        # 1/(q;q)_inf against the classic dynamic-programming count
        M = 20
        dp = [1] + [0] * M
        for part in range(1, M + 1):
            for w in range(part, M + 1):
                dp[w] += dp[w - part]
        got = pochhammer(PochhammerSpec(1, 1, 1, None), M).inverse()
        assert got.coeffs == tuple(dp)

    def test_infinite_product_steps(self):
        got = pochhammer(PochhammerSpec(1, 2, 5, None), 12)
        want = poly(*([0] * 12), trunc=12)
        want = QSeries.one(12)
        for e in (2, 7, 12):
            want = want * (QSeries.one(12) - QSeries.monomial(e, 12))
        assert got == want


class TestGaussianBinomial:
    def test_edges(self):
        assert gaussian_binomial(5, 0, 8) == QSeries.one(8)
        assert gaussian_binomial(5, 5, 8) == QSeries.one(8)
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
        rhs = gaussian_binomial(n - 1, k - 1, big) \
            + gaussian_binomial(n - 1, k, big) * QSeries.monomial(k, big)
        assert lhs == rhs

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
        a = XQSeries(3, 5, {1: QSeries.zero(5), 2: QSeries.one(5)})
        assert a.x_degrees() == (2,)
        assert a == XQSeries(3, 5, {2: QSeries.one(5)})

    def test_validation(self):
        with pytest.raises(ValueError):
            XQSeries(3, 5, {4: QSeries.one(5)})
        with pytest.raises(TruncationMismatchError):
            XQSeries(3, 5, {1: QSeries.one(4)})
        with pytest.raises(TruncationMismatchError):
            XQSeries.one(2, 5) + XQSeries.one(3, 5)

    def test_monomial_and_slice(self):
        m = XQSeries.monomial(1, 2, 3, 5)
        assert m.slice(1) == QSeries.monomial(2, 5)
        assert m.slice(0).is_zero()
        assert XQSeries.monomial(7, 0, 3, 5).is_zero()

    def test_mul_cross_terms(self):
        x = XQSeries.monomial(1, 0, 4, 4)
        q = XQSeries.monomial(0, 1, 4, 4)
        f = (XQSeries.one(4, 4) + x * q) * (XQSeries.one(4, 4) + x * q)
        assert f.slice(0) == QSeries.one(4)
        assert f.slice(1) == QSeries.monomial(1, 4, 2)
        assert f.slice(2) == QSeries.monomial(2, 4)

    def test_scalar_and_qseries_mul(self):
        a = XQSeries.monomial(1, 1, 3, 6)
        assert (a * 2).slice(1) == QSeries.monomial(1, 6, 2)
        assert (a * QSeries.monomial(2, 6)).slice(1) == QSeries.monomial(3, 6)

    def test_substitute_x_power(self):
        a = XQSeries.monomial(2, 3, 6, 10) + XQSeries.monomial(1, 1, 6, 10)
        # x -> q^2: x^2 q^3 -> q^7, x q -> q^3
        got = a.substitute_x_power(2)
        assert got == QSeries.monomial(7, 10) + QSeries.monomial(3, 10)
        # x -> 1 keeps exponents
        assert a.substitute_x_power(0) == QSeries.monomial(3, 10) + QSeries.monomial(1, 10)


class TestXQPochhammer:
    def test_tracks_distinct_partitions_by_length(self):
        got = xq_pochhammer(-1, 1, 1, None, 8, 16)
        acc = {}
        from qrafts.partitions import iter_distinct_parts
        for parts in iter_distinct_parts(16):
            if len(parts) <= 8:
                acc.setdefault(len(parts), [0] * 17)[sum(parts)] += 1
        want = XQSeries(8, 16, {d: QSeries(16, tuple(b)) for d, b in acc.items()})
        assert got == want

    def test_euler_distinct_form(self):
        # (-xq; q)_inf = sum_n x^n q^(n(n+1)/2) / (q;q)_n
        xt, qt = 10, 18
        lhs = xq_pochhammer(-1, 1, 1, None, xt, qt)
        rhs = XQSeries.zero(xt, qt)
        n = 0
        while n * (n + 1) // 2 <= qt and n <= xt:
            inv = pochhammer(PochhammerSpec(1, 1, 1, n), qt).inverse()
            rhs = rhs + XQSeries.monomial(n, n * (n + 1) // 2, xt, qt) * inv
            n += 1
        assert lhs == rhs

    def test_euler_geometric_form(self):
        # 1/(xq; q)_inf = sum_n x^n q^n / (q;q)_n
        xt, qt = 10, 18
        table = {0: [1] + [0] * qt}
        for a in range(1, qt + 1):
            div_x_factor(table, 1, a, xt)
        lhs = _from_buffers(xt, qt, table)
        rhs = XQSeries.zero(xt, qt)
        for n in range(min(xt, qt) + 1):
            inv = pochhammer(PochhammerSpec(1, 1, 1, n), qt).inverse()
            rhs = rhs + XQSeries.monomial(n, n, xt, qt) * inv
        assert lhs == rhs

    def test_finite_q_binomial_theorem(self):
        # (-xq; q)_n = sum_k q^(k(k+1)/2) [n choose k]_q x^k
        xt, qt = 8, 24
        for n in range(7):
            lhs = xq_pochhammer(-1, 1, 1, n, xt, qt)
            rhs = XQSeries.zero(xt, qt)
            for k in range(n + 1):
                rhs = rhs + XQSeries.monomial(k, k * (k + 1) // 2, xt, qt) \
                    * gaussian_binomial(n, k, qt)
            assert lhs == rhs, f"n={n}"

    def test_base_zero_needs_x_degree(self):
        # base 0 is allowed because every factor carries x: the (x; q)-style product
        got = xq_pochhammer(1, 0, 1, 1, 4, 4)
        assert got == XQSeries.one(4, 4) - XQSeries.monomial(1, 0, 4, 4)


@settings(max_examples=40)
@given(
    st.integers(0, 4), st.integers(0, 6),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(-3, 3)),
             max_size=6),
)
def test_xq_mul_matches_bruteforce(xd, qe, terms):
    xt, qt = 4, 6
    a = XQSeries.monomial(xd, qe, xt, qt)
    b = XQSeries.zero(xt, qt)
    for d, e, c in terms:
        b = b + XQSeries.monomial(d, e, xt, qt, c)
    prod = a * b
    for d in range(xt + 1):
        for e in range(qt + 1):
            want = 0
            if 0 <= d - xd <= xt and 0 <= e - qe <= qt:
                want = b.slice(d - xd).coefficient(e - qe)
            assert prod.slice(d).coefficient(e) == want


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
        want = a
        for sign, e in steps:
            factor = QSeries.one(N) - QSeries.monomial(e, N, sign)
            mul_factor(c, sign, e)
            assert c == list((want := want * factor).coeffs)
        for sign, e in steps:
            div_factor(c, sign, e)
            factor = QSeries.one(N) - QSeries.monomial(e, N, sign)
            assert c == list((want := want * factor.inverse()).coeffs)

    @pytest.mark.parametrize("sign, base, step, count", [
        (1, 1, 1, None), (-1, 1, 1, None), (1, 2, 2, 4), (-1, 3, 1, 5), (1, 2, 5, None),
    ])
    def test_div_matches_pochhammer_inverse(self, sign, base, step, count):
        c = [1] + [0] * 30
        j = 0
        while (count is None or j < count) and base + j * step <= 30:
            div_factor(c, sign, base + j * step)
            j += 1
        spec = PochhammerSpec(sign, base, step, count)
        assert c == list(pochhammer(spec, 30).inverse().coeffs)

    def test_div_needs_unit_constant(self):
        with pytest.raises(NonUnitConstantError):
            div_factor([1, 0, 0], 1, 0)
        c = [1, 2, 3]
        mul_factor(c, 1, 0)  # times (1 - 1) is zero, which is fine
        assert c == [0, 0, 0]

    @pytest.mark.parametrize("sign, base, count", [
        (-1, 1, None), (1, 1, None), (-1, 0, 4), (1, 2, 3), (-1, 3, None),
    ])
    def test_x_steps_match_xq_pochhammer_and_its_inverse(self, sign, base, count):
        xt, qt = 7, 16
        prod = xq_pochhammer(sign, base, 1, count, xt, qt)
        brute = XQSeries.one(xt, qt)
        mul_table = {0: [1] + [0] * qt}
        div_table = {0: [1] + [0] * qt}
        j = 0
        while (count is None or j < count) and base + j <= qt:
            e = base + j
            brute = brute * (XQSeries.one(xt, qt) - XQSeries.monomial(1, e, xt, qt, sign))
            mul_x_factor(mul_table, sign, e, xt)
            div_x_factor(div_table, sign, e, xt)
            j += 1
        assert _from_buffers(xt, qt, mul_table) == prod == brute
        inv = _from_buffers(xt, qt, div_table)
        assert inv == xq_inverse(prod)
        assert inv * prod == XQSeries.one(xt, qt)

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8), st.integers(-3, 3)),
                    max_size=6),
           st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 10)), max_size=4))
    def test_x_mul_then_div_restores(self, terms, steps):
        xt, qt = 4, 8
        table = {0: [0] * (qt + 1)}
        for d, e, c in terms:
            table.setdefault(d, [0] * (qt + 1))[e] += c
        before = _from_buffers(xt, qt, table)
        for sign, e in steps:
            mul_x_factor(table, sign, e, xt)
        for sign, e in reversed(steps):
            div_x_factor(table, sign, e, xt)
        assert _from_buffers(xt, qt, table) == before
