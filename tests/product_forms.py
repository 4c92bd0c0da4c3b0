"""Reference forms of the formula builders, built from full series products.

Each function evaluates the same truncated sum or product as its namesake in
``qrafts.identities``, but builds every summand from whole Pochhammer
products, their inverses and a monomial shift, then multiplies them out.
That is O(N^2) work per summand or factor where the library steps one
coefficient list by O(N) factor steps, so these serve only as the tests'
reference.  Every sum runs to its own cutoff, independent of
``identities._upto``, and every Pochhammer product is multiplied out here one
binomial factor at a time, independent of ``series``' factor steps and their
stopping rule.  The Gaussian binomials behind ``minimal_gf`` are built here by
the q-Pascal recurrence.
"""

from functools import lru_cache

from qrafts.series import QSeries, XQSeries


def _b2(a):
    return a * (a - 1) // 2


def _exps(base, step, count, trunc):
    j = 0
    while (count is None or j < count) and base + j * step <= trunc:
        yield base + j * step
        j += 1


@lru_cache(maxsize=None)
def _poch(sign, base, step, count, trunc):
    """prod_j (1 - sign*q^(base + j*step)), multiplied out factor by factor."""
    prod = QSeries.one(trunc)
    for a in _exps(base, step, count, trunc):
        prod = (QSeries.one(trunc) - QSeries.monomial(a, trunc, sign)) * prod
    return prod


def _xq_poch(sign, base, step, count, x_trunc, q_trunc):
    """prod_j (1 - sign*x*q^(base + j*step)), multiplied out factor by factor."""
    one = XQSeries.one(x_trunc, q_trunc)
    prod = one
    for a in _exps(base, step, count, q_trunc):
        prod = (one - XQSeries.monomial(1, a, x_trunc, q_trunc, sign)) * prod
    return prod


@lru_cache(maxsize=None)
def _inv_poch(sign, base, step, count, trunc):
    return _poch(sign, base, step, count, trunc).inverse()


@lru_cache(maxsize=None)
def _gauss_coeffs(n, k):
    """Exact coefficient tuple of the Gaussian binomial [n choose k]_q."""
    if k < 0 or k > n:
        return (0,)
    k = min(k, n - k)  # symmetry keeps the cache small
    if k == 0:
        return (1,)
    a = _gauss_coeffs(n - 1, k - 1)
    b = _gauss_coeffs(n - 1, k)  # enters shifted by q^k
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    return tuple(out)


def gaussian_binomial(n, k, trunc):
    """[n choose k]_q as a QSeries; zero when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return QSeries.from_coeffs(_gauss_coeffs(n, k), trunc)


def xq_inverse(a: XQSeries) -> XQSeries:
    """Inverse by forward recurrence on x-degree; needs a unit x^0 slice."""
    b0 = a.slice(0).inverse()
    out = {0: b0}
    for n in range(1, a.x_trunc + 1):
        acc = QSeries.zero(a.q_trunc)
        for d, s in a.terms.items():
            if 0 < d <= n and n - d in out:
                acc = acc + s * out[n - d]
        if not acc.is_zero():
            out[n] = -(b0 * acc)
    return XQSeries(a.x_trunc, a.q_trunc, out)


def rr_product(residues, modulus, trunc):
    prod = QSeries.one(trunc)
    for r in residues:
        prod = prod * _poch(1, r, modulus, None, trunc)
    return prod.inverse()


def slater_sum(shift, extra_len, trunc):
    total = QSeries.zero(trunc)
    j = 0
    while 3 * j * j + shift * j <= trunc:
        term = QSeries.monomial(3 * j * j + shift * j, trunc) \
            * _inv_poch(1, 2, 2, j, trunc) * _inv_poch(-1, 1, 1, 2 * j + extra_len, trunc)
        total = total + (-term if j % 2 else term)
        j += 1
    return _poch(-1, 1, 1, None, trunc) * total


def minimal_exponent(k, m):
    return _b2(3 * k + m) - 3 * _b2(k) - m * (k - 1)


def minimal_gf(k, trunc):
    total = QSeries.zero(trunc)
    m = 0
    while minimal_exponent(k, m) <= trunc:
        total = total + QSeries.monomial(minimal_exponent(k, m), trunc) \
            * gaussian_binomial(m + k - 1, k - 1, trunc) \
            * _poch(-1, 3 * k + m + 1, 1, None, trunc)
        m += 1
    return total


def rafted_gf(k, trunc):
    return minimal_gf(k, trunc) * _inv_poch(1, 2, 2, k, trunc)


def no_raft_gf(trunc):
    total = _poch(-1, 1, 1, None, trunc)
    k = 1
    while 3 * k * k <= trunc:
        term = rafted_gf(k, trunc)
        total = total + (-term if k % 2 else term)
        k += 1
    return total


def qgauss_lhs(a_exp, b_exp, c_exp, trunc):
    gap = c_exp - a_exp - b_exp
    total = QSeries.zero(trunc)
    n = 0
    while gap * n <= trunc:
        total = total + QSeries.monomial(gap * n, trunc) \
            * _poch(1, a_exp, 1, n, trunc) * _poch(1, b_exp, 1, n, trunc) \
            * _inv_poch(1, 1, 1, n, trunc) * _inv_poch(1, c_exp, 1, n, trunc)
        n += 1
    return total


def qgauss_rhs(a_exp, b_exp, c_exp, trunc):
    gap = c_exp - a_exp - b_exp
    num = _poch(1, c_exp - a_exp, 1, None, trunc) * _poch(1, c_exp - b_exp, 1, None, trunc)
    return num * _inv_poch(1, c_exp, 1, None, trunc) * _inv_poch(1, gap, 1, None, trunc)


def gauss_step_lhs(k, trunc):
    total = QSeries.zero(trunc)
    m = 0
    while _b2(m) + (2 * k + 1) * m <= trunc:
        total = total + QSeries.monomial(_b2(m) + (2 * k + 1) * m, trunc) \
            * _poch(1, k, 1, m, trunc) \
            * _inv_poch(1, 1, 1, m, trunc) * _inv_poch(-1, 3 * k + 1, 1, m, trunc)
        m += 1
    return total


def gauss_step_rhs(k, trunc):
    return _poch(-1, 2 * k + 1, 1, None, trunc) * _inv_poch(-1, 3 * k + 1, 1, None, trunc)


def master_lhs(x_trunc, q_trunc):
    total = XQSeries.zero(x_trunc, q_trunc)
    k = 0
    while 3 * k * k <= q_trunc and 2 * k <= x_trunc:
        term = XQSeries.monomial(2 * k, 3 * k * k, x_trunc, q_trunc) \
            * _inv_poch(1, 2, 2, k, q_trunc) \
            * xq_inverse(_xq_poch(-1, 1, 1, 2 * k, x_trunc, q_trunc))
        total = total + (-term if k % 2 else term)
        k += 1
    return _xq_poch(-1, 1, 1, None, x_trunc, q_trunc) * total


def master_rhs(x_trunc, q_trunc):
    total = XQSeries.zero(x_trunc, q_trunc)
    n = 0
    while n * n <= q_trunc and n <= x_trunc:
        total = total + XQSeries.monomial(n, n * n, x_trunc, q_trunc) \
            * _inv_poch(1, 1, 1, n, q_trunc)
        n += 1
    return total


def bmn_gf(k, x_trunc, q_trunc):
    total = XQSeries.zero(x_trunc, q_trunc)
    j = 0
    while _b2(k * j + 1) + k * _b2(j) <= q_trunc and k * j <= x_trunc:
        r = 0
        while (_b2(k * j + r + 1) + k * _b2(j) <= q_trunc and k * j + r <= x_trunc):
            term = XQSeries.monomial(k * j + r, _b2(k * j + r + 1) + k * _b2(j),
                                     x_trunc, q_trunc) \
                * _inv_poch(1, k, k, j, q_trunc) * _inv_poch(1, 1, 1, r, q_trunc)
            total = total + (-term if j % 2 else term)
            r += 1
        j += 1
    return total


def staircase_gf(d, x_trunc, q_trunc):
    def q_exp(n, k, m):
        return (_b2(n + 1) + d * _b2(n) + 3 * k * k + d * _b2(2 * k) + m + d * _b2(m)
                + d * (2 * n * k + n * m + 2 * k * m))

    def fits(n, k, m):
        return q_exp(n, k, m) <= q_trunc and n + 2 * k + m <= x_trunc

    total = XQSeries.zero(x_trunc, q_trunc)
    n = 0
    while fits(n, 0, 0):
        k = 0
        while fits(n, k, 0):
            m = 0
            while fits(n, k, m):
                if m == 0:
                    num = QSeries.one(q_trunc)
                elif k == 0:
                    break  # (1; q)_m vanishes for m >= 1
                else:
                    num = _poch(1, 2 * k, 1, m, q_trunc)
                term = XQSeries.monomial(n + 2 * k + m, q_exp(n, k, m), x_trunc, q_trunc) \
                    * _inv_poch(1, 1, 1, n, q_trunc) * _inv_poch(1, 2, 2, k, q_trunc) \
                    * num * _inv_poch(1, 1, 1, m, q_trunc)
                total = total + (-term if (k + m) % 2 else term)
                m += 1
            k += 1
        n += 1
    return total
