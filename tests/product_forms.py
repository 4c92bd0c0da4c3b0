"""Reference forms of the formula builders, multiplied out on plain lists.

Each function evaluates the same truncated sum or product as its namesake in
``qrafts.identities``, but builds every summand as a product of whole
coefficient lists by one schoolbook multiplication, ``_mul``, or by its form
on tables mapping x-degree to coefficient list, ``_xmul``.  That is O(N^2)
work per factor where the library steps one coefficient list by O(N) factor
steps, so these serve only as the tests' reference.  A Pochhammer product is
multiplied out one binomial factor at a time, and its inverse one geometric
series per factor, 1/(1 - s*q^a) = sum_j s^j q^(a*j): nothing here divides.
Every sum and product runs to its own cutoff, independent of
``identities._terms`` and of ``series``' stopping rule, and only the two result
containers come from the library.  The Gaussian binomials behind
``minimal_gf`` are built here by the q-Pascal recurrence.
"""

from functools import lru_cache

from qrafts import QSeries, XQSeries


def _b2(a):
    return a * (a - 1) // 2


def _mul(a, b):
    """Schoolbook product of two coefficient lists, modulo q^len(a)."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _xmul(a, b, x_trunc):
    """Product of two x-degree -> coefficient list tables, modulo x^(x_trunc+1)."""
    out = {}
    for da, ra in a.items():
        for db, rb in b.items():
            if da + db <= x_trunc:
                _add(out.setdefault(da + db, [0] * len(ra)), _mul(ra, rb))
    return out


def _add(total, term, shift=0, sign=1):
    """total += sign * q^shift * term, modulo q^len(total)."""
    for i in range(len(total) - shift):
        total[i + shift] += sign * term[i]


def _xadd(total, table, x_shift, q_shift, sign, x_trunc):
    """total += sign * x^x_shift * q^q_shift * table, modulo x^(x_trunc+1)."""
    for d, row in table.items():
        if d + x_shift <= x_trunc:
            _add(total.setdefault(d + x_shift, [0] * len(row)), row, q_shift, sign)


def _xq(table, x_trunc, q_trunc):
    return XQSeries(x_trunc, q_trunc,
                    {d: QSeries(q_trunc, tuple(row)) for d, row in table.items()})


def _exps(base, step, count, trunc):
    j = 0
    while (count is None or j < count) and base + j * step <= trunc:
        yield base + j * step
        j += 1


def _factor(sign, a, trunc):
    """1 - sign*q^a as a coefficient list; a >= 1."""
    c = [1] + [0] * trunc
    if a <= trunc:
        c[a] -= sign
    return c


def _geometric(sign, a, trunc):
    """1/(1 - sign*q^a) = sum_j sign^j q^(a*j) as a coefficient list; a >= 1."""
    c = [0] * (trunc + 1)
    for j, e in enumerate(range(0, trunc + 1, a)):
        c[e] = sign ** j
    return c


@lru_cache(maxsize=None)
def _poch(sign, base, step, count, trunc, inverse=False):
    """prod_j (1 - sign*q^(base + j*step)), or its inverse, factor by factor."""
    prod = [1] + [0] * trunc
    for a in _exps(base, step, count, trunc):
        prod = _mul((_geometric if inverse else _factor)(sign, a, trunc), prod)
    return tuple(prod)


def _inv_poch(sign, base, step, count, trunc):
    return _poch(sign, base, step, count, trunc, inverse=True)


def _x_factor(sign, a, x_trunc, q_trunc):
    """1 - sign*x*q^a as an x-degree table."""
    table = {0: [1] + [0] * q_trunc}
    if x_trunc >= 1:
        table[1] = [0] * (q_trunc + 1)
        table[1][a] = -sign
    return table


def _x_geometric(sign, a, x_trunc, q_trunc):
    """1/(1 - sign*x*q^a) = sum_j sign^j x^j q^(a*j) as an x-degree table."""
    table = {}
    for j in range(x_trunc + 1):
        if a * j <= q_trunc:
            table[j] = [0] * (q_trunc + 1)
            table[j][a * j] = sign ** j
    return table


def _xq_poch(sign, base, step, count, x_trunc, q_trunc, inverse=False):
    """prod_j (1 - sign*x*q^(base + j*step)), or its inverse, factor by factor."""
    prod = {0: [1] + [0] * q_trunc}
    for a in _exps(base, step, count, q_trunc):
        factor = (_x_geometric if inverse else _x_factor)(sign, a, x_trunc, q_trunc)
        prod = _xmul(factor, prod, x_trunc)
    return prod


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
    c = _gauss_coeffs(n, k)[: trunc + 1]
    return QSeries(trunc, c + (0,) * (trunc + 1 - len(c)))


def rr_product(residues, modulus, trunc):
    prod = [1] + [0] * trunc
    for r in residues:
        prod = _mul(_inv_poch(1, r, modulus, None, trunc), prod)
    return QSeries(trunc, tuple(prod))


def slater_sum(shift, extra_len, trunc):
    total = [0] * (trunc + 1)
    j = 0
    while 3 * j * j + shift * j <= trunc:
        term = _mul(_inv_poch(1, 2, 2, j, trunc), _inv_poch(-1, 1, 1, 2 * j + extra_len, trunc))
        _add(total, term, 3 * j * j + shift * j, (-1) ** j)
        j += 1
    return QSeries(trunc, tuple(_mul(_poch(-1, 1, 1, None, trunc), total)))


def minimal_exponent(k, m):
    return _b2(3 * k + m) - 3 * _b2(k) - m * (k - 1)


def minimal_gf(k, trunc):
    total = [0] * (trunc + 1)
    m = 0
    while minimal_exponent(k, m) <= trunc:
        gauss = gaussian_binomial(m + k - 1, k - 1, trunc).coeffs
        _add(total, _mul(gauss, _poch(-1, 3 * k + m + 1, 1, None, trunc)),
             minimal_exponent(k, m))
        m += 1
    return QSeries(trunc, tuple(total))


def rafted_gf(k, trunc):
    return QSeries(trunc, tuple(_mul(minimal_gf(k, trunc).coeffs,
                                     _inv_poch(1, 2, 2, k, trunc))))


def no_raft_gf(trunc):
    total = list(_poch(-1, 1, 1, None, trunc))
    k = 1
    while 3 * k * k <= trunc:
        _add(total, rafted_gf(k, trunc).coeffs, 0, (-1) ** k)
        k += 1
    return QSeries(trunc, tuple(total))


def qgauss_lhs(a_exp, b_exp, c_exp, trunc):
    gap = c_exp - a_exp - b_exp
    total = [0] * (trunc + 1)
    n = 0
    while gap * n <= trunc:
        num = _mul(_poch(1, a_exp, 1, n, trunc), _poch(1, b_exp, 1, n, trunc))
        den = _mul(_inv_poch(1, 1, 1, n, trunc), _inv_poch(1, c_exp, 1, n, trunc))
        _add(total, _mul(num, den), gap * n)
        n += 1
    return QSeries(trunc, tuple(total))


def qgauss_rhs(a_exp, b_exp, c_exp, trunc):
    gap = c_exp - a_exp - b_exp
    num = _mul(_poch(1, c_exp - a_exp, 1, None, trunc), _poch(1, c_exp - b_exp, 1, None, trunc))
    den = _mul(_inv_poch(1, c_exp, 1, None, trunc), _inv_poch(1, gap, 1, None, trunc))
    return QSeries(trunc, tuple(_mul(num, den)))


def gauss_step_lhs(k, trunc):
    total = [0] * (trunc + 1)
    m = 0
    while _b2(m) + (2 * k + 1) * m <= trunc:
        den = _mul(_inv_poch(1, 1, 1, m, trunc), _inv_poch(-1, 3 * k + 1, 1, m, trunc))
        _add(total, _mul(_poch(1, k, 1, m, trunc), den), _b2(m) + (2 * k + 1) * m)
        m += 1
    return QSeries(trunc, tuple(total))


def gauss_step_rhs(k, trunc):
    return QSeries(trunc, tuple(
        _mul(_poch(-1, 2 * k + 1, 1, None, trunc), _inv_poch(-1, 3 * k + 1, 1, None, trunc))))


def master_lhs(x_trunc, q_trunc):
    total = {}
    k = 0
    while 3 * k * k <= q_trunc and 2 * k <= x_trunc:
        term = _xmul({0: _inv_poch(1, 2, 2, k, q_trunc)},
                     _xq_poch(-1, 1, 1, 2 * k, x_trunc, q_trunc, inverse=True), x_trunc)
        _xadd(total, term, 2 * k, 3 * k * k, (-1) ** k, x_trunc)
        k += 1
    return _xq(_xmul(_xq_poch(-1, 1, 1, None, x_trunc, q_trunc), total, x_trunc),
               x_trunc, q_trunc)


def master_rhs(x_trunc, q_trunc):
    total = {}
    n = 0
    while n * n <= q_trunc and n <= x_trunc:
        _xadd(total, {0: _inv_poch(1, 1, 1, n, q_trunc)}, n, n * n, 1, x_trunc)
        n += 1
    return _xq(total, x_trunc, q_trunc)


def bmn_gf(k, x_trunc, q_trunc):
    total = {}
    j = 0
    while _b2(k * j + 1) + k * _b2(j) <= q_trunc and k * j <= x_trunc:
        r = 0
        while (_b2(k * j + r + 1) + k * _b2(j) <= q_trunc and k * j + r <= x_trunc):
            term = _mul(_inv_poch(1, k, k, j, q_trunc), _inv_poch(1, 1, 1, r, q_trunc))
            _xadd(total, {0: term}, k * j + r, _b2(k * j + r + 1) + k * _b2(j),
                  (-1) ** j, x_trunc)
            r += 1
        j += 1
    return _xq(total, x_trunc, q_trunc)


def staircase_gf(d, x_trunc, q_trunc):
    def q_exp(n, k, m):
        return (_b2(n + 1) + d * _b2(n) + 3 * k * k + d * _b2(2 * k) + m + d * _b2(m)
                + d * (2 * n * k + n * m + 2 * k * m))

    def fits(n, k, m):
        return q_exp(n, k, m) <= q_trunc and n + 2 * k + m <= x_trunc

    total = {}
    n = 0
    while fits(n, 0, 0):
        k = 0
        while fits(n, k, 0):
            m = 0
            while fits(n, k, m):
                if m > 0 and k == 0:
                    break  # (1; q)_m vanishes for m >= 1
                term = _mul(_mul(_inv_poch(1, 1, 1, n, q_trunc), _inv_poch(1, 2, 2, k, q_trunc)),
                            _mul(_poch(1, 2 * k, 1, m, q_trunc), _inv_poch(1, 1, 1, m, q_trunc)))
                _xadd(total, {0: term}, n + 2 * k + m, q_exp(n, k, m), (-1) ** (k + m), x_trunc)
                m += 1
            k += 1
        n += 1
    return _xq(total, x_trunc, q_trunc)
