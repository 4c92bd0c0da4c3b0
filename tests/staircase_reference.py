"""Reference pass (b) of the staircase sum at d = 0, one row list at a time.

``identities.staircase_gf`` divides every row of its (k, m) table by (q;q)_n
at once at d = 0, packed across x-degree (``identities._packed_rows_pass``).
This module keeps the list pass it replaced: each row j runs through
``identities._terms`` on its own coefficient list, as the sum over n of
q^(binom(n+1,2) + j) x^(n+j) row / (q;q)_n.  The product-built forms in
``product_forms`` take tens of seconds past order 40, so the tests judge the
packed pass against this one at orders up to 200.
"""

from qrafts.identities import _QQ, _add_term, _b2, _terms
from qrafts.series import _from_buffers


def list_rows_pass(rows, x_trunc, q_trunc):
    """Sum over n and j of q^(binom(n+1,2) + j) x^(n+j) rows[j] / (q;q)_n, row
    by row; row j holds q_trunc+1-j coefficients and is left as it is."""
    acc = {}
    for j, row in rows.items():
        for n, e, term in _terms(q_trunc, lambda n: _b2(n + 1) + j, row[:], den=_QQ,
                                 stop=lambda n: n + j > x_trunc):
            _add_term(acc, q_trunc + 1, n + j, e, 1, term)
    return _from_buffers(x_trunc, q_trunc, acc)
