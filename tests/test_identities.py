"""Formula builders vs enumeration oracles, report machinery, the registry."""

import random
import time
from collections import Counter
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrafts import cli
from qrafts import identities as idn
from qrafts import series as ser
from qrafts.identities import (
    REGISTRY,
    FirstDiff,
    IdentityCheck,
    first_difference,
    run_check,
    run_many,
)
from qrafts.partitions import Partition, iter_gap_exact
from qrafts.rafts import RaftedPartition, enumerate_minimal, enumerate_rafted
from qrafts.series import QSeries, XQSeries

import product_forms as ref
from brute import all_distinct, enumerate_designations, is_minimal_structural
from raft_reference import runs_of
from walk_reference import reference_walk


def _by_parts(partitions, x_trunc, q_trunc):
    """Brute count of the given part tuples by (number of parts, weight)."""
    acc = {}
    for parts in partitions:
        if len(parts) <= x_trunc and sum(parts) <= q_trunc:
            acc.setdefault(len(parts), [0] * (q_trunc + 1))[sum(parts)] += 1
    return XQSeries(x_trunc, q_trunc, {n: QSeries(q_trunc, tuple(b)) for n, b in acc.items()})


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_check_passes(name):
    rep = run_check(REGISTRY[name], 25)
    assert rep.passed, rep.first_diff
    assert rep.first_diff is None
    assert rep.q_trunc == 25
    if REGISTRY[name].bivariate:
        assert rep.x_trunc == 25
    else:
        assert rep.x_trunc is None


def test_registry_names_are_kebab_case():
    for name in REGISTRY:
        assert name == name.lower()
        assert " " not in name and "_" not in name


def test_no_two_checks_compare_the_same_sides():
    """A row that compares the same pair of sides as another, in either
    order, checks nothing new.  master-at-x-1 and bmn-c2-slater-19 both
    compare the master build at x = 1 with slater19_sum: deleting one
    changes the registry's pinned digests and row count, so ROADMAP item 1
    takes it out with them."""
    rows: dict = {}
    for name, check in REGISTRY.items():
        rows.setdefault(frozenset((check.lhs, check.rhs)), []).append(name)
    assert [names for names in rows.values() if len(names) > 1] == [
        ["master-at-x-1", "bmn-c2-slater-19"]]


class TestFrozenValues:
    def test_gap2_series_head(self):
        lhs = idn.slater19_sum(10)
        rhs = idn.rr_product((1, 4), 5, 10)
        want = (1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6)
        assert lhs.coeffs == want
        assert rhs.coeffs == want
        assert REGISTRY["inclusion-exclusion-2-distinct"].rhs(10).coeffs == want

    def test_order_zero(self):
        rep = run_check(REGISTRY["slater-19"], 0)
        assert rep.passed
        assert idn.slater19_sum(0).coeffs == (1,)

    def test_complementary_product_head(self):
        assert idn.rr_product((2, 3), 5, 7).coeffs == (1, 0, 1, 1, 1, 1, 2, 2)

    def test_alt_sum_head(self):
        s = idn.slater15_alt_sum(6)
        assert s.coeffs == (1, 0, 1, 1, 1, 1, 2)

    def test_minimal_exponent(self):
        assert [idn.minimal_exponent(k, 0) for k in (1, 2, 3)] == [3, 12, 27]
        # no_raft_gf stops at 3k^2 > N and minimal_gf at the first m past N:
        # both rely on minimal_exponent(k, m) >= 3k^2, increasing in m
        for k in range(1, 7):
            exps = [idn.minimal_exponent(k, m) for m in range(61)]
            assert all(e >= 3 * k * k for e in exps)
            diffs = [b - a for a, b in zip(exps, exps[1:])]
            assert all(d > 0 for d in diffs)
            assert diffs == [2 * k + m + 1 for m in range(60)]

    def test_gf_leading_terms(self):
        for k in (1, 2, 3):
            for f in (idn.minimal_gf, idn.rafted_gf):
                s = f(k, 30)
                assert all(c == 0 for c in s.coeffs[: 3 * k * k])
                assert s.coefficient(3 * k * k) == 1

    def test_minimal_gf_empty_below_threshold(self):
        assert idn.minimal_gf(1, 2).is_zero()
        assert idn.minimal_oracle(2, 2).slice(1).is_zero()

    def test_rafted_single_raft_weight5(self):
        # only {2,3} among weight-5 partitions carries a raft
        assert idn.rafted_oracle(5, 5).slice(1).coefficient(5) == 1
        assert idn.rafted_gf(1, 5).coefficient(5) == 1


class TestSignedDesignations:
    def test_per_partition_indicator(self):
        for p in all_distinct(18):
            total = sum((-1) ** len(d) for d in enumerate_designations(p))
            expect = 0 if any(n >= 2 for _, n in runs_of(p.parts)) else 1
            assert total == expect, p.parts

    def test_examples(self):
        run_free = Partition.of(1, 3, 5)
        assert sum((-1) ** len(d) for d in enumerate_designations(run_free)) == 1
        consec = Partition.of(1, 2, 3, 4)
        assert sum((-1) ** len(d) for d in enumerate_designations(consec)) == 0

    def test_aggregate_matches_formula(self):
        assert REGISTRY["inclusion-exclusion"].rhs(30) == idn.no_raft_gf(30)

    # four rafts weigh at least 48, so k = 4 needs a higher order to count anything
    @pytest.mark.parametrize("k, N", [(1, 36), (2, 36), (3, 36), (4, 54)])
    def test_rafted_oracle_matches_enumeration(self, k, N):
        want = [0] * (N + 1)
        for rp in enumerate_rafted(k, N):
            want[rp.weight] += 1
        assert any(want)
        # the registry's view, which reads the x^k slice as zero past n < k
        view = idn._Side("rafted_oracle", x_slice=k)
        for n in range(N + 1):
            assert view(n).coeffs == tuple(want[: n + 1]), n

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_minimal_oracle_matches_construction(self, k):
        N = 60 if k == 4 else 40  # four rafts weigh at least 48
        want = [0] * (N + 1)
        for rp in enumerate_minimal(k, N):
            want[rp.weight] += 1
        assert any(want)
        # the registry's view, which reads the x^k slice as zero past n < k
        view = idn._Side("minimal_oracle", x_slice=k)
        for n in range(N + 1):
            assert view(n).coeffs == tuple(want[: n + 1]), n

    def test_designation_walk_matches_the_definitions(self):
        """Every designation oracle against brute counts at order 30: the
        designations of each distinct-part partition, and minimality decided
        from the shape of the parts.  One uncapped walk of each kind counts
        every raft count, the 0 rafts included, and is cut at each x-order;
        the x = -1 view that the registry reads is the signed sum."""
        N = 30
        rafted = {k: [0] * (N + 1) for k in range(5)}
        minimal = {k: [0] * (N + 1) for k in range(5)}
        signed = [0] * (N + 1)
        for p in all_distinct(N):
            for d in enumerate_designations(p):
                signed[p.weight] += (-1) ** len(d)
                if len(d) in rafted:
                    rafted[len(d)][p.weight] += 1
                    if is_minimal_structural(RaftedPartition(p, d)):
                        minimal[len(d)][p.weight] += 1
        # k rafts weigh at least 3k^2, so k = 4 counts nothing at order 30
        assert all(any(rafted[k]) and any(minimal[k]) for k in (1, 2, 3))
        assert not any(rafted[4])

        def cut(counts, nx):
            return XQSeries(nx, N, {k: QSeries(N, tuple(c)) for k, c in counts.items() if k <= nx})

        for nx in (N, N // 3, 2, 1, 0):
            assert idn.rafted_oracle(nx, N) == cut(rafted, nx), nx
            assert idn.minimal_oracle(nx, N) == cut(minimal, nx), nx
        assert REGISTRY["inclusion-exclusion"].rhs(N).coeffs == tuple(signed)

    def test_raft_slices_start_at_3k_squared(self):
        """k rafts weigh at least 3k^2 > k, so each raft walk's x^k slice is
        zero below q^(3k^2), and the x-order N at which ``_plan`` builds a
        viewed side keeps every raft count, as the x = -1 view needs."""
        for N in range(41):
            for walked in (idn.rafted_oracle(N, N), idn.minimal_oracle(N, N)):
                for k, sl in walked.terms.items():
                    assert not any(sl.coeffs[: 3 * k * k]), (N, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_no_kseq_oracle_matches_filter(self, k):
        counted = [parts for w in range(37) for parts in iter_gap_exact(w, 1)
                   if all(n < k for _, n in runs_of(parts))]
        for N in range(37):
            for Nx in {N, N // 3}:
                assert idn.no_kseq_oracle(k, Nx, N) == _by_parts(counted, Nx, N), (Nx, N)

    def test_no_2_sequence_is_gap_2(self):
        """bmn-k2 reads the gap-2 walk that staircase-d0 builds on this equality."""
        for N in range(121):
            for Nx in {N, N // 3}:
                assert idn.no_kseq_oracle(2, Nx, N) == idn.d_distinct_xq(2, Nx, N), (Nx, N)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_d_distinct_q_counts_gap_parts(self, d):
        """By weight alone through the registry's x = 1 view, and by part count."""
        counted = [parts for w in range(41) for parts in iter_gap_exact(w, d)]
        at_x1 = idn._Side("d_distinct_xq", (d,), x_power=0)
        for N in range(41):
            assert at_x1(N) == _by_parts(counted, N, N).substitute_x_power(0), N
            for Nx in {N, N // 3}:
                assert idn.d_distinct_xq(d, Nx, N) == _by_parts(counted, Nx, N), (Nx, N)


def _walk_args(build) -> tuple:
    """The (n, start, step) that ``build()`` hands to ``identities._walk``."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idn, "_walk", lambda *args: seen.append(args) or ({}, 2))
        build()
    (args,) = seen
    return args


# every oracle family, by its builder at (x-order, q-order)
ORACLES = {
    **{f"gap-{d}": partial(idn.d_distinct_xq, d) for d in range(1, 8)},
    **{f"no-kseq-{k}": partial(idn.no_kseq_oracle, k) for k in range(1, 7)},
    "rafted": idn.rafted_oracle,
    "minimal": idn.minimal_oracle,
}


@pytest.mark.parametrize("family", list(ORACLES))
def test_walk_is_the_same_at_every_x_order(family):
    """No step reads the x-order: what a builder hands to ``_walk`` walks to
    the same final states and packed ints at x-orders N, N//3 and 0, so
    ``_xq`` alone cuts there and one walk per (family, N) stands for all."""
    for N in (*range(41), 100):
        walks = [idn._walk(*_walk_args(lambda: ORACLES[family](nx, N))) for nx in (N, N // 3, 0)]
        assert walks[1] == walks[0] and walks[2] == walks[0], N


def _oracle_walks(build):
    """The walks of one oracle family at orders 0..40, 100 and 200."""
    for N in (*range(41), 100, 200):
        yield _walk_args(lambda: build(N, N))


def _capped_walks(build, k):
    """The designation walks of ``build`` with moves past k rafts refused, so
    that a taken letter lists one move or two depending on the rafts so far
    (the last entry of the walk's state)."""
    def capped(step):
        return lambda state, taken: [new for new in step(state, taken) if new[3] <= k]

    return [(n, start, capped(step)) for n, start, step in _oracle_walks(build)]


def _bound_walks():
    """Two moves on every 1 letter and one on every 0 letter: the most that
    _walk allows."""
    def step(state, taken):
        return [state, 1 - state] if taken else [state]

    return [(n, 0, step) for n in (*range(31), 150)]


def _bound_counts(n):
    """A(e) = [q^e] prod_{p<=n} (1 + 2q^p) for e = 0..n, part by part."""
    a = [1] + [0] * n
    for p in range(1, n + 1):
        for e in range(n, p - 1, -1):
            a[e] += 2 * a[e - p]
    return a


WALKS = {
    **{family: partial(_oracle_walks, build) for family, build in ORACLES.items()},
    **{f"rafted-{k}": partial(_capped_walks, idn.rafted_oracle, k) for k in range(1, 5)},
    **{f"minimal-{k}": partial(_capped_walks, idn.minimal_oracle, k) for k in range(1, 5)},
    "signed": lambda: _oracle_walks(lambda _, N: REGISTRY["inclusion-exclusion"].rhs(N)),
    "bound-plus": _bound_walks,
}


@pytest.mark.parametrize("family", list(WALKS))
def test_walk_matches_reference(family):
    """The packed walk has the list walk's final states and counts.

    Each packed int must also be exactly sum_e count_e * 2^(e*w), with the
    walk's own w: a walk that kept a carry above slot n would still unpack
    right.  On ``bound-plus`` the counts summed over the final states are
    A(e) exactly, the largest that the walk's bound allows.
    """
    for n, start, step in WALKS[family]():
        want = reference_walk(n, start, step)
        got, w = idn._walk(n, start, step)
        assert {s: idn._unpack(c, n, w) for s, c in got.items()} == want, n
        assert got == {s: sum(c << (e * w) for e, c in enumerate(counts))
                       for s, counts in want.items()}, n
        if family == "bound-plus":
            assert idn._unpack(sum(got.values()), n, w) == _bound_counts(n), n


@pytest.mark.parametrize("family", list(WALKS))
def test_walk_reads_each_move_once_and_no_1_letter_past_n(family):
    """``step`` runs at most once per (state, letter), and never on a 1
    letter after position n, and every packed int the walk returns is
    positive: a final state with no count is dropped, and none goes below 0.

    The second walk carries the number of letters read so far in its state,
    so each call shows its position."""
    for n, start, step in WALKS[family]():
        calls = Counter()

        def counted(state, taken):
            calls[state, taken] += 1
            return step(state, taken)

        got, _ = idn._walk(n, start, counted)
        assert all(c > 0 for c in got.values()), n
        assert max(calls.values()) == 1, n

        read = set()

        def timed(state, taken):
            p, inner = state
            read.add((p, taken))
            return [(p + 1, new) for new in step(inner, taken)]

        idn._walk(n, (0, start), timed)
        assert (n, False) in read and not any(taken and p >= n for p, taken in read), n


def test_unpack_reads_empty_and_full_slots():
    for w in (2, 3, 22, 62, 90):
        full = (1 << w) - 1
        for counts in ([full] * 6, [0] * 6, [0, full, 0, full, full, 0], [full, 0, 0, 0, 0, full]):
            packed = sum(c << (e * w) for e, c in enumerate(counts))
            assert idn._unpack(packed, 5, w) == counts, (w, counts)


def test_width_is_a_sign_bit_over_the_largest_count():
    a = _bound_counts(400)  # A(e) for e <= n takes no part past n, so one list serves
    for n in range(401):
        assert idn._width(n) == max(a[: n + 1]).bit_length() + 1, n


def test_largest_count_is_the_last_and_fits_the_packing_slots():
    """A(e) does not decrease from e = 1, so _width reads A(n) alone, and
    A(n) stays below 2^(b-1) with b = _count_bits(n), so the packed product
    that computes it never carries between slots."""
    a = _bound_counts(400)
    assert all(x <= y for x, y in zip(a[1:], a[2:]))
    for n in range(401):
        assert max(a[: n + 1]) == a[n], n
        assert a[n].bit_length() < idn._count_bits(n), n


# the moves on a 0 letter, the moves on a 1 letter, and the refusal; the ids
# skip moves1 and moves2, the cases of the retired step multipliers
@pytest.mark.parametrize("moves", [
    ([0], [0] * 3, "at most 2 moves"),
    ([0, 1], [0], "at most 1 move on a 0 letter"),
], ids=["moves0", "moves3"])
def test_walk_refuses_steps_past_its_width_bound(moves):
    zero, one, refusal = moves
    with pytest.raises(ValueError, match=refusal):
        idn._walk(5, 0, lambda state, taken: one if taken else zero)


# every k with 3k^2 <= N: k rafts weigh at least 3k^2
RAFT_CASES = [(k, N) for N in (60, 200) for k in range(1, N) if 3 * k * k <= N]


class TestRaftedTable:
    """The closed-form rows by raft count: ``rafted-gf-k{k}`` reads row k and
    the signed sum reads the table at x = -1."""

    @pytest.mark.parametrize("N", [60, 200])
    def test_table_equals_the_designation_walk(self, N):
        for nx in (N, N // 3, 1):
            assert idn.rafted_table(nx, N) == idn.rafted_oracle(nx, N), (N, nx)

    @pytest.mark.parametrize("N", [60, 200])
    def test_x_minus_one_view_is_the_modulus_5_product(self, N):
        rr1 = idn.rr_product((1, 4), 5, N)
        assert REGISTRY["inclusion-exclusion-rr1"].lhs(N) == rr1
        assert idn.no_raft_gf(N) == rr1


class TestForAnyParameter:
    """The paper's families checked far past the registry's members."""

    @pytest.mark.parametrize("N", [60, 200])
    @pytest.mark.parametrize("d", range(11))
    def test_staircase_counts_gap_parts(self, d, N):
        for nx in (N, N // 3):
            assert idn.staircase_gf(d, nx, N) == idn.d_distinct_xq(2 + d, nx, N), nx

    @pytest.mark.parametrize("N", [60, 200])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_bmn_counts_no_kseq(self, k, N):
        assert idn.bmn_gf(k, N, N) == idn.no_kseq_oracle(k, N, N)

    @pytest.mark.parametrize("k, N", RAFT_CASES)
    def test_raft_gfs_count_designations(self, k, N):
        assert idn.minimal_gf(k, N) == idn.minimal_oracle(N, N).slice(k)
        assert idn.rafted_gf(k, N) == idn.rafted_oracle(N, N).slice(k)

    @pytest.mark.parametrize("N", [60, 200])
    def test_qgauss_every_triple(self, N):
        triples = [(a, b, c) for c in range(3, 13) for b in range(1, c)
                   for a in range(1, b + 1) if a + b + 1 <= c]
        assert len(triples) == 125
        for t in triples:
            assert idn.qgauss_lhs(*t, N) == idn.qgauss_rhs(*t, N), t


def _cut_back(s, q_trunc, x_trunc=None):
    """s read back at lower truncation orders."""
    if x_trunc is None:
        return QSeries(q_trunc, s.coeffs[: q_trunc + 1])
    return XQSeries(x_trunc, q_trunc, {d: QSeries(q_trunc, sl.coeffs[: q_trunc + 1])
                                       for d, sl in s.terms.items() if d <= x_trunc})


class TestCutoffSlack:
    """Running a sum past its cutoff changes no coefficient the cutoff keeps.

    A build at a higher order runs every sum past this order's cutoff, with
    longer terms; read back at this order it must be the same series.
    """

    @pytest.mark.parametrize("build", [
        idn.slater19_sum, idn.slater15_sum, idn.slater15_alt_sum, idn.no_raft_gf,
    ])
    def test_univariate(self, build):
        assert build(28) == _cut_back(build(31), 28)

    def test_parametrized_builders(self):
        assert idn.minimal_gf(2, 28) == _cut_back(idn.minimal_gf(2, 31), 28)
        assert idn.rafted_gf(3, 28) == _cut_back(idn.rafted_gf(3, 31), 28)
        assert idn.qgauss_lhs(1, 2, 4, 28) == _cut_back(idn.qgauss_lhs(1, 2, 4, 31), 28)
        assert idn.gauss_step_lhs(2, 28) == _cut_back(idn.gauss_step_lhs(2, 31), 28)

    def test_bivariate(self):
        assert idn.master_rhs(18, 18) == _cut_back(idn.master_rhs(20, 20), 18, 18)
        assert idn.master_rhs(6, 18) == _cut_back(idn.master_rhs(8, 20), 18, 6)

    @pytest.mark.parametrize("build, param", [
        *[(idn.bmn_gf, k) for k in (2, 3, 4)],
        *[(idn.staircase_gf, d) for d in (0, 1, 2, 3)],
    ])
    def test_bivariate_sums(self, build, param):
        assert build(param, 18, 18) == _cut_back(build(param, 20, 20), 18, 18)
        assert build(param, 6, 18) == _cut_back(build(param, 8, 20), 18, 6)


class TestCoefficientCuts:
    """Every running term is cut to the coefficients its sum can still file.

    Full-length terms give the same coefficients, so only these tests keep
    the cuts in place.
    """

    def test_staircase_retires_rows_at_x_trunc(self, monkeypatch):
        """At d >= 1 no row of the (k, m) table is divided and filed once
        n + j > x_trunc.  (At d = 0 the rows are divided packed together, and
        ``test_packed_pass_reads_no_slot_past_x_trunc`` holds the cut.)"""
        overshoot = []
        add_term = idn._add_term

        def spy(acc, size, xd, e, sign, term):
            overshoot.append(xd - nx)
            add_term(acc, size, xd, e, sign, term)

        monkeypatch.setattr(idn, "_add_term", spy)
        for d in (1, 3):
            for nx in (5, 20, 60):
                overshoot.clear()
                idn.staircase_gf(d, nx, 60)
                assert overshoot and max(overshoot) <= 0, (d, nx)

    def test_packed_pass_reads_no_slot_past_x_trunc(self, monkeypatch):
        """At d = 0 the packed pass reads back slots 0..min(t, x_trunc) of the
        int for q^t and no slot past them: slot x_trunc + 1 would be
        x^(x_trunc+1), which no build may file."""
        reads = _spy_reads(monkeypatch)
        for nx in (0, 5, 20, 60, 80):
            reads.clear()
            idn.staircase_gf(0, nx, 60)
            # one 64-bit word per slot at order 60
            assert reads == [(1, min(t, nx) + 1) for t in range(61)], nx


    @pytest.mark.parametrize("build", [
        *[lambda nx, nq, d=d: idn.staircase_gf(d, nx, nq) for d in (0, 1, 2, 3)],
        *[lambda nx, nq, k=k: idn.bmn_gf(k, nx, nq) for k in (2, 3, 4)],
        idn.master_rhs,
    ], ids=[*[f"staircase_gf-{d}" for d in (0, 1, 2, 3)],
            *[f"bmn_gf-{k}" for k in (2, 3, 4)], "master_rhs"])
    def test_terms_are_cut_to_their_buffers(self, monkeypatch, build):
        """No term is filed past the x-order or q_trunc, or longer than its
        buffer less its shift: the sums stop at both orders, so ``_add_term``
        drops nothing (a degree past the x-order would reach ``XQSeries``,
        which raises)."""
        filed = []
        add_term = idn._add_term

        def spy(acc, size, xd, e, sign, term):
            filed.append((xd, size, e, len(term)))
            add_term(acc, size, xd, e, sign, term)

        monkeypatch.setattr(idn, "_add_term", spy)
        orders = [(nx, nq) for nq in (*range(41), 85) for nx in {nq, nq // 3, 0, 1, 5}]
        for nx, nq in ((5, 30), (20, 20), (30, 60), (60, 60), (60, 25), *orders):
            filed.clear()
            build(nx, nq)
            assert filed, (nx, nq)
            for xd, size, e, length in filed:
                assert xd <= nx, (nx, nq, xd)
                assert size <= nq + 1 and 0 <= e < size, (nx, nq, size, e)
                assert length <= size - e, (nx, nq, size, e, length)

    @pytest.mark.parametrize("build", [
        idn.slater19_sum, idn.slater15_sum, idn.slater15_alt_sum, idn.no_raft_gf,
        *[lambda N, k=k: idn.minimal_gf(k, N) for k in (1, 2, 3)],
        *[lambda N, t=t: idn.qgauss_lhs(*t, N) for t in ((1, 1, 3), (2, 3, 7))],
        *[lambda N, k=k: idn.gauss_step_lhs(k, N) for k in (1, 3)],
    ], ids=["slater19_sum", "slater15_sum", "slater15_alt_sum", "no_raft_gf",
            *[f"minimal_gf-{k}" for k in (1, 2, 3)], "qgauss_lhs-1-1-3",
            "qgauss_lhs-2-3-7", "gauss_step_lhs-1", "gauss_step_lhs-3"])
    def test_univariate_terms_fit_their_shift(self, monkeypatch, build):
        """A univariate sum adds no term longer than its total less the shift."""
        added = []
        add_shifted = idn._add_shifted

        def spy(dst, src, coeff, a):
            added.append((len(dst), a, len(src)))
            add_shifted(dst, src, coeff, a)

        monkeypatch.setattr(idn, "_add_shifted", spy)
        for N in (0, 1, 9, 30, 60):
            added.clear()
            build(N)
            for size, e, length in added:
                assert size == N + 1 and 0 <= e < size, (N, size, e)
                assert length <= size - e, (N, size, e, length)

    @pytest.mark.parametrize("shifts", [[0, 3, 2], [-1], [4, 4, 1]],
                             ids=["decreasing", "negative", "decreasing-after-equal"])
    def test_terms_refuses_a_decreasing_shift(self, shifts):
        """The cutoff and the cut are exact only for shifts that start at 0 or
        above and never decrease."""
        with pytest.raises(ValueError, match="must not decrease"):
            list(idn._terms(10, shifts.__getitem__, idn._unit(10)))

    @pytest.mark.parametrize("shift, stop", [
        (lambda i: 3 * i * i, lambda i: False),
        (lambda i: i * i - i, lambda i: False),  # 0, 0, 2, 6, ...: equal shifts are allowed
        (lambda i: 0, lambda i: i > 4),
        (lambda i: 2 * i + 1, lambda i: i > 3),
    ], ids=["3i^2", "i^2-i", "flat-stopped", "2i+1-stopped"])
    def test_terms_yields_exactly_the_indices_within_the_cutoff(self, shift, stop):
        """Index i is yielded iff shift(i) <= trunc and stop(i) is false, with
        its term cut to trunc + 1 - shift(i) coefficients and stepped by
        factor i of each family: num (-q^2;q^3)_i, den (q;q)_i (q^2;q^2)_i."""
        num = [ser.PochhammerSpec(-1, 2, 3)]
        den = [ser.PochhammerSpec(1, 1, 1), ser.PochhammerSpec(1, 2, 2)]
        for trunc in (0, 1, 5, 12, 40):
            want = []
            for i in range(50):
                if shift(i) > trunc or stop(i):
                    break
                want.append(i)
            got = []
            for i, e, term in idn._terms(trunc, shift, idn._unit(trunc), num, den, stop):
                n = trunc + 1 - e
                assert e == shift(i) and len(term) == n, (trunc, i)
                full = ref._mul(ref._mul(list(ref._poch(-1, 2, 3, i, trunc)),
                                         list(ref._inv_poch(1, 1, 1, i, trunc))),
                                list(ref._inv_poch(1, 2, 2, i, trunc)))
                assert term == full[:n], (trunc, i)
                got.append(i)
            assert got == want, trunc

    def test_terms_steps_no_family_on_both_sides(self, monkeypatch):
        """A family in both num and den cancels, as a multiset, before index 1:
        with num [f, g] and den [f, h] only g's and h's factors are stepped,
        and a second copy of f in num is stepped once per index."""
        f, g, h = (ser.PochhammerSpec(1, 1, 1), ser.PochhammerSpec(-1, 2, 3),
                   ser.PochhammerSpec(1, 2, 2))
        stepped = []
        monkeypatch.setattr(idn, "mul_factor", lambda c, sign, a: stepped.append(("mul", sign, a)))
        monkeypatch.setattr(idn, "div_factor", lambda c, sign, a: stepped.append(("div", sign, a)))
        for num, den, want in (
            ([f, g], [f, h], [("mul", -1, 2), ("div", 1, 2), ("mul", -1, 5), ("div", 1, 4)]),
            ([f, f], [f], [("mul", 1, 1), ("mul", 1, 2)]),
        ):
            stepped.clear()
            list(idn._terms(20, lambda i: i, idn._unit(20), num, den, stop=lambda i: i > 2))
            assert stepped == want, (num, den)

    @pytest.mark.parametrize("c, exp, stop, num", [
        (2, lambda j, r: ref._b2(2 * j + r + 1) + 2 * ref._b2(j), lambda j, r: 2 * j + r > 6,
         lambda j: ()),  # bmn_gf(2) at x-order 6
        (3, lambda j, r: ref._b2(3 * j + r + 1) + 3 * ref._b2(j), lambda j, r: False,
         lambda j: ()),  # bmn_gf(3), ended by the q-cutoff alone
        (2, lambda j, r: 3 * j * j + r, lambda j, r: 2 * j + r > 7 or (j == 0 and r > 0),
         lambda j: [ser.PochhammerSpec(1, 2 * j, 1)] if j else []),  # staircase_gf(0)'s table
        (1, lambda j, r: j * j + j * r, lambda j, r: r > 3,  # equal shifts at j = 0
         lambda j: [ser.PochhammerSpec(-1, j + 2, 3), ser.PochhammerSpec(1, 1, 1)]),
    ], ids=["bmn-2-x6", "bmn-3", "staircase-0-x7", "flat-row-stopped"])
    def test_double_terms_yields_exactly_the_pairs_within_the_cutoff(self, c, exp, stop, num):
        """(j, r) is yielded iff a double loop that ends each index at its
        first shift past trunc or its first stop keeps it, with its term cut
        to trunc + 1 - exp(j, r) coefficients and equal there to
        prod num(j)_r / ((q^c;q^c)_j (q;q)_r), multiplied out."""
        for trunc in (0, 1, 5, 12, 40):
            want = []
            for j in range(50):
                if exp(j, 0) > trunc or stop(j, 0):
                    break
                for r in range(50):
                    if exp(j, r) > trunc or stop(j, r):
                        break
                    want.append((j, r))
            got = []
            for j, r, e, term in idn._double_terms(trunc, c, exp, stop, num):
                n = trunc + 1 - e
                assert e == exp(j, r) and len(term) == n, (trunc, j, r)
                full = ref._mul(list(ref._inv_poch(1, c, c, j, trunc)),
                                list(ref._inv_poch(1, 1, 1, r, trunc)))
                for f in num(j):
                    full = ref._mul(full, list(ref._poch(f.sign, f.base_exp, f.step_exp, r,
                                                         trunc)))
                assert term == full[:n], (trunc, j, r)
                got.append((j, r))
            assert got == want, trunc

    @pytest.mark.parametrize("exp", [lambda j, r: 10 - j + r, lambda j, r: 5 + j - r],
                             ids=["decreasing-in-j", "decreasing-in-r"])
    def test_double_terms_refuses_a_decreasing_exponent(self, exp):
        """Both loops end and cut on ``_terms``' shifts, so an exponent that
        decreases in j at r = 0, or in r, raises its ValueError."""
        with pytest.raises(ValueError, match="must not decrease"):
            list(idn._double_terms(20, 2, exp, lambda j, r: j > 3 or r > 3))

    @pytest.mark.parametrize("build, work, steps", [
        (lambda: idn.slater19_sum(85), 1061, 85),
        (lambda: idn.minimal_gf(2, 85), 1235, 67),
        (lambda: idn.qgauss_lhs(1, 1, 3, 85), 7269, 0),  # (q;q) on both sides cancels
        (lambda: idn.qgauss_lhs(2, 2, 5, 85), 10715, 0),  # no family on both sides
        (lambda: idn.qgauss_rhs(1, 1, 3, 85), 0, 2),  # 336 with no factor cancelled
        (lambda: idn.gauss_step_lhs(2, 85), 1623, 0),
        (lambda: idn.gauss_step_rhs(2, 85), 0, 2),  # 160 with no factor cancelled
        (lambda: idn.master_rhs(85, 85), 1023, 0),
        (lambda: idn.bmn_gf(2, 85, 85), 3850, 0),
        (lambda: idn.bmn_gf(3, 85, 85), 2897, 0),
        (lambda: idn.staircase_gf(0, 85, 85), 18126, 0),  # pass (a) and the packed pass's bound
        (lambda: idn.staircase_gf(2, 85, 85), 6083, 0),
        # x-order 4 < q-order 85: an outer loop that ran on past stop(j, 0) to
        # the q-cutoff would step 1 / (q^c;q^c)_j further and raise the count
        (lambda: idn.bmn_gf(2, 4, 85), 1341, 0),
        (lambda: idn.bmn_gf(3, 4, 85), 1032, 0),
        (lambda: idn.staircase_gf(0, 4, 85), 1209, 0),
        (lambda: idn.staircase_gf(2, 4, 85), 2174, 0),
        (lambda: idn.master_rhs(4, 85), 704, 0),
    ], ids=["slater19_sum", "minimal_gf-2", "qgauss_lhs", "qgauss_lhs-2-2-5", "qgauss_rhs",
            "gauss_step_lhs", "gauss_step_rhs", "master_rhs", "bmn_gf-2", "bmn_gf-3",
            "staircase_gf-0", "staircase_gf-2", "bmn_gf-2-x4", "bmn_gf-3-x4",
            "staircase_gf-0-x4", "staircase_gf-2-x4", "master_rhs-x4"])
    def test_work_counts(self, monkeypatch, build, work, steps):
        """Coefficients touched at order 85: len(c) - a per factor step, plus
        every element ``_add_shifted`` adds.  A cut taken out, even one whose
        term is cut again before it is filed, raises the count.  A product
        built by ``series._product`` steps one packed int in place of a list:
        ``steps`` counts its factors, each multiply or divide by one
        (1 - s*q^a), so a factor that numerator and denominator share and
        that is stepped on both sides raises it.  The x-order-4 builds pin
        where each outer sum ends by x-degree, not by q-shift."""
        done, packed = [0], [0]
        add_shifted, packed_factor = ser._add_shifted, ser._packed_factor

        def counted(step):
            def count_step(c, sign, a):
                done[0] += max(len(c) - a, 0)
                step(c, sign, a)
            return count_step

        def count_add(dst, src, coeff, a):
            done[0] += max(min(len(src), len(dst) - a), 0)
            add_shifted(dst, src, coeff, a)

        def count_factor(x, sign, a, m, w, mask):
            packed[0] += abs(m)
            return packed_factor(x, sign, a, m, w, mask)

        count_mul, count_div = counted(ser.mul_factor), counted(ser.div_factor)
        for module in (ser, idn):
            monkeypatch.setattr(module, "mul_factor", count_mul)
            monkeypatch.setattr(module, "div_factor", count_div)
            monkeypatch.setattr(module, "_add_shifted", count_add)
        monkeypatch.setattr(ser, "_packed_factor", count_factor)
        build()
        assert (done[0], packed[0]) == (work, steps)


def _spy_reads(monkeypatch) -> list[tuple[int, int]]:
    """(words per slot, slots) of each int that the packed pass reads back,
    in q order: it reads each q-degree's int through ``_signed_slots``."""
    reads = []
    signed_slots = idn._signed_slots

    def spy(v, r, slots, *bias):
        reads.append((r, slots))
        return signed_slots(v, r, slots, *bias)

    monkeypatch.setattr(idn, "_signed_slots", spy)
    return reads


class TestPackedRowsPass:
    """Pass (b) of the d = 0 staircase sum, every row packed across x-degree,
    against the list pass ``_list_rows_pass`` at d = 0, on copies of the
    rows, at slots of one, two and three 64-bit words: ``series._signed_slots``
    reads the int for q^t back at min(t, x_trunc) + 1 slots of that many words."""

    @pytest.mark.parametrize("N, nx, words", [
        (64, 64, 1), (64, 21, 1), (64, 1, 1), (85, 85, 1), (85, 28, 1), (85, 1, 1),
        (200, 200, 2), (200, 66, 2), (200, 1, 1), (800, 40, 3),
    ])
    def test_staircase_rows(self, monkeypatch, N, nx, words):
        """Each build's own (k, m) table; order 200 needs two words per slot
        (its bound takes 74 bits, against 45 at order 85), and order 800
        three, already at x-order 40."""
        tables = []
        packed_pass = idn._packed_rows_pass

        def spy(rows, x_trunc, q_trunc):
            tables.append({j: row[:] for j, row in rows.items()})
            return packed_pass(rows, x_trunc, q_trunc)

        monkeypatch.setattr(idn, "_packed_rows_pass", spy)
        reads = _spy_reads(monkeypatch)
        got = idn.staircase_gf(0, nx, N)
        assert got == idn._list_rows_pass(tables[0], 0, nx, N)
        assert reads == [(words, min(t, nx) + 1) for t in range(N + 1)]

    @pytest.mark.parametrize("low, high, words", [
        (-(1 << 150), 1 << 150, 3),  # three words per row coefficient
        (-(1 << 70), 1 << 70, 2),  # two
        (-(1 << 40), -1, 1),
        (-(1 << 100), -(1 << 90), 2),
    ], ids=["150-bit", "70-bit", "negative-40-bit", "negative-100-bit"])
    def test_synthetic_rows(self, monkeypatch, low, high, words):
        """Seeded random rows, row j absent where j = 1 mod 3, with
        coefficients of up to 150 bits or all negative; the slot widths are
        those at (40, 40)."""
        rnd = random.Random(low)
        reads = _spy_reads(monkeypatch)
        for N, nx in ((40, 40), (40, 13), (40, 1), (7, 7), (7, 20), (0, 0)):
            rows = {j: [rnd.randint(low, high) for _ in range(N + 1 - j)]
                    for j in range(min(nx, N) + 1) if j % 3 != 1}
            want = idn._list_rows_pass({j: row[:] for j, row in rows.items()}, 0, nx, N)
            reads.clear()
            assert idn._packed_rows_pass({j: row[:] for j, row in rows.items()}, nx, N) == want, \
                (N, nx)
            if (N, nx) == (40, 40):
                assert reads == [(words, t + 1) for t in range(41)]


ORDERS = range(41)
QGAUSS = ((1, 1, 3), (1, 2, 4), (2, 2, 5), (1, 1, 4), (2, 3, 7), (1, 3, 5))


class TestAgainstProductForms:
    """Running-term builders equal their product-built forms in tests/product_forms.py."""

    @pytest.mark.parametrize("build, reference", [
        (idn.slater19_sum, lambda N: ref.slater_sum(0, 0, N)),
        (idn.slater15_sum, lambda N: ref.slater_sum(-2, 0, N)),
        (idn.slater15_alt_sum, lambda N: ref.slater_sum(2, 1, N)),
        (idn.no_raft_gf, ref.no_raft_gf),
        *[(lambda N, k=k: idn.minimal_gf(k, N),
           lambda N, k=k: ref.minimal_gf(k, N)) for k in (1, 2, 3)],
        *[(lambda N, k=k: idn.rafted_gf(k, N),
           lambda N, k=k: ref.rafted_gf(k, N)) for k in (1, 2, 3)],
        *[(lambda N, t=t: idn.qgauss_lhs(*t, N),
           lambda N, t=t: ref.qgauss_lhs(*t, N)) for t in QGAUSS],
        *[(lambda N, k=k: idn.gauss_step_lhs(k, N),
           lambda N, k=k: ref.gauss_step_lhs(k, N)) for k in (1, 2, 3)],
    ], ids=[
        "slater19_sum", "slater15_sum", "slater15_alt_sum", "no_raft_gf",
        *[f"minimal_gf-{k}" for k in (1, 2, 3)], *[f"rafted_gf-{k}" for k in (1, 2, 3)],
        *["qgauss_lhs-{}-{}-{}".format(*t) for t in QGAUSS],
        *[f"gauss_step_lhs-{k}" for k in (1, 2, 3)],
    ])
    def test_univariate(self, build, reference):
        for N in ORDERS:
            assert build(N) == reference(N), N

    @pytest.mark.parametrize("build, reference", [
        (partial(idn.bmn_gf, 2), ref.master_lhs),  # the master sum against its product form
        (idn.master_rhs, ref.master_rhs),
        *[(lambda Nx, Nq, k=k: idn.bmn_gf(k, Nx, Nq),
           lambda Nx, Nq, k=k: ref.bmn_gf(k, Nx, Nq)) for k in (2, 3, 4)],
        *[(lambda Nx, Nq, d=d: idn.staircase_gf(d, Nx, Nq),
           lambda Nx, Nq, d=d: ref.staircase_gf(d, Nx, Nq)) for d in (0, 1, 2, 3)],
    ], ids=[
        "master_lhs", "master_rhs", *[f"bmn_gf-{k}" for k in (2, 3, 4)],
        *[f"staircase_gf-{d}" for d in (0, 1, 2, 3)],
    ])
    def test_bivariate(self, build, reference):
        for N in ORDERS:
            for Nx in {N, N // 3}:
                assert build(Nx, N) == reference(Nx, N), (Nx, N)

    @pytest.mark.parametrize("build, reference", [
        *[(lambda N, r=r: idn.rr_product(r, 5, N),
           lambda N, r=r: ref.rr_product(r, 5, N)) for r in ((1, 4), (2, 3))],
        *[(lambda N, t=t: idn.qgauss_rhs(*t, N),
           lambda N, t=t: ref.qgauss_rhs(*t, N)) for t in QGAUSS],
        *[(lambda N, k=k: idn.gauss_step_rhs(k, N),
           lambda N, k=k: ref.gauss_step_rhs(k, N)) for k in (1, 2, 3)],
    ], ids=[
        "rr_product-1-4", "rr_product-2-3",
        *["qgauss_rhs-{}-{}-{}".format(*t) for t in QGAUSS],
        *[f"gauss_step_rhs-{k}" for k in (1, 2, 3)],
    ])
    def test_product_sides(self, build, reference):
        for N in ORDERS:
            assert build(N) == reference(N), N


class TestCrossWeb:
    def test_three_way_product(self):
        N = 40
        rr1 = idn.rr_product((1, 4), 5, N)
        assert idn.no_raft_gf(N) == rr1
        assert REGISTRY["inclusion-exclusion-2-distinct"].rhs(N) == rr1

    def test_bmn2_at_x1_is_gap2_sum(self):
        N = 36
        assert idn.bmn_gf(2, N, N).substitute_x_power(0) == idn.slater19_sum(N)

    def test_staircase0_x1_counts_gap2(self):
        N = 28
        got = idn.staircase_gf(0, N, N).substitute_x_power(0)
        assert got == REGISTRY["inclusion-exclusion-2-distinct"].rhs(N)

    def test_master_summands_are_c2_summands(self):
        """``bmn_gf``'s docstring: Euler's expansion of the master sum's summand
        j gives summand (j, r) of C_2, with the same x- and q-exponents."""
        k = 2
        for j in range(41):
            for r in range(41):
                assert 2 * j + r == k * j + r
                assert (3 * j * j + comb(r, 2) + (2 * j + 1) * r
                        == comb(k * j + r + 1, 2) + k * comb(j, 2)), (j, r)

    def test_master_x1_equals_staircase0_x1(self):
        N = 24
        a = idn.bmn_gf(2, N, N).substitute_x_power(0)
        b = idn.staircase_gf(0, N, N).substitute_x_power(0)
        assert a == b

    def test_master_slice_structure(self):
        f = idn.master_rhs(12, 12)
        assert f.slice(0) == QSeries(12, (1,) + (0,) * 12)
        # slice n starts at q^(n^2)
        for n in (1, 2, 3):
            s = f.slice(n)
            assert all(c == 0 for c in s.coeffs[: n * n])
            assert s.coefficient(n * n) == 1


# Each side of a bivariate check, and the build behind each viewed side of a
# univariate one, keyed by name.
X_SIDES = {f"{name}-{side}": s if check.bivariate else lambda nx, nq, s=s: s.build((nx, nq))
           for name, check in REGISTRY.items() for side in ("lhs", "rhs")
           for s in [getattr(check, side)]
           if check.bivariate or s.x_power is not None or s.x_slice is not None}


@pytest.mark.parametrize("side", list(X_SIDES))
def test_x_valuation(side):
    """The x^n slice starts at q^n or later: the premise of substitute_x_power
    and of ``_x_slice``."""
    s = X_SIDES[side](20, 20)
    for n, sl in s.terms.items():
        assert not any(sl.coeffs[:n]), f"x^{n} slice has a term below q^{n}"


class TestDomains:
    def test_qgauss_rejects_tight_or_bad_exponents(self):
        with pytest.raises(ValueError):
            idn.qgauss_lhs(1, 1, 2, 10)  # no exponent gap, series diverges
        with pytest.raises(ValueError):
            idn.qgauss_lhs(0, 1, 3, 10)

    def test_k_domains(self):
        with pytest.raises(ValueError):
            idn.minimal_gf(0, 10)
        with pytest.raises(ValueError):
            idn.gauss_step_lhs(0, 10)
        with pytest.raises(ValueError):
            idn.bmn_gf(1, 10, 10)
        with pytest.raises(ValueError):
            idn.staircase_gf(-1, 10, 10)
        with pytest.raises(ValueError):
            next(enumerate_minimal(0, 10))
        with pytest.raises(ValueError, match=r"raft count must be >= 0, got -1"):
            next(enumerate_rafted(-1, 5))
        assert [str(rp) for rp in enumerate_rafted(0, 3)] == ["()", "1", "2", "1,2", "3"]
        with pytest.raises(ValueError):
            idn.no_kseq_oracle(0, 10, 10)
        for d in (0, -1):  # a walk over distinct parts has no gap-0 count
            with pytest.raises(ValueError):
                idn.d_distinct_xq(d, 10, 10)
            with pytest.raises(ValueError):
                idn._Side("d_distinct_xq", (d,), x_power=0)(10)


class TestReports:
    def test_first_difference_none(self):
        a = QSeries(5, (1, 2, 3, 0, 0, 0))
        assert first_difference(a, a) is None

    def test_first_difference_univariate(self):
        a = QSeries(5, (1, 2, 3, 0, 0, 0))
        b = QSeries(5, (1, 2, 4, 9, 0, 0))
        fd = first_difference(a, b)
        assert fd == FirstDiff(x=None, q=2, lhs="3", rhs="4")

    def test_first_difference_bivariate_scans_q_first(self):
        q1, q3, q5 = (QSeries(6, tuple(int(i == e) for i in range(7))) for e in (1, 3, 5))
        a = XQSeries(4, 6, {0: q3, 3: q1})
        b = XQSeries(4, 6, {0: q3})
        fd = first_difference(a, b)
        assert (fd.x, fd.q, fd.lhs, fd.rhs) == (3, 1, "1", "0")
        # a difference at lower q wins even on a higher x-degree
        c = XQSeries(4, 6, {0: q3, 1: q5})
        fd2 = first_difference(a, c)
        assert (fd2.x, fd2.q) == (3, 1)

    def test_first_difference_finds_late_differences(self):
        """Sides that differ only late get the same report as a full scan."""
        a = idn.slater19_sum(40)
        last = a.coeffs[-1]
        late = QSeries(40, a.coeffs[:-1] + (last + 1,))
        assert first_difference(a, late) == FirstDiff(None, 40, str(last), str(last + 1))
        m = idn.master_rhs(6, 40)  # x^6 is its top x-degree, from q^36 on
        row = m.slice(6).coeffs
        bumped = XQSeries(6, 40, {**m.terms, 6: QSeries(40, row[:38] + (row[38] + 1,) + row[39:])})
        assert first_difference(m, bumped) == FirstDiff(6, 38, str(row[38]), str(row[38] + 1))
        dropped = XQSeries(6, 40, {d: s for d, s in m.terms.items() if d != 6})
        assert first_difference(m, dropped) == FirstDiff(6, 36, "1", "0")
        with pytest.raises(ValueError):
            first_difference(m, idn.master_rhs(5, 40))
        with pytest.raises(ValueError):
            first_difference(a, idn.slater19_sum(39))

    def test_first_difference_type_mismatch(self):
        with pytest.raises(TypeError):
            first_difference(QSeries.zero(3), XQSeries(3, 3, {}))
        with pytest.raises(ValueError):
            first_difference(QSeries.zero(3), QSeries.zero(4))

    def test_swap_symmetry(self):
        a = idn.slater19_sum(15)
        b = QSeries(15, tuple(c + (i == 7) for i, c in enumerate(a.coeffs)))
        fd = first_difference(a, b)
        swapped = first_difference(b, a)
        assert (fd.x, fd.q) == (swapped.x, swapped.q)
        assert (fd.lhs, fd.rhs) == (swapped.rhs, swapped.lhs)

    def test_perturbed_check_fails_with_location(self):
        broken = IdentityCheck(
            "broken", False,
            lambda N: QSeries(N, tuple(c + (i == 9)
                                       for i, c in enumerate(idn.slater19_sum(N).coeffs))),
            lambda N: idn.rr_product((1, 4), 5, N),
            "fixture",
        )
        rep = run_check(broken, 20)
        assert not rep.passed
        assert rep.first_diff.q == 9
        assert int(rep.first_diff.lhs) == int(rep.first_diff.rhs) + 1

    def test_perturbed_bivariate_check(self):
        def bumped_lhs(Nx, Nq):
            f = idn.bmn_gf(2, Nx, Nq)
            row = tuple(c + (i == 9) for i, c in enumerate(f.slice(2).coeffs))
            return XQSeries(Nx, Nq, {**f.terms, 2: QSeries(Nq, row)})

        broken = IdentityCheck(
            "broken-xq", True,
            bumped_lhs,
            idn.master_rhs,
            "fixture",
        )
        rep = run_check(broken, 14)
        assert not rep.passed
        assert (rep.first_diff.x, rep.first_diff.q) == (2, 9)

    def test_report_json_schema(self):
        rep = run_check(REGISTRY["bmn-k2"], 10)
        d = rep.to_json_dict()
        assert set(d) == {"name", "q_trunc", "x_trunc", "passed", "first_diff",
                          "millis", "lhs_ms", "rhs_ms"}
        assert d["passed"] is True and d["first_diff"] is None
        assert d["x_trunc"] == 10
        for key in ("millis", "lhs_ms", "rhs_ms"):
            assert isinstance(d[key], int)

    def test_run_many_validates_and_orders(self):
        with pytest.raises(ValueError):
            run_many(["nope"], 5)
        assert run_many([], 5) == []
        reps = run_many(["slater-15", "slater-19"], 10)
        assert [r.name for r in reps] == ["slater-19", "slater-15"]

    def test_run_check_times_each_side(self):
        def slow(N):
            time.sleep(0.03)
            return idn.slater19_sum(N)

        rep = run_check(IdentityCheck("slow-lhs", False, slow, REGISTRY["slater-19"].rhs,
                                      "fixture"), 10)
        assert rep.passed and rep.lhs_ms >= 30 and rep.rhs_ms >= 0
        assert rep.millis >= rep.lhs_ms + rep.rhs_ms

    def test_run_check_times_a_raising_side_as_zero(self):
        def broken(N):
            raise ValueError("boom")

        rep = run_check(IdentityCheck("broken", False, idn.slater19_sum, broken, "fixture"), 10)
        assert not rep.passed and rep.error == ("ValueError", "boom")
        assert rep.rhs_ms == 0

    def test_run_check_x_order_override(self):
        rep = run_check(REGISTRY["master-identity"], 12, x_trunc=4)
        assert rep.passed and rep.x_trunc == 4


SPIED = ("staircase_gf", "bmn_gf", "slater19_sum", "rafted_table", "rr_product")
WALKERS = ("d_distinct_xq", "no_kseq_oracle", "rafted_oracle", "minimal_oracle")


def _spy(monkeypatch, calls: Counter, names=SPIED) -> None:
    """Count each call of the named builders, by (name, arguments)."""
    for name in names:
        def spy(*args, _name=name, _build=getattr(idn, name)):
            calls[_name, args] += 1
            return _build(*args)
        monkeypatch.setattr(idn, name, spy)


class TestSharedSides:
    @pytest.mark.parametrize("x_trunc", [None, 7])
    def test_run_many_builds_each_distinct_side_once(self, monkeypatch, x_trunc):
        """The registry names its builders, so a spy bound in their place runs."""
        calls = Counter()
        _spy(monkeypatch, calls)
        assert all(r.passed for r in run_many(list(REGISTRY), 20, x_trunc))
        xt = 20 if x_trunc is None else x_trunc
        assert set(calls) == {
            *[("staircase_gf", (d, xt, 20)) for d in range(4)],
            *[("bmn_gf", (k, xt, 20)) for k in (2, 3, 4)], ("bmn_gf", (2, 20, 20)),
            ("slater19_sum", (20,)), ("rafted_table", (20, 20)),
            ("rr_product", ((1, 4), 5, 20)), ("rr_product", ((2, 3), 5, 20)),
        }
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("x_trunc", [None, 7])
    def test_run_many_walks_each_automaton_once(self, monkeypatch, x_trunc):
        """One walk per distinct oracle build, whatever views read it: eight
        at the default x-order, where the x = 1 view of the gap-2 walk is
        built at the x-order that bmn-k2 and staircase-d0 read, and nine at
        x-order 7, where it is not."""
        calls, walked = Counter(), []
        _spy(monkeypatch, calls, WALKERS)
        walk = idn._walk
        monkeypatch.setattr(idn, "_walk", lambda *args: walked.append(args[0]) or walk(*args))
        assert all(r.passed for r in run_many(list(REGISTRY), 20, x_trunc))
        xt = 20 if x_trunc is None else x_trunc
        assert calls == Counter({
            ("rafted_oracle", (20, 20)): 1, ("minimal_oracle", (20, 20)): 1,
            ("no_kseq_oracle", (3, xt, 20)): 1, ("no_kseq_oracle", (4, xt, 20)): 1,
            **{("d_distinct_xq", (d, xt, 20)): 1 for d in range(2, 6)},
            ("d_distinct_xq", (2, 20, 20)): 1,  # the x = 1 view, at x-order 20
        })
        assert walked == [20] * (8 if x_trunc is None else 9)

    @pytest.mark.parametrize("x_trunc", [None, 1])
    def test_every_check_passes_from_order_0(self, x_trunc):
        """Every view, an x-slice past its oracle's x-order included, at the lowest orders."""
        for n in range(7):
            failed = [r.name for r in run_many(list(REGISTRY), n, x_trunc) if not r.passed]
            assert not failed, (n, failed)

    def test_minimal_gf_is_built_once_alone_and_once_per_table_row(self, monkeypatch):
        """minimal-gf-k{k} builds minimal_gf(k) as its side, and the rafted
        table builds it again inside rafted_gf(k) for each raft count that
        fits: 3k^2 <= 20 for k = 1, 2.  The table cannot read the minimal
        sides through a view, since row k is minimal_gf(k) / (q^2;q^2)_k."""
        calls = Counter()
        _spy(monkeypatch, calls, ("minimal_gf",))
        assert all(r.passed for r in run_many(list(REGISTRY), 20))
        assert calls == Counter({("minimal_gf", (1, 20)): 2, ("minimal_gf", (2, 20)): 2,
                                 ("minimal_gf", (3, 20)): 1})

    def test_each_check_alone_builds_its_own_sides(self, monkeypatch):
        calls = Counter()
        _spy(monkeypatch, calls)
        for check in REGISTRY.values():
            run_check(check, 12)
        assert calls["bmn_gf", (2, 12, 12)] == 7
        assert calls["slater19_sum", (12,)] == 3

    @pytest.mark.parametrize("x_trunc", [None, 7])
    def test_shared_run_renders_as_checks_run_alone(self, x_trunc):
        shared = run_many(list(REGISTRY), 20, x_trunc)
        alone = [run_check(check, 20, x_trunc) for check in REGISTRY.values()]
        for render in (cli._report_text, cli._report_csv):
            assert render(shared) == render(alone)
        assert not any(r.lhs_from or r.rhs_from for r in alone)

    def test_a_reused_side_names_the_check_that_built_it(self):
        reports = run_many(list(REGISTRY), 20)
        reused = {r.name: (r.lhs_from, r.rhs_from) for r in reports
                  if r.lhs_from or r.rhs_from}
        assert reused == {
            "slater-15-alt": (None, "slater-15"),
            **{f"minimal-gf-k{k}": (None, "minimal-gf-k1") for k in (2, 3)},
            **{f"rafted-gf-k{k}": ("rafted-gf-k1", "rafted-gf-k1") for k in (2, 3)},
            "inclusion-exclusion": ("rafted-gf-k1", "rafted-gf-k1"),
            "inclusion-exclusion-2-distinct": ("rafted-gf-k1", None),
            "inclusion-exclusion-rr1": ("rafted-gf-k1", "slater-19"),
            "master-at-x-q": ("master-identity", "slater-15-alt"),
            "master-at-x-1": ("master-identity", "slater-19"),
            "bmn-k2": ("master-identity", "inclusion-exclusion-2-distinct"),
            "bmn-c2-slater-19": ("master-identity", "slater-19"),
            "bmn-c2-slater-15": ("master-identity", "slater-15"),
            "staircase-d0": (None, "inclusion-exclusion-2-distinct"),
            "staircase-d0-master": ("staircase-d0", "master-identity"),
        }
        for r in reports:
            d = r.to_json_dict()
            assert ("lhs_from" in d, "rhs_from" in d) == (r.lhs_from is not None,
                                                          r.rhs_from is not None)

    def test_a_raising_shared_side_fails_every_check_that_uses_it(self, monkeypatch):
        calls = []

        def broken(*truncs):
            calls.append(truncs)
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(idn, "rafted_table", broken)
        reports = {r.name: r for r in run_many(list(REGISTRY), 12)}
        users = [*[f"rafted-gf-k{k}" for k in (1, 2, 3)], "inclusion-exclusion",
                 "inclusion-exclusion-2-distinct", "inclusion-exclusion-rr1"]
        assert {n for n, r in reports.items() if not r.passed} == set(users)
        for name in users:
            r = reports[name]
            assert r.error == ("ZeroDivisionError", "boom") and r.first_diff is None
            assert (r.lhs_ms, r.rhs_ms, r.lhs_from, r.rhs_from) == (0, 0, None, None)
        assert calls == [(12, 12)] * 6  # nothing is kept from a raise
        assert reports["slater-19"].passed


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 24))
def test_minimal_formula_coefficient_matches_enumeration(k, w):
    count = sum(1 for rp in enumerate_minimal(k, w) if rp.weight == w)
    assert idn.minimal_gf(k, w).coefficient(w) == count
