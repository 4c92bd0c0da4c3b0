"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each function is a single criterion; its verbose result line is the pass/fail
record for that criterion.  Orders are fixed here on purpose; these are the
contract, not tunables.
"""

import random
import subprocess
import sys
import time

import pytest

from qrafts import identities as idn
from qrafts.identities import REGISTRY, run_check
from qrafts.partitions import EvenPartition
from qrafts.rafts import (
    RaftedPartition,
    compose_with_trace,
    decompose_with_trace,
    enumerate_minimal,
)

from brute import all_distinct, enumerate_designations
from raft_reference import runs_of


def _rafted_upto(max_weight):
    for p in all_distinct(max_weight):
        for rafts in enumerate_designations(p):
            if rafts:
                yield RaftedPartition(p, rafts)


def test_criterion_01_gap2_sum_to_order_100_under_10s():
    t0 = time.perf_counter()
    rep = run_check(REGISTRY["slater-19"], 100)
    elapsed = time.perf_counter() - t0
    assert rep.passed, rep.first_diff
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    assert idn.slater19_sum(100).coefficient(10) == 6
    assert idn.rr_product((1, 4), 5, 100).coefficient(10) == 6
    assert idn.d_distinct_xq(2, 10, 10).substitute_x_power(0).coefficient(10) == 6


def test_criterion_02_companion_sums_to_order_100():
    assert run_check(REGISTRY["slater-15"], 100).passed
    assert run_check(REGISTRY["slater-15-alt"], 100).passed
    # both sums share one product side (the alt sum is x=q in the master)
    assert idn.slater15_alt_sum(100) == idn.rr_product((2, 3), 5, 100)
    assert idn.slater15_sum(100) == idn.slater15_alt_sum(100)


def test_criterion_03_raft_counting_formulas_to_weight_40():
    for k in (1, 2, 3):
        assert run_check(REGISTRY[f"minimal-gf-k{k}"], 40).passed
        assert run_check(REGISTRY[f"rafted-gf-k{k}"], 40).passed
        lead = 3 * k * k
        for build in (idn.minimal_gf, idn.rafted_gf):
            s = build(k, 40)
            assert all(c == 0 for c in s.coeffs[:lead])
            assert s.coefficient(lead) == 1


def test_criterion_04_signed_designations_collapse():
    for p in all_distinct(30):
        signed = sum((-1) ** len(d) for d in enumerate_designations(p))
        has_run = any(n >= 2 for _, n in runs_of(p.parts))
        assert signed == (0 if has_run else 1), p.parts
    rr1 = idn.rr_product((1, 4), 5, 60)
    assert idn.no_raft_gf(60) == rr1
    assert REGISTRY["inclusion-exclusion"].rhs(60) == rr1


def test_criterion_05_bijection_roundtrips():
    # exhaustive, both directions, weight <= 30
    count = 0
    for rp in _rafted_upto(30):
        beta, eta, moves = decompose_with_trace(rp)
        assert beta.is_minimal()
        for before, _, after in moves:
            assert after.weight == before.weight - 2
        rebuilt, fwd = compose_with_trace(beta, eta)
        assert rebuilt == rp
        for before, _, after in fwd:
            assert after.weight == before.weight + 2
        count += 1
    assert count == 1500  # designated configurations with weight <= 30

    def even_tuples(slots, cap, left):
        if slots == 0:
            yield ()
            return
        for e in range(0, min(cap, left) + 1, 2):
            for rest in even_tuples(slots - 1, e, left - e):
                yield (e, *rest)

    for k in (1, 2, 3):
        for beta in enumerate_minimal(k, 30):
            room = 30 - beta.weight
            for parts in even_tuples(k, room - room % 2, room):
                eta = EvenPartition(parts)
                rebuilt, fwd = compose_with_trace(beta, eta)
                for before, _, after in fwd:
                    assert after.weight == before.weight + 2
                assert decompose_with_trace(rebuilt)[:2] == (beta, eta)

    # randomized, weight <= 60
    rng = random.Random(2026)
    pools = {k: list(enumerate_minimal(k, 58)) for k in (1, 2, 3, 4)}
    for _ in range(10_000):
        k = rng.choice((1, 2, 3, 4))
        beta = rng.choice(pools[k])
        remaining = (60 - beta.weight) // 2
        halves = []
        cap = remaining
        for _ in range(k):
            e = rng.randint(0, min(cap, remaining))
            halves.append(e)
            cap = e
            remaining -= e
        eta = EvenPartition(tuple(sorted((2 * e for e in halves), reverse=True)))
        rebuilt, fwd = compose_with_trace(beta, eta)
        assert rebuilt.weight == beta.weight + eta.weight <= 60
        for before, _, after in fwd:
            assert after.weight == before.weight + 2
        back, eta2, moves = decompose_with_trace(rebuilt)
        for before, _, after in moves:
            assert after.weight == before.weight - 2
        assert (back, eta2) == (beta, eta)


def test_criterion_06_bivariate_master_to_order_60():
    assert run_check(REGISTRY["master-identity"], 60).passed
    lhs = idn.bmn_gf(2, 60, 60)
    assert lhs.substitute_x_power(1) == idn.slater15_alt_sum(60)
    assert lhs.substitute_x_power(0) == idn.slater19_sum(60)


def test_criterion_07_no_k_sequence_double_sums_to_order_40():
    for k in (2, 3, 4):
        assert run_check(REGISTRY[f"bmn-k{k}"], 40).passed
    assert idn.bmn_gf(2, 40, 40).substitute_x_power(0) == idn.slater19_sum(40)


def test_criterion_08_staircase_triple_sums_to_order_50():
    for d in (0, 1, 2, 3):
        assert run_check(REGISTRY[f"staircase-d{d}"], 50).passed
    at_x1 = idn.staircase_gf(1, 10, 10).substitute_x_power(0)
    assert at_x1.coefficient(10) == 4


def test_criterion_09_hypergeometric_cases_to_order_60():
    triples = [name for name in REGISTRY if name.startswith("q-gauss-")]
    assert len(triples) >= 5
    for name in triples:
        assert run_check(REGISTRY[name], 60).passed, name
    for k in (1, 2, 3):
        assert run_check(REGISTRY[f"proof-gauss-step-k{k}"], 60).passed


def test_criterion_10_full_deep_profile_under_5_minutes():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qrafts.cli", "verify", "--all",
         "--profile", "deep"],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    assert proc.stdout.strip().splitlines()[-1].startswith("passed ")
