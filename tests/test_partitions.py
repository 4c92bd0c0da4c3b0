"""Partition model, enumeration generators, and the bracketed text format."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrafts.partitions import (
    EvenPartition,
    Partition,
    enumerate_designations,
    enumerate_distinct,
    iter_distinct_exact,
    iter_distinct_parts,
    iter_gap_exact,
    iter_gap_parts,
    parse_rafted_text,
    render_rafted_text,
    runs_of,
)

parts_strategy = st.builds(
    lambda s: tuple(sorted(s)),
    st.sets(st.integers(1, 18), max_size=8),
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((2, 2))
        with pytest.raises(ValueError):
            Partition((3, 2))
        with pytest.raises(ValueError):
            Partition((0, 1))
        assert Partition(()).weight == 0

    def test_of_sorts(self):
        p = Partition.of(5, 1, 3)
        assert p.parts == (1, 3, 5)
        assert p.weight == 9
        assert p.length == 3

    def test_runs_example(self):
        p = Partition.of(1, 2, 3, 5, 7, 8)
        assert [(r.start, r.length, r.end) for r in p.runs()] \
            == [(1, 3, 3), (5, 1, 5), (7, 2, 8)]
        assert p.eligible_rafts() == (2, 7)

    def test_gap_predicates(self):
        p = Partition.of(1, 3, 6)
        assert p.is_d_distinct(2)
        assert not p.is_d_distinct(3)
        assert not p.has_k_sequence(2)
        assert Partition.of(4, 5, 6).has_k_sequence(3)
        assert not Partition.of(4, 5, 6).has_k_sequence(4)

    @given(parts_strategy)
    def test_runs_cover_parts_exactly(self, parts):
        p = Partition(parts)
        covered = []
        for r in p.runs():
            assert r.length >= 1
            covered.extend(range(r.start, r.end + 1))
        assert tuple(covered) == parts
        # consecutive runs are separated by a genuine gap
        for a, b in itertools.pairwise(p.runs()):
            assert b.start > a.end + 1

    @given(parts_strategy)
    def test_eligible_rafts_shape(self, parts):
        p = Partition(parts)
        s = set(parts)
        for k in p.eligible_rafts():
            assert k in s and k + 1 in s and k + 2 not in s

    @given(parts_strategy)
    def test_k_sequence_matches_longest_run(self, parts):
        p = Partition(parts)
        longest = max((r.length for r in p.runs()), default=0)
        for k in range(1, 6):
            assert p.has_k_sequence(k) == (longest >= k)


class TestEvenPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvenPartition((3,))
        with pytest.raises(ValueError):
            EvenPartition((2, 4))
        with pytest.raises(ValueError):
            EvenPartition((-2,))
        eta = EvenPartition((4, 2, 2, 0))
        assert eta.weight == 8
        assert len(eta) == 4


class TestGenerators:
    def test_distinct_counts(self):
        counts = [0] * 11
        for parts in iter_distinct_parts(10):
            counts[sum(parts)] += 1
        assert counts == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]

    def test_exact_weight_matches_prefix_generator(self):
        for w in range(15):
            a = sorted(iter_distinct_exact(w))
            b = sorted(p for p in iter_distinct_parts(14) if sum(p) == w)
            assert a == b

    def test_exact_weight_is_lex_sorted(self):
        for w in (9, 12):
            got = list(iter_gap_exact(w, 1))
            assert got == sorted(got)

    def test_gap_generator_matches_filter(self):
        for gap in (2, 3):
            a = sorted(iter_gap_parts(16, gap))
            b = sorted(p for p in iter_distinct_parts(16)
                       if Partition(p).is_d_distinct(gap))
            assert a == b

    def test_known_gap_counts(self):
        assert sum(1 for _ in iter_gap_exact(10, 2)) == 6
        assert sum(1 for _ in iter_gap_exact(10, 3)) == 4

    def test_min_part_bound(self):
        for parts in iter_distinct_parts(12, min_part=4):
            assert not parts or parts[0] >= 4

    @pytest.mark.parametrize("gen", [iter_gap_parts, iter_gap_exact])
    @pytest.mark.parametrize("gap, min_part", [(0, 1), (-1, 1), (1, 0), (2, -3)])
    def test_gap_and_min_part_below_one_rejected(self, gen, gap, min_part):
        # gap 0 repeats a part, min_part 0 yields a zero part, gap -1 never ends;
        # the check fires at the first next(), even when the weight is negative
        for weight in (2, -1):
            it = gen(weight, gap, min_part)
            with pytest.raises(ValueError):
                next(it)

    def test_distinct_wrappers_reject_min_part_below_one(self):
        with pytest.raises(ValueError):
            next(iter_distinct_parts(2, min_part=0))
        with pytest.raises(ValueError):
            next(iter_distinct_exact(2, min_part=0))

    def test_enumerate_distinct_ordering(self):
        seen = list(enumerate_distinct(8))
        keys = [(p.weight, p.parts) for p in seen]
        assert keys == sorted(keys)
        assert len(seen) == len(set(seen))

    def test_designations_binary_order(self):
        p = Partition.of(1, 2, 4, 5, 8, 9)
        assert p.eligible_rafts() == (1, 4, 8)
        got = list(enumerate_designations(p))
        assert got[0] == ()
        assert got[1] == (1,)
        assert got[2] == (4,)
        assert got[3] == (1, 4)
        assert len(got) == 8
        assert len(set(got)) == 8

    def test_designations_none_eligible(self):
        assert list(enumerate_designations(Partition.of(1, 3, 5))) == [()]


class TestTextFormat:
    def test_render_examples(self):
        assert render_rafted_text((), ()) == "()"
        assert render_rafted_text((1, 2, 3, 5), (2,)) == "1,[2,3],5"
        assert render_rafted_text((2, 3, 4), (3,)) == "2,[3,4]"

    def test_parse_examples(self):
        assert parse_rafted_text("()") == ((), ())
        assert parse_rafted_text("1,[2,3],5") == ((1, 2, 3, 5), (2,))
        assert parse_rafted_text(" 1, [2,3] ,5 ") == ((1, 2, 3, 5), (2,))

    @pytest.mark.parametrize("bad", [
        "", "x", "1,,2", "1,[2],3", "[2,4]", "1,[2,3", "2,3]",
        "[1,2,3]", "()(", "0,1", "-1,2", "1,[a,b]",
        "1 2", "1[2,3]", "[1,2][4,5]", "1,2,", "[1,2],", ",1", "1,()",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError) as e:
            parse_rafted_text(bad)
        assert "invalid literal" not in str(e.value)  # a message of our own, not int()'s

    @given(parts_strategy, st.data())
    def test_roundtrip(self, parts, data):
        eligible = Partition(parts).eligible_rafts()
        chosen = tuple(sorted(data.draw(st.sets(st.sampled_from(eligible))))) \
            if eligible else ()
        text = render_rafted_text(parts, chosen)
        assert parse_rafted_text(text) == (parts, chosen)


@settings(max_examples=60)
@given(parts_strategy)
def test_runs_of_matches_method(parts):
    assert runs_of(parts) == [(r.start, r.length) for r in Partition(parts).runs()]


@settings(max_examples=60)
@given(parts_strategy)
def test_eligible_rafts_are_run_tops(parts):
    runs = Partition(parts).runs()
    assert Partition(parts).eligible_rafts() == tuple(r.end - 1 for r in runs if r.length >= 2)
