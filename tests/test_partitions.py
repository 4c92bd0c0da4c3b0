"""Partition model, enumeration generators, and the bracketed text format."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrafts.partitions import (
    EvenPartition,
    Partition,
    iter_gap_exact,
    parse_rafted_text,
    render_rafted_text,
)

from brute import all_distinct, enumerate_designations
from raft_reference import eligible_rafts, reference_render, runs_of

parts_strategy = st.builds(
    lambda s: tuple(sorted(s)),
    st.sets(st.integers(1, 18), max_size=8),
)


def _at(offset: int, text: str, what: str = "a part or a raft [k,k+1]") -> str:
    return f"expected {what} at offset {offset} of {text!r}"


# every rejected text and its exact message: the first syntax error by offset,
# unless a raft item before it is not a consecutive pair; then positivity, then
# repeats
PARSE_ERRORS = {
    "": "empty input; the empty partition is written '()'",
    "x": _at(0, "x"),
    "1,,2": _at(2, "1,,2"),
    "1,[2],3": _at(2, "1,[2],3"),
    "[2,4]": "a raft must be a consecutive pair, got [2,4]",
    "1,[2,3": _at(2, "1,[2,3"),
    "2,3]": _at(3, "2,3]", "','"),
    "[1,2,3]": _at(0, "[1,2,3]"),
    "()(": _at(0, "()("),
    "0,1": "parts must be positive, got 0",
    "-1,2": _at(0, "-1,2"),
    "1,[a,b]": _at(2, "1,[a,b]"),
    "1 2": _at(2, "1 2", "','"),
    "1[2,3]": _at(1, "1[2,3]", "','"),
    "[1,2][4,5]": _at(5, "[1,2][4,5]", "','"),
    "1,2,": _at(4, "1,2,"),
    "[1,2],": _at(6, "[1,2],"),
    ",1": _at(0, ",1"),
    "1,()": _at(2, "1,()"),
    "[ 2,3 ] x": _at(8, "[ 2,3 ] x", "','"),
    "1,1": "repeated part in '1,1'",
    "   ": "empty input; the empty partition is written '()'",
    "12 3": _at(3, "12 3", "','"),
    "[1,2 ]]": _at(6, "[1,2 ]]", "','"),
    "1,[2,3],5 ,": _at(11, "1,[2,3],5 ,"),
    "[2,3],[2,3]": "repeated part in '[2,3],[2,3]'",
    "[2,4],x": "a raft must be a consecutive pair, got [2,4]",
    "x,[2,4]": _at(0, "x,[2,4]"),
    "[2,4],0": "a raft must be a consecutive pair, got [2,4]",
    "0,[2,4]": "a raft must be a consecutive pair, got [2,4]",
    "1,1,[2,4]": "a raft must be a consecutive pair, got [2,4]",
}


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((2, 2))
        with pytest.raises(ValueError):
            Partition((3, 2))
        with pytest.raises(ValueError):
            Partition((0, 1))
        assert Partition(()).weight == 0

    @pytest.mark.parametrize("parts", [(1.5, 2), (True, 2), (1, 2.0), ("1",)])
    def test_parts_must_be_ints(self, parts):
        """A float or a bool is no part, even where it compares as one."""
        with pytest.raises(ValueError, match=re.escape(f"parts must be integers, got {parts}")):
            Partition(parts)

    def test_of_sorts(self):
        p = Partition.of(5, 1, 3)
        assert p.parts == (1, 3, 5)
        assert p.weight == 9
        assert len(p.parts) == 3

    def test_runs_example(self):
        p = Partition.of(1, 2, 3, 5, 7, 8)
        assert runs_of(p.parts) == [(1, 3), (5, 1), (7, 2)]
        assert eligible_rafts(p.parts) == (2, 7)

    @given(parts_strategy)
    def test_runs_cover_parts_exactly(self, parts):
        covered = []
        for start, length in runs_of(parts):
            assert length >= 1
            covered.extend(range(start, start + length))
        assert tuple(covered) == parts
        # consecutive runs are separated by a genuine gap
        for (a, n), (b, _) in itertools.pairwise(runs_of(parts)):
            assert b > a + n

    @given(parts_strategy)
    def test_eligible_rafts_shape(self, parts):
        p = Partition(parts)
        s = set(parts)
        for k in eligible_rafts(p.parts):
            assert k in s and k + 1 in s and k + 2 not in s


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

    @pytest.mark.parametrize("parts", [(2.0,), (4, 2.0), (False,), (4, True)])
    def test_parts_must_be_ints(self, parts):
        """A float or a bool is no part, even where it is even."""
        with pytest.raises(ValueError, match=re.escape(f"parts must be integers, got {parts}")):
            EvenPartition(parts)


def _brute_gap_exact(weight, gap, min_part):
    """Sorted n-subsets of min_part..weight with sum weight and gaps >= gap."""
    found = []
    n = 0
    while n * (n + 1) // 2 <= weight:  # n distinct positive parts sum to at least this
        found += [c for c in itertools.combinations(range(min_part, weight + 1), n)
                  if sum(c) == weight and all(b - a >= gap for a, b in zip(c, c[1:]))]
        n += 1
    return sorted(found)


class TestGenerators:
    def test_distinct_counts(self):
        counts = [sum(1 for _ in iter_gap_exact(w, 1)) for w in range(11)]
        assert counts == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]

    def test_exact_weight_matches_prefix_generator(self):
        # every distinct partition of weight <= 14 is a subset of 1..14
        prefix = [c for n in range(6) for c in itertools.combinations(range(1, 15), n)]
        for w in range(15):
            assert list(iter_gap_exact(w, 1)) == sorted(c for c in prefix if sum(c) == w)

    def test_exact_weight_is_lex_sorted(self):
        for w in (9, 12):
            got = list(iter_gap_exact(w, 1))
            assert got == sorted(got)

    def test_gap_generator_matches_filter(self):
        for w in range(25):
            for gap in range(1, 5):
                for min_part in range(1, 5):
                    assert list(iter_gap_exact(w, gap, min_part)) \
                        == _brute_gap_exact(w, gap, min_part), (w, gap, min_part)

    def test_known_gap_counts(self):
        assert sum(1 for _ in iter_gap_exact(10, 2)) == 6
        assert sum(1 for _ in iter_gap_exact(10, 3)) == 4

    def test_min_part_bound(self):
        for w in range(13):
            for parts in iter_gap_exact(w, 1, min_part=4):
                assert not parts or parts[0] >= 4

    @pytest.mark.parametrize("gen", [iter_gap_exact])
    @pytest.mark.parametrize("gap, min_part", [(0, 1), (-1, 1), (1, 0), (2, -3)])
    def test_gap_and_min_part_below_one_rejected(self, gen, gap, min_part):
        # gap 0 repeats a part, min_part 0 yields a zero part, gap -1 never ends;
        # the check fires at the first next(), even when the weight is negative
        for weight in (2, -1):
            it = gen(weight, gap, min_part)
            with pytest.raises(ValueError):
                next(it)

    def test_distinct_wrappers_reject_min_part_below_one(self):
        for min_part in (0, -1):
            with pytest.raises(ValueError):
                next(iter_gap_exact(2, 1, min_part=min_part))

    def test_designations_binary_order(self):
        p = Partition.of(1, 2, 4, 5, 8, 9)
        assert eligible_rafts(p.parts) == (1, 4, 8)
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

    def test_render_matches_reference(self):
        compared = 0
        for p in all_distinct(24):
            parts = p.parts
            top = max(parts, default=0)
            lists = list(enumerate_designations(p))
            # non-pairs and absent values are ignored, any consecutive pair
            # fuses, and of two overlapping pairs the lower one does
            lists += [(k,) for k in range(top + 2)]
            lists += [(k, k + 1) for k in parts]
            lists += [d[::-1] + d for d in lists if len(d) > 1]
            for rafts in lists:
                assert render_rafted_text(parts, rafts) == reference_render(parts, rafts), \
                    (parts, rafts)
                compared += 1
        assert compared > 16000

    def test_parse_examples(self):
        assert parse_rafted_text("()") == ((), ())
        assert parse_rafted_text(" () ") == ((), ())
        assert parse_rafted_text("1,[2,3],5") == ((1, 2, 3, 5), (2,))
        assert parse_rafted_text(" 1, [2,3] ,5 ") == ((1, 2, 3, 5), (2,))
        assert parse_rafted_text(" 1 , [ 2 , 3 ] , 5 ") == ((1, 2, 3, 5), (2,))
        assert parse_rafted_text("1,\n[2,3]") == ((1, 2, 3), (2,))
        assert parse_rafted_text("1,[03,4]") == ((1, 3, 4), (3,))
        # parts come back sorted; the order rule is Partition's, not the parser's
        assert parse_rafted_text("3,1") == ((1, 3), ())
        # a part of any size is read; only a bitset would need one bit per unit
        assert parse_rafted_text("1,[99999999999999999999,100000000000000000000]") == \
            ((1, 99999999999999999999, 100000000000000000000), (99999999999999999999,))

    @pytest.mark.parametrize("bad", list(PARSE_ERRORS))
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError) as e:
            parse_rafted_text(bad)
        assert str(e.value) == PARSE_ERRORS[bad]

    @given(parts_strategy, st.data())
    def test_roundtrip(self, parts, data):
        eligible = eligible_rafts(parts)
        chosen = tuple(sorted(data.draw(st.sets(st.sampled_from(eligible))))) \
            if eligible else ()
        text = render_rafted_text(parts, chosen)
        assert parse_rafted_text(text) == (parts, chosen)


@given(parts_strategy)
def test_runs_of_matches_method(parts):
    # a run is a maximal block on which part - index is constant
    blocks = [[p for _, p in g] for _, g in
              itertools.groupby(enumerate(parts), key=lambda ip: ip[1] - ip[0])]
    assert runs_of(parts) == [(b[0], len(b)) for b in blocks]


@settings(max_examples=60)
@given(parts_strategy)
def test_eligible_rafts_are_run_tops(parts):
    assert eligible_rafts(parts) \
        == tuple(s + n - 2 for s, n in runs_of(parts) if n >= 2)
