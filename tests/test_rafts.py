"""Moves, minimality, the (beta, eta) bijection, and constructive enumeration."""

import collections
import copy
import itertools
import pickle
import random
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrafts.partitions import EvenPartition, Partition
from qrafts.rafts import (
    MinimalProfile,
    MoveError,
    RaftedPartition,
    RaftError,
    compose,
    compose_with_trace,
    decompose,
    decompose_with_trace,
    enumerate_minimal,
    enumerate_rafted,
    minimal_profile,
    _backward_step,
    _checked_state,
    _forward_step,
    _state,
)

from brute import all_distinct, enumerate_designations, is_minimal_structural
from raft_reference import ReferenceRafted, reference_rafted


def all_rafted(max_weight):
    for p in all_distinct(max_weight):
        for rafts in enumerate_designations(p):
            if rafts:
                yield RaftedPartition(p, rafts)


class TestValidation:
    def test_ok(self):
        rp = RaftedPartition.of((1, 2, 3, 5), (2,))
        assert rp.weight == 11
        assert str(rp) == "1,[2,3],5"

    def test_raft_pair_broken(self):
        with pytest.raises(RaftError) as e:
            RaftedPartition.of((1, 3, 5), (3,))
        assert e.value.reason == "raft-pair-broken"
        with pytest.raises(RaftError) as e:
            RaftedPartition.of((1, 2), (7,))
        assert e.value.reason == "raft-pair-broken"

    def test_raft_not_terminal(self):
        with pytest.raises(RaftError) as e:
            RaftedPartition.of((2, 3, 4), (2,))
        assert e.value.reason == "raft-not-terminal"

    def test_colliding_rafts(self):
        with pytest.raises(RaftError) as e:
            RaftedPartition.of((1, 2, 3, 4), (1, 3))
        assert e.value.reason == "colliding-rafts"
        # shared run wins over terminality in the error ordering
        with pytest.raises(RaftError) as e:
            RaftedPartition.of((1, 2, 3, 4, 5), (2, 4))
        assert e.value.reason == "colliding-rafts"

    def test_parse_roundtrip(self):
        rp = RaftedPartition.parse("1,[2,3],5,7,[8,9]")
        assert rp.partition.parts == (1, 2, 3, 5, 7, 8, 9)
        assert rp.rafts == (2, 8)
        assert RaftedPartition.parse(str(rp)) == rp

    def test_frozen_value(self):
        rp = RaftedPartition.parse("1,[2,3],5")
        for field, value in (("partition", Partition((1,))), ("rafts", ()), ("weight", 0)):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
                setattr(rp, field, value)
        assert (rp.partition.parts, rp.rafts, rp.weight) == ((1, 2, 3, 5), (2,), 11)
        for copied in (copy.copy(rp), copy.deepcopy(rp), pickle.loads(pickle.dumps(rp))):
            assert copied == rp and hash(copied) == hash(rp)
        match rp:
            case RaftedPartition(Partition(parts), rafts):
                assert (parts, rafts) == ((1, 2, 3, 5), (2,))
            case _:
                pytest.fail("no positional match")

    def test_bitset_part_rule(self):
        """The part rule on a bitset refuses a part 0, as Partition does."""
        with pytest.raises(ValueError, match=re.escape(
                "parts must be strictly increasing positive integers, got (0, 1, 2)")):
            _state(0b111, 0b10, 3)

    def test_parse_semantic_failure(self):
        with pytest.raises(RaftError) as e:
            RaftedPartition.parse("1,[2,3],[4,5]")
        assert e.value.reason == "colliding-rafts"
        assert str(e.value) == "colliding-rafts: rafts [2,3] and [4,5] share a run in 1,2,3,4,5"


class TestMoves:
    def test_forward_simple(self):
        rp = RaftedPartition.parse("1,[2,3],5")
        assert rp.can_forward(2)
        assert str(rp.forward(2)) == "1,3,[4,5]"

    def test_forward_mutual_inverse_example(self):
        a = RaftedPartition.parse("[1,2],4")
        b = a.forward(1)
        assert str(b) == "2,[3,4]"
        assert b.backward(3) == a

    def test_forward_obstacle_absorbs_run(self):
        # moving into 4,5,6 lands the raft at the new run top
        rp = RaftedPartition.parse("[1,2],4,5,6")
        out = rp.forward(1)
        assert str(out) == "2,3,4,[5,6]"

    def test_forward_blocked_by_designated_obstacle(self):
        rp = RaftedPartition.parse("[1,2],[4,5]")
        assert not rp.can_forward(1)
        with pytest.raises(MoveError):
            rp.forward(1)

    def test_forward_needs_designated_raft(self):
        rp = RaftedPartition.parse("1,[2,3],5")
        with pytest.raises(MoveError):
            rp.forward(5)

    def test_backward_blocked_at_floor(self):
        rp = RaftedPartition.parse("[1,2],4")
        assert not rp.can_backward(1)
        with pytest.raises(MoveError):
            rp.backward(1)

    def test_backward_blocked_by_lower_raft(self):
        # the run below ends in a designated raft three slots down
        rp = RaftedPartition.parse("[1,2],[4,5]")
        assert not rp.can_backward(4)
        with pytest.raises(MoveError):
            rp.backward(4)

    def test_backward_run_start(self):
        # the raft drops to just below the run start; 3 stays, 5 detaches
        rp = RaftedPartition.parse("2,3,[4,5]")
        out = rp.backward(4)
        assert str(out) == "[1,2],4,5"
        assert out.forward(1) == rp

    @pytest.mark.parametrize("text, raft, want, beta, eta", [
        # the run starts at 2: no raft a-3 = -1 is read
        ("[2,3]", 2, "[1,2]", "[1,2]", (2,)),
        ("1,[3,4]", 3, "1,[2,3]", "1,[2,3]", (2,)),
        ("2,[4,5]", 4, "2,[3,4]", "[1,2],4", (4,)),
        ("[1,2]", 1, "move-not-applicable: raft [1,2] sits on a run starting at 1",
         "[1,2]", (0,)),
        ("[1,2],[4,5]", 4, "move-not-applicable: raft [4,5] is blocked by designated "
         "raft [1,2] just below its run", "[1,2],[4,5]", (0, 0)),
    ])
    def test_backward_near_the_floor(self, text, raft, want, beta, eta):
        """Backward steps whose run starts at 1 to 4, through the method,
        can_backward, is_minimal and the decomposition."""
        rp = RaftedPartition.parse(text)
        moves = not want.startswith("move-not-applicable")
        assert rp.can_backward(raft) == moves
        assert rp.is_minimal() == (not moves)
        if moves:
            assert str(rp.backward(raft)) == want
        else:
            with pytest.raises(MoveError) as exc:
                rp.backward(raft)
            assert str(exc.value) == want
        got_beta, got_eta, trace = decompose_with_trace(rp)
        assert (str(got_beta), got_eta.parts) == (beta, eta)
        assert [str(after) for _, _, after in trace[:1]] == [want] * moves

    @pytest.mark.parametrize("name, k", [("forward", -1), ("forward", 0), ("backward", -1),
                                         ("backward", 0)])
    def test_no_raft_below_one(self, name, k):
        """A count below 1 names no raft: the move raises the not-designated
        message and the can_* methods answer False, with no negative shift."""
        rp = RaftedPartition.parse("1,[2,3],5")
        assert not rp.can_forward(k) and not rp.can_backward(k)
        with pytest.raises(MoveError) as exc:
            getattr(rp, name)(k)
        assert str(exc.value) == f"move-not-applicable: {k} is not a designated raft of 1,[2,3],5"

    @pytest.mark.parametrize("k", [2.0, 2.5, "2", None, (2,)],
                             ids=["float", "fraction", "str", "None", "tuple"])
    def test_non_int_k_is_no_raft(self, k):
        """A non-int k names no raft, even one equal to a designated raft:
        the moves raise MoveError and the can_* methods answer False."""
        rp = RaftedPartition.parse("1,[2,3],5")
        for move in (rp.forward, rp.backward):
            with pytest.raises(MoveError, match="is not a designated raft of 1,\\[2,3\\],5"):
                move(k)
        assert not rp.can_forward(k) and not rp.can_backward(k)

    def test_lookups_build_no_raft_tuple(self, monkeypatch):
        """On states that moves built, forward, backward and both can_*
        methods test the raft's bit: they never read the rafts through
        ``_ones``."""
        import qrafts.rafts

        moved = [(out, _bit_parts(out._rmask)) for rp in all_rafted(20) for k in rp.rafts
                 for can, move in ((rp.can_forward, rp.forward), (rp.can_backward, rp.backward))
                 if can(k) for out in [move(k)]]
        calls = []
        ones = qrafts.rafts._ones
        monkeypatch.setattr(qrafts.rafts, "_ones", lambda bits: calls.append(bits) or ones(bits))
        steps = 0
        for state, rafts in moved:
            for k in rafts:
                for can, move in ((state.can_forward, state.forward),
                                  (state.can_backward, state.backward)):
                    if can(k):
                        move(k)
                        steps += 1
        assert calls == [] and steps > 500, steps
        moved[0][0].rafts  # a read of the rafts goes through the spy
        assert len(calls) == 1

    def test_weight_delta(self):
        rp = RaftedPartition.parse("1,[2,3],5")
        assert rp.forward(2).weight == rp.weight + 2
        rp2 = RaftedPartition.parse("2,[3,4]")
        assert rp2.backward(3).weight == rp2.weight - 2

    def test_exhaustive_mutual_inverse(self):
        checked = 0
        for rp in all_rafted(20):
            for k in rp.rafts:
                if rp.can_forward(k):
                    out = rp.forward(k)
                    assert out.weight == rp.weight + 2
                    (moved,) = [r for r in out.rafts if r not in rp.rafts]
                    assert out.backward(moved) == rp
                    checked += 1
                if rp.can_backward(k):
                    out = rp.backward(k)
                    assert out.weight == rp.weight - 2
                    (moved,) = [r for r in out.rafts if r not in rp.rafts]
                    assert out.forward(moved) == rp
                    checked += 1
        assert checked > 300


def _outcome(make):
    """What building or moving gives, as plain data; refusals by their message."""
    try:
        rp = make()
    except (RaftError, MoveError) as exc:
        return type(exc).__name__, getattr(exc, "reason", None), str(exc)
    return rp.partition.parts, rp.rafts


def _built(make):
    """A construction's state and hash, or its exception's type, reason and message."""
    try:
        rp = make()
    except ValueError as exc:
        return type(exc), getattr(exc, "reason", None), str(exc)
    return rp, hash(rp)


def _assert_same_as_rebuilt(out):
    """A move's output equals, and hashes as, the same state built through __init__."""
    assert type(out) is RaftedPartition and type(out.partition) is Partition
    rebuilt = RaftedPartition(Partition(out.partition.parts), out.rafts)
    assert out == rebuilt and hash(out) == hash(rebuilt), str(out)


class TestAgainstReference:
    """The index engine against the set-based validator and moves it replaced."""

    def test_moves_match_reference(self):
        moved = 0
        for p in all_distinct(20):
            for rafts in enumerate_designations(p):
                rp, ref = RaftedPartition(p, rafts), ReferenceRafted(p, rafts)
                # every int k from -3 to two past the top part, and one far
                # past it: each designated raft, and every other k as a non-raft
                for k in (*range(-3, max(p.parts, default=0) + 3), 1 << 70):
                    assert rp.can_forward(k) == ref.can_forward(k), (str(rp), k)
                    assert rp.can_backward(k) == ref.can_backward(k), (str(rp), k)
                    assert _outcome(lambda: rp.forward(k)) == _outcome(lambda: ref.forward(k))
                    assert _outcome(lambda: rp.backward(k)) == _outcome(lambda: ref.backward(k))
                    if rp.can_forward(k):
                        _assert_same_as_rebuilt(rp.forward(k))
                    if rp.can_backward(k):
                        _assert_same_as_rebuilt(rp.backward(k))
                    moved += rp.can_forward(k) + rp.can_backward(k)
        assert moved > 300

    def test_validation_matches_reference(self):
        reasons = set()
        for p in all_distinct(14):
            parts = p.parts
            top = max(parts, default=0)
            # the move path's constructor checks parts as Partition does
            bad_parts = [(0, *parts), parts + parts[-1:]] if parts else [(0,)]
            if len(parts) > 1:
                bad_parts.append(parts[::-1])
            for r in range(4):
                for rafts in itertools.combinations_with_replacement(range(1, top + 1), r):
                    want = _outcome(lambda: ReferenceRafted(p, rafts))
                    reasons.add(want[1] if len(want) == 3 else "ok")
                    for given in (rafts, rafts[::-1], list(rafts[::-1])):
                        assert _outcome(lambda: RaftedPartition(p, given)) == want, \
                            (str(p), given)
                        for q in (parts, *bad_parts):
                            assert (_built(lambda: _checked_state(q, given))
                                    == _built(lambda: RaftedPartition(Partition(q), given))), \
                                (q, given)
            # the bitset rules on every designation bitset of up to three
            # rafts, bit 0 and the two bits past the largest part included:
            # _state refuses exactly where the constructor refuses the sorted
            # rafts, with the same RaftError, and builds the same state
            # otherwise
            bits = sum(1 << q for q in parts)
            for r in range(4):
                for rafts in itertools.combinations(range(top + 3), r):
                    rmask = sum(1 << k for k in rafts)
                    assert (_built(lambda: _state(bits, rmask, sum(parts)))
                            == _built(lambda: RaftedPartition(p, rafts))), (parts, rafts)
        assert reasons == {"ok", "raft-pair-broken", "colliding-rafts", "raft-not-terminal"}

    def test_traces_match_reference(self):
        """Both traces of every configuration to weight 22, replayed move by
        move on the reference: each state's parts, rafts, weight, text, repr
        and hash."""
        checked = 0
        for p in all_distinct(22):
            for rafts in enumerate_designations(p):
                rp = RaftedPartition(p, rafts)
                beta, eta, back = decompose_with_trace(rp)
                again, fwd = compose_with_trace(beta, eta)
                assert again == rp and hash(again) == hash(rp), str(rp)
                for start, moves, step in ((rp, back, ReferenceRafted.backward),
                                           (beta, fwd, ReferenceRafted.forward)):
                    ref = ReferenceRafted(Partition(start.partition.parts), start.rafts)
                    _assert_matches(start, ref)
                    for before, raft, after in moves:
                        assert before == start
                        ref, start = step(ref, raft), after
                        _assert_matches(after, ref)
                        checked += 1
        assert checked > 1000


def _unchecked_eta(parts: tuple[int, ...]) -> EvenPartition:
    """An EvenPartition holding parts past its own check, which refuses an
    increasing eta."""
    eta = object.__new__(EvenPartition)
    object.__setattr__(eta, "parts", parts)
    return eta


class TestMethodsMatchTraces:
    """The methods and both traces take each move and each refusal from the
    same step function."""

    def test_methods_give_the_trace_steps(self):
        """Every configuration to weight 24: each traced move is the method's
        move, a method refuses exactly where its step does, with the
        reference's whole message, and the decomposition stops where every
        backward method refuses."""
        checked = 0
        for rp in all_rafted(24):
            beta, eta, back = decompose_with_trace(rp)
            again, fwd = compose_with_trace(beta, eta)
            for moves, can, move in ((back, RaftedPartition.can_backward, RaftedPartition.backward),
                                     (fwd, RaftedPartition.can_forward, RaftedPartition.forward)):
                for before, raft, after in moves:
                    assert can(before, raft), (str(before), raft)
                    moved = move(before, raft)
                    assert moved == after and moved.weight == after.weight, (str(before), raft)
                    checked += 1
            for state in (rp, beta):
                ref = ReferenceRafted(Partition(state.partition.parts), state.rafts)
                for k in state.rafts:
                    for step, can, move, ref_move in (
                            (_forward_step, state.can_forward, state.forward, ref.forward),
                            (_backward_step, state.can_backward, state.backward, ref.backward)):
                        refused = step(state._bits, state._rmask, k)[1]
                        assert can(k) == (not refused), (str(state), k)
                        if refused:
                            with pytest.raises(MoveError) as want:
                                ref_move(k)
                            with pytest.raises(MoveError) as exc:
                                move(k)
                            assert str(exc.value) == str(want.value), (str(state), k)
                assert state.is_minimal() == (not any(map(state.can_backward, state.rafts)))
            assert beta.is_minimal(), str(rp)
        assert checked > 1500

    def test_refusal_text_is_built_only_where_a_move_raises(self, monkeypatch):
        """Every configuration to weight 24: the traces, is_minimal and can_*
        never build a refusal's MoveError, and each refused forward or
        backward builds it exactly once."""
        import qrafts.rafts

        build, built = qrafts.rafts._refusal, []

        def spy(k, new_raft):
            built.append((k, new_raft))
            return build(k, new_raft)

        monkeypatch.setattr(qrafts.rafts, "_refusal", spy)
        states = list(all_rafted(24))
        for rp in states:
            beta, eta, _ = decompose_with_trace(rp)
            compose_with_trace(beta, eta)
            rp.is_minimal()
            for k in rp.rafts:
                rp.can_forward(k)
                rp.can_backward(k)
        assert built == []
        refused = collections.Counter()
        for rp in states:
            for k in rp.rafts:
                for name, can, move in (("forward", rp.can_forward, rp.forward),
                                        ("backward", rp.can_backward, rp.backward)):
                    before = len(built)
                    if can(k):
                        move(k)
                        assert len(built) == before, (str(rp), k, name)
                    else:
                        with pytest.raises(MoveError):
                            move(k)
                        assert len(built) == before + 1, (str(rp), k, name)
                        refused[name] += 1
        assert refused["forward"] > 10 and refused["backward"] > 100, refused

    def test_blocked_forward_in_compose_raises_forwards_message(self):
        """A valid eta never blocks a forward move, so each eta here moves one
        raft of a minimal configuration one step, built past EvenPartition's
        check: compose gives forward()'s state or raises its exact message."""
        blocked = 0
        for beta in all_rafted(24):
            if not beta.is_minimal():
                continue
            n = len(beta.rafts)
            for rank, raft in enumerate(beta.rafts):
                eta = _unchecked_eta(tuple(2 * (i == n - 1 - rank) for i in range(n)))
                want = _outcome(lambda: beta.forward(raft))
                assert _outcome(lambda: compose(beta, eta)) == want, (str(beta), raft)
                blocked += len(want) == 3
        assert blocked > 10
        with pytest.raises(MoveError, match=re.escape(
                "move-not-applicable: raft [1,2] is blocked by designated raft [4,5] "
                "at the end of the run ahead")):
            compose_with_trace(RaftedPartition.parse("[1,2],[4,5]"), _unchecked_eta((0, 2)))


def _assert_matches(state, ref):
    """A state has the reference state's parts, rafts, weight, text and
    dataclass repr, and equals and hashes as the same state built afresh."""
    parts = ref.partition.parts
    assert (state.partition.parts, state.rafts) == (parts, ref.rafts), str(ref)
    assert state.weight == sum(parts)
    assert str(state) == str(ref)
    assert repr(state) == repr(ref).replace("ReferenceRafted", "RaftedPartition", 1)
    rebuilt = RaftedPartition(Partition(parts), ref.rafts)
    assert state == rebuilt and hash(state) == hash(rebuilt)


def _route_inputs():
    """Every state to weight 20, its text, and the minimal ones' (beta, eta)."""
    states = list(all_rafted(20))
    minimal = [rp for rp in states if rp.is_minimal()]
    return states, minimal, [decompose(rp) for rp in states]


# each route builds a list of states from the inputs above
_ROUTES = {
    "constructor": lambda states, minimal, pairs:
        [RaftedPartition(rp.partition, rp.rafts) for rp in states],
    "parse": lambda states, minimal, pairs:
        [RaftedPartition.parse(str(rp)) for rp in states],
    "to_rafted": lambda states, minimal, pairs:
        [MinimalProfile.from_positions(rp.rafts, minimal_profile(rp).tail).to_rafted()
         for rp in minimal],
    "enumerate_minimal": lambda states, minimal, pairs:
        [rp for k in (1, 2, 3) for rp in enumerate_minimal(k, 20)],
    "enumerate_rafted": lambda states, minimal, pairs:
        [rp for k in (0, 1, 2, 3) for rp in enumerate_rafted(k, 20)],
    "forward": lambda states, minimal, pairs:
        [rp.forward(k) for rp in states for k in rp.rafts if rp.can_forward(k)],
    "backward": lambda states, minimal, pairs:
        [rp.backward(k) for rp in states for k in rp.rafts if rp.can_backward(k)],
    "decompose_with_trace": lambda states, minimal, pairs:
        [after for rp in states for _, _, after in decompose_with_trace(rp)[2]],
    "compose_with_trace": lambda states, minimal, pairs:
        [after for beta, eta in pairs for _, _, after in compose_with_trace(beta, eta)[1]],
}

# the routes that build a state from a part tuple, not from a move
_TUPLE_ROUTES = ("constructor", "parse", "to_rafted", "enumerate_minimal", "enumerate_rafted")


def _bit_parts(bits: int) -> tuple[int, ...]:
    """The parts of a bitset, read bit by bit."""
    return tuple(p for p in range(bits.bit_length()) if bits >> p & 1)


class TestConstructionRoutes:
    """Every route that builds a state runs the part rule and the raft rules on it."""

    @pytest.mark.parametrize("route", list(_ROUTES))
    def test_route_runs_both_rules_on_every_state(self, route, monkeypatch):
        import qrafts.rafts

        inputs = _route_inputs()
        checked_tuples, checked_bits, checked_rafts = [], [], []
        check_parts = qrafts.rafts._check_parts
        state = qrafts.rafts._state

        def spy_parts(parts):
            checked_tuples.append(parts)
            return check_parts(parts)

        def spy_state(bits, rmask, *args):
            # _state runs the part rule and the raft rules on its bitsets
            out = state(bits, rmask, *args)
            checked_bits.append(_bit_parts(bits))
            checked_rafts.append((_bit_parts(bits), _bit_parts(rmask)))
            return out

        monkeypatch.setattr(qrafts.rafts, "_check_parts", spy_parts)
        monkeypatch.setattr(qrafts.rafts, "_state", spy_state)
        built = _ROUTES[route](*inputs)
        monkeypatch.undo()

        assert len(built) > 20, route
        keys = [(rp.partition.parts, rp.rafts) for rp in built]
        parts = collections.Counter(p for p, _ in keys)
        # each state's bitsets went through _state, and so through the part
        # rule and the raft rules, once per state at least
        assert collections.Counter(checked_bits) >= parts
        assert collections.Counter(checked_rafts) >= collections.Counter(keys)
        # and a state built from a part tuple ran Partition's rule on the tuple
        if route in _TUPLE_ROUTES:
            assert collections.Counter(checked_tuples) >= parts
        for rp, (parts, rafts) in zip(built, keys):
            assert type(rp) is RaftedPartition and type(rp.partition) is Partition
            rebuilt = RaftedPartition(Partition(parts), rafts)
            assert rp == rebuilt and hash(rp) == hash(rebuilt), str(rp)


class TestMinimality:
    def test_examples(self):
        assert RaftedPartition.parse("[1,2]").is_minimal()
        assert RaftedPartition.parse("[1,2],[4,5]").is_minimal()
        assert not RaftedPartition.parse("2,[3,4]").is_minimal()
        assert RaftedPartition.parse("1,[2,3],5,[6,7],9").is_minimal()

    def test_dynamic_equals_structural(self):
        for rp in all_rafted(20):
            assert rp.is_minimal() == is_minimal_structural(rp), str(rp)

    def test_profile_roundtrip(self):
        for k in (1, 2):
            for rp in enumerate_minimal(k, 24):
                prof = minimal_profile(rp)
                assert prof.to_rafted() == rp
                assert prof.raft_positions == rp.rafts

    def test_profile_example(self):
        prof = minimal_profile(RaftedPartition.parse("[1,2],[4,5],8"))
        assert prof.raft_positions == (1, 4)
        assert prof.tail == (8,)

    def test_profile_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            minimal_profile(RaftedPartition.parse("2,[3,4]"))

    def test_invalid_profile_construction(self):
        with pytest.raises(ValueError):
            MinimalProfile(raft_positions=(1, 3), tail=())
        for tail in ((9, 5), (5, 5)):
            with pytest.raises(ValueError, match=re.escape(
                    f"tail parts must be strictly increasing, got {tail}")):
                MinimalProfile((1,), tail)


class TestBijection:
    def test_worked_example(self):
        rp = RaftedPartition.parse("1,[2,3],5,7,[8,9]")
        beta, eta, moves = decompose_with_trace(rp)
        assert str(beta) == "1,[2,3],5,[6,7],9"
        assert eta.parts == (2, 0)
        assert len(moves) == eta.weight // 2
        for before, raft, after in moves:
            assert raft in before.rafts
            assert after.weight == before.weight - 2
        rebuilt, fwd = compose_with_trace(beta, eta)
        assert rebuilt == rp
        for before, raft, after in fwd:
            assert after.weight == before.weight + 2

    def test_zero_moves(self):
        rp = RaftedPartition.parse("1,[2,3],5")
        beta, eta = decompose(rp)
        assert beta == rp
        assert eta.parts == (0,)

    def test_no_rafts(self):
        rp = RaftedPartition.parse("1,3,5")
        beta, eta = decompose(rp)
        assert beta == rp and eta.parts == ()
        assert compose(beta, eta) == rp

    def test_compose_validates_eta_length(self):
        beta = RaftedPartition.parse("[1,2]")
        with pytest.raises(ValueError):
            compose(beta, EvenPartition((2, 2)))

    def test_compose_validates_minimality(self):
        with pytest.raises(MoveError):
            compose(RaftedPartition.parse("2,[3,4]"), EvenPartition((0,)))

    def test_eta_nonincreasing_always(self):
        for rp in all_rafted(18):
            _, eta = decompose(rp)
            assert all(a >= b for a, b in itertools.pairwise(eta.parts))
            assert len(eta) == len(rp.rafts)

    def test_exhaustive_compose_decompose(self):
        for rp in all_rafted(18):
            beta, eta = decompose(rp)
            assert beta.is_minimal()
            assert compose(beta, eta) == rp
            assert beta.weight + eta.weight == rp.weight

    def test_exhaustive_decompose_compose(self):
        # walk (beta, eta) pairs and confirm decompose inverts compose
        budget = 20
        for k in (1, 2):
            for beta in enumerate_minimal(k, budget):
                room = budget - beta.weight
                for eta_parts in _even_tuples(k, room):
                    eta = EvenPartition(eta_parts)
                    rp = compose(beta, eta)
                    assert decompose(rp) == (beta, eta), (str(beta), eta_parts)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_roundtrip(self, data):
        k = data.draw(st.integers(1, 3))
        pool = _minimal_pool(k)
        beta = data.draw(st.sampled_from(pool))
        parts = []
        cap = (40 - beta.weight) // 2
        prev = cap
        for _ in range(k):
            e = data.draw(st.integers(0, max(prev, 0)))
            parts.append(2 * e)
            prev = min(prev, e)
        eta = EvenPartition(tuple(sorted(parts, reverse=True)))
        rp = compose(beta, eta)
        assert decompose(rp) == (beta, eta)


def _even_tuples(k, total):
    """Non-increasing k-tuples of even numbers with sum <= total."""
    def rec(slots, cap, left):
        if slots == 0:
            yield ()
            return
        for e in range(0, min(cap, left) + 1, 2):
            for rest in rec(slots - 1, e, left - e):
                yield (e, *rest)
    yield from rec(k, total - total % 2, total)


_POOLS = {}


def _minimal_pool(k):
    if k not in _POOLS:
        _POOLS[k] = list(enumerate_minimal(k, 36))
    return _POOLS[k]


def _record_drawn_weights(monkeypatch, generator: str) -> list[int]:
    """Make ``rafts`` log the weight of every item it draws from one of its
    exact-weight generators: ``iter_gap_exact`` (the minimal tails) or
    ``_runs_exact`` (the rafted listing's partitions)."""
    import qrafts.rafts

    drawn = []
    draw = getattr(qrafts.rafts, generator)

    def spy(weight, *args):
        for item in draw(weight, *args):
            drawn.append(weight)
            yield item

    monkeypatch.setattr(qrafts.rafts, generator, spy)
    return drawn


class TestEnumeration:
    def test_minimal_leading_weights(self):
        for k, lead in ((1, 3), (2, 12), (3, 27)):
            got = list(enumerate_minimal(k, lead))
            assert len(got) == 1
            assert got[0].weight == lead
            assert list(enumerate_minimal(k, lead - 1)) == []

    def test_least_minimal_shapes(self):
        assert str(next(enumerate_minimal(1, 3))) == "[1,2]"
        assert str(next(enumerate_minimal(2, 12))) == "[1,2],[4,5]"

    def test_minimal_matches_filter(self):
        for k in (1, 2):
            via_filter = [rp for rp in enumerate_rafted(k, 24) if rp.is_minimal()]
            assert list(enumerate_minimal(k, 24)) == via_filter

    def test_rafted_matches_bruteforce(self):
        for k in (1, 2):
            brute = sorted(
                (rp for rp in all_rafted(16) if len(rp.rafts) == k),
                key=lambda rp: (rp.weight, rp.partition.parts, rp.rafts),
            )
            assert list(enumerate_rafted(k, 16)) == brute

    def test_rafted_matches_filter_route(self):
        """The run-pruned recursion lists what the filter route lists, in the
        same order, for every weight window here."""
        windows = [(w, low) for w in (0, 1, 2, 5, 9, 26, 40)
                   for low in (-2, 0, 1, 8, 27, 40) if low <= w]
        for k in range(6):
            # past weight 40 only where the pruning cuts most; 4 rafts need
            # weight 48, so k = 4 lists nothing to 40 and runs on to 60
            for max_weight, low in (windows + [(52, 44), (56, 52)] * (k >= 2)
                                    + [(60, 48)] * (k == 4)):
                got = [(rp.partition.parts, rp.rafts)
                       for rp in enumerate_rafted(k, max_weight, low)]
                assert got == list(reference_rafted(k, max_weight, low)), (k, max_weight, low)

    def test_ordering(self):
        for seq in (enumerate_minimal(2, 30), *(enumerate_rafted(k, 30) for k in range(4))):
            keys = [(rp.weight, rp.partition.parts, rp.rafts) for rp in seq]
            assert keys and keys == sorted(set(keys))

    def test_rafted_streams_weight_by_weight(self, monkeypatch):
        drawn = _record_drawn_weights(monkeypatch, "_runs_exact")
        first = list(itertools.islice(enumerate_rafted(1, 80), 50))
        assert len(first) == 50 and drawn
        assert max(drawn) <= first[-1].weight

    @pytest.mark.parametrize("enum", [enumerate_minimal, enumerate_rafted])
    def test_min_weight_drops_only_lighter_items(self, enum):
        for k in (1, 2, 3):
            full = list(enum(k, 30))
            for low in (0, 3, 12, 27, 30, 31):
                assert list(enum(k, 30, min_weight=low)) == \
                    [rp for rp in full if rp.weight >= low], (k, low)

    def test_min_weight_draws_nothing_lighter(self, monkeypatch):
        drawn = _record_drawn_weights(monkeypatch, "_runs_exact")
        assert list(enumerate_rafted(1, 30, min_weight=25)) and min(drawn) == 25
        drawn = _record_drawn_weights(monkeypatch, "iter_gap_exact")
        for k in (1, 2, 3):
            drawn.clear()
            kept = list(enumerate_minimal(k, 40, min_weight=36))
            assert len(kept) == len(drawn) > 0  # every tail drawn is kept


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_walk_preserves_admissibility(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    rp = RaftedPartition.parse("1,[2,3],5,7,[8,9]")
    for _ in range(12):
        options = []
        for k in rp.rafts:
            if rp.can_forward(k):
                options.append(("f", k))
            if rp.can_backward(k):
                options.append(("b", k))
        if not options:
            break
        op, k = rng.choice(options)
        nxt = rp.forward(k) if op == "f" else rp.backward(k)
        assert abs(nxt.weight - rp.weight) == 2
        assert len(nxt.rafts) == len(rp.rafts)
        assert len(nxt.partition.parts) == len(rp.partition.parts)
        rp = nxt
