"""Command-line behavior: exit codes, formats, enumeration, tracing."""

import collections
import dataclasses
import hashlib
import json

import pytest

from qrafts.cli import main
from qrafts.identities import REGISTRY
from qrafts.rafts import RaftedPartition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "slater-19",
                           "--order", "30", "--format", "json")
        assert code == 0
        (rep,) = json.loads(out)
        assert rep["name"] == "slater-19"
        assert rep["passed"] is True
        assert rep["first_diff"] is None
        assert rep["q_trunc"] == 30 and rep["x_trunc"] is None

    def test_json_times_each_side(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--order", "20", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == len(REGISTRY)
        for rep in reports:
            for key in ("lhs_ms", "rhs_ms"):
                assert type(rep[key]) is int and rep[key] >= 0, (rep["name"], key)

    def test_unknown_identity(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "no-such",
                             "--order", "10")
        assert code == 2
        assert "unknown-identity" in err
        assert out == ""

    @pytest.mark.parametrize("exc", [ValueError("bad order"), ZeroDivisionError("boom")],
                             ids=["ValueError", "ZeroDivisionError"])
    def test_raising_builder_fails_only_its_check(self, capsys, monkeypatch, exc):
        def broken(*args):
            raise exc

        monkeypatch.setitem(REGISTRY, "bmn-k2",
                            dataclasses.replace(REGISTRY["bmn-k2"], rhs=broken))
        code, out, err = run(capsys, "verify", "--all", "--order", "12", "--format", "json")
        assert code == 1 and err == ""
        reports = {r["name"]: r for r in json.loads(out)}
        assert len(reports) == len(REGISTRY)
        bad = reports.pop("bmn-k2")
        assert bad["passed"] is False and bad["first_diff"] is None
        assert bad["error"] == {"type": type(exc).__name__, "message": str(exc)}
        assert all(r["passed"] and "error" not in r for r in reports.values())
        code, out, _ = run(capsys, "verify", "--identity", "bmn-k2", "--order", "12")
        assert code == 1
        assert f"error: {type(exc).__name__}: {exc}" in out.splitlines()[0]
        code, out, _ = run(capsys, "verify", "--identity", "bmn-k2", "--order", "12",
                           "--format", "csv")
        assert (code, out.splitlines()[1]) == (1, "bmn-k2,false,,")

    def test_all_quick_profile(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--profile", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == f"passed {len(lines) - 1}/{len(lines) - 1}"
        assert all(line.startswith("ok") for line in lines[:-1])
        assert "q<=30" in lines[0]

    def test_repeatable_identity_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "slater-19",
                           "--identity", "q-gauss-1-1-3", "--order", "15",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "name,passed,first_diff_q,first_diff_x",
            "slater-19,true,,",
            "q-gauss-1-1-3,true,,",
        ]

    def test_order_overrides_profile(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "slater-19",
                           "--order", "12", "--profile", "deep")
        assert code == 0
        assert "q<=12" in out

    def test_env_profile_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QRAFTS_PROFILE", "quick")
        code, out, _ = run(capsys, "verify", "--identity", "q-gauss-1-1-3")
        assert code == 0
        assert "q<=30" in out

    def test_bad_env_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("QRAFTS_PROFILE", "maximal")
        with pytest.raises(SystemExit) as e:
            main(["verify", "--identity", "slater-19"])
        assert e.value.code == 2

    def test_negative_order(self, capsys):
        # rejected by the parser, before any check runs
        for flags in (["--order", "-3"], ["--order", "5", "--x-order", "-3"]):
            with pytest.raises(SystemExit) as e:
                main(["verify", "--all", *flags])
            assert e.value.code == 2, flags

    def test_identity_and_all_conflict(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--identity", "slater-19", "--all"])
        assert e.value.code == 2

    def test_neither_identity_nor_all(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--order", "10"])
        assert e.value.code == 2

    def test_x_order_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "bmn-k2",
                           "--order", "14", "--x-order", "3", "--format", "json")
        assert code == 0
        (rep,) = json.loads(out)
        assert rep["x_trunc"] == 3

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--identity", "slater-19",
                           "--order", "10", "--format", "json",
                           "--output", str(path))
        assert code == 0
        assert out == ""
        (rep,) = json.loads(path.read_text())
        assert rep["passed"] is True

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "no-such-dir" / "report.txt"
        code, out, err = run(capsys, "verify", "--identity", "slater-19",
                             "--order", "5", "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"qrafts: error: cannot write {path}: No such file or directory\n"

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import qrafts.identities as idn
        from qrafts.identities import IdentityCheck
        from qrafts.series import QSeries
        broken = IdentityCheck(
            "slater-19", False,
            lambda N: QSeries(N, tuple(c + (i == 4)
                                       for i, c in enumerate(idn.slater19_sum(N).coeffs))),
            lambda N: idn.rr_product((1, 4), 5, N),
            "fixture",
        )
        monkeypatch.setitem(idn.REGISTRY, "slater-19", broken)
        code, out, _ = run(capsys, "verify", "--identity", "slater-19",
                           "--order", "10")
        assert code == 1
        assert "FAIL" in out and "q^4" in out
        code, out, _ = run(capsys, "verify", "--identity", "slater-19",
                           "--order", "10", "--format", "csv")
        assert code == 1
        assert "slater-19,false,4," in out

    def test_text_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--identity", "master-identity",
                             "--order", "10")
        code2, out2, _ = run(capsys, "verify", "--identity", "master-identity",
                             "--order", "10")
        assert (code1, out1) == (code2, out2)

    # the deep report's text and CSV are timing-free, so any change to a
    # check's name, verdict, order or line format shows in these digests
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "4e24f2ff5b725a9efaadecaa260caf4c2424a7bf2ec1aa94be82dd04fc0e4ff8"),
        ("csv", "e8019174657657add80181c6a5b69becefaf31e05c57a3f20d8500d912c8879d"),
    ])
    def test_deep_report_digest(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "verify", "--all", "--profile", "deep",
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestList:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert any(line.startswith("slater-19") for line in lines)
        assert any("x,q" in line for line in lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        rows = json.loads(out)
        names = [r["name"] for r in rows]
        assert "master-identity" in names
        by_name = {r["name"]: r for r in rows}
        assert by_name["master-identity"]["bivariate"] is True
        assert by_name["slater-19"]["bivariate"] is False


class TestEnumerate:
    def test_gap2_weight10(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--target", "2-distinct",
                           "--weight", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert "1,3,6" in lines and "10" in lines

    def test_minimal_smallest(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--target", "minimal-rafted",
                           "--k", "1", "--max-weight", "3")
        assert (code, out) == (0, "[1,2]\n")

    def test_distinct_weight_zero(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--target", "distinct",
                           "--weight", "0")
        assert (code, out) == (0, "()\n")

    def test_counts_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--target", "2-distinct",
                           "--weight", "10", "--counts")
        assert (code, out) == (0, "weight,count\n10,6\n")

    @pytest.mark.parametrize("counts", [(), ("--counts",)])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, counts):
        code, out, err = run(capsys, "enumerate", "--target", "2-distinct",
                             "--weight", "10", *counts, "--output", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"qrafts: error: cannot write {tmp_path}: ")

    def test_counts_max_weight_includes_all_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--target", "distinct",
                           "--max-weight", "5", "--counts")
        assert code == 0
        assert out == "weight,count\n0,1\n1,1\n2,1\n3,2\n4,2\n5,3\n"

    def test_rafted_target(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--target", "rafted",
                           "--k", "1", "--max-weight", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "[1,2]"
        assert "[3,4]" in lines and "1,[2,3]" in lines

    @pytest.mark.parametrize("target", ["rafted", "minimal-rafted"])
    def test_weight_is_the_weight_rows_of_max_weight(self, capsys, target):
        for k in (1, 2, 3):
            for w in range(31):
                args = ("enumerate", "--target", target, "--k", str(k))
                code, single, _ = run(capsys, *args, "--weight", str(w))
                assert code == 0
                code, upto, _ = run(capsys, *args, "--max-weight", str(w))
                assert code == 0
                heaviest = [line for line in upto.splitlines(keepends=True)
                            if RaftedPartition.parse(line.rstrip("\n")).weight == w]
                assert single == "".join(heaviest), (k, w)

    @pytest.mark.parametrize("target, ks", [
        ("distinct", [()]), ("3-distinct", [()]),
        ("rafted", [("--k", str(k)) for k in (1, 2, 3)]),
        ("minimal-rafted", [("--k", str(k)) for k in (1, 2, 3)]),
    ], ids=["distinct", "3-distinct", "rafted", "minimal-rafted"])
    def test_counts_render_nothing(self, capsys, monkeypatch, target, ks):
        """--counts reads each object's weight and renders no text; its CSV is
        the per-weight line count of the same listing to weight 30."""
        import qrafts.partitions
        import qrafts.rafts

        render, rendered = qrafts.partitions.render_rafted_text, []

        def spy(parts, rafts):
            rendered.append(parts)
            return render(parts, rafts)

        for module in (qrafts.partitions, qrafts.rafts):
            monkeypatch.setattr(module, "render_rafted_text", spy)
        for k in ks:
            args = ("enumerate", "--target", target, *k, "--max-weight", "30")
            rendered.clear()
            code, listing, _ = run(capsys, *args)
            lines = listing.splitlines()
            assert code == 0 and len(rendered) == len(lines) > 0, k
            rendered.clear()
            code, counts, _ = run(capsys, *args, "--counts")
            assert (code, rendered) == (0, []), k
            per_weight = collections.Counter(RaftedPartition.parse(line).weight for line in lines)
            assert counts == "weight,count\n" + "".join(
                f"{w},{per_weight[w]}\n" for w in range(31)), k

    @pytest.mark.parametrize("bound", ["--weight", "--max-weight"])
    @pytest.mark.parametrize("target", [("weird",), ("rafted",), ("distinct", "--k", "2")],
                             ids=["unknown-target", "rafted-without-k", "distinct-with-k"])
    def test_negative_weight_is_refused_first(self, capsys, bound, target):
        """A negative weight exits 2 before any target or --k error."""
        with pytest.raises(SystemExit) as e:
            main(["enumerate", "--target", *target, bound, "-1"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip("\n").endswith("error: weights must be >= 0"), err

    def test_rafted_needs_k(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["enumerate", "--target", "rafted", "--max-weight", "5"])
        assert e.value.code == 2

    def test_k_rejected_for_distinct(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["enumerate", "--target", "distinct", "--k", "2",
                  "--weight", "5"])
        assert e.value.code == 2

    def test_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["enumerate", "--target", "weird", "--weight", "5"])
        assert e.value.code == 2

    @pytest.mark.parametrize("target", ["\u00b2-distinct", "\u0663-distinct", "0-distinct",
                                        "+3-distinct"],
                             ids=["superscript-two", "arabic-indic-three", "zero", "plus-sign"])
    def test_gap_must_be_ascii_digits(self, capsys, target):
        # str.isdigit accepts the superscript two and int() the Arabic-Indic three
        with pytest.raises(SystemExit) as e:
            main(["enumerate", "--target", target, "--weight", "5"])
        assert e.value.code == 2
        assert "want <d>-distinct" in capsys.readouterr().err

    def test_weight_and_max_weight_conflict(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["enumerate", "--target", "distinct", "--weight", "3",
                  "--max-weight", "5"])
        assert e.value.code == 2

    def test_matches_series_coefficient(self, capsys):
        from qrafts.identities import d_distinct_xq
        code, out, _ = run(capsys, "enumerate", "--target", "3-distinct",
                           "--weight", "12")
        assert code == 0
        want = d_distinct_xq(3, 12, 12).substitute_x_power(0).coefficient(12)
        assert len(out.strip().splitlines()) == want

    # digests of whole listings: a change to any line, or to their order, shows here
    @pytest.mark.parametrize("target, max_weight, lines, digest", [
        ("distinct", "30", 2035,
         "b3e975fe3bac1546d3bcfcd5358c0c5569a50b0d8416f08c2c578f2a2080ce7e"),
        ("3-distinct", "45", 3070,
         "c05f30f8750d388bdd5c619e3691730b80bdfa7c3450c8a612a572c04f36de20"),
    ], ids=["distinct", "3-distinct"])
    def test_distinct_listing_digest(self, capsys, target, max_weight, lines, digest):
        code, out, _ = run(capsys, "enumerate", "--target", target,
                           "--max-weight", max_weight)
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTrace:
    def test_one_move(self, capsys):
        code, out, _ = run(capsys, "trace", "2,[3,4]")
        assert code == 0
        assert out.splitlines() == [
            "input: 2,[3,4]",
            "2,[3,4]  --bwd(raft=3)-->  [1,2],4",
            "beta: [1,2],4",
            "eta: (2)",
            "[1,2],4  --fwd(raft=1)-->  2,[3,4]",
            "roundtrip: ok",
        ]

    def test_already_minimal(self, capsys):
        code, out, _ = run(capsys, "trace", "1,[2,3],5")
        assert code == 0
        assert "eta: (0)" in out
        assert "--bwd" not in out and "--fwd" not in out
        assert out.strip().endswith("roundtrip: ok")

    def test_two_rafts(self, capsys):
        code, out, _ = run(capsys, "trace", "1,[2,3],5,7,[8,9]")
        assert code == 0
        assert "beta: 1,[2,3],5,[6,7],9" in out
        assert "eta: (2, 0)" in out

    def test_inadmissible(self, capsys):
        code, out, err = run(capsys, "trace", "1,[2,3],[4,5]")
        assert code == 2
        assert "raft" in err.lower()
        # a shared run and 4 present: the shared run is named first
        code, out, err = run(capsys, "trace", "[2,3],4,[5,6]")
        assert (code, out) == (2, "")
        assert err == ("qrafts: error: colliding-rafts: rafts [2,3] and [5,6] "
                       "share a run in 2,3,4,5,6\n")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "trace", "1,[2],5")
        assert code == 2
        assert "bracket" in err or "raft" in err

    def test_no_rafts(self, capsys):
        code, out, _ = run(capsys, "trace", "1,3,5")
        assert code == 0
        assert "eta: ()" in out
        assert "roundtrip: ok" in out

    # the whole output, digests taken before the parts became a bitset; the
    # second example's moves both jump an obstacle run
    @pytest.mark.parametrize("text, digest", [
        ("1,[2,3],5,[7,8]",
         "e30ce0d6ae2bfd8e1597a9ba377b5839b8e73023396cd284dbf3a1b035ea2fd7"),
        ("3,4,[5,6],8",
         "1bd43ad2e58a0925979dc799396beb65d8fa73d12884baee48552d588b3c2a58"),
    ])
    def test_trace_digest(self, capsys, text, digest):
        code, out, _ = run(capsys, "trace", text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_part_near_a_million(self, capsys):
        """A part of 10^6 takes a bitset of 10^6 bits in every state."""
        code, out, _ = run(capsys, "trace", "1,[2,3],1000000")
        assert code == 0
        assert out.splitlines() == [
            "input: 1,[2,3],1000000",
            "beta: 1,[2,3],1000000",
            "eta: (0)",
            "roundtrip: ok",
        ]
        code, out, _ = run(capsys, "trace", "1,[2,3],5,[7,8],999999")
        assert code == 0
        assert out.splitlines() == [
            "input: 1,[2,3],5,[7,8],999999",
            "1,[2,3],5,[7,8],999999  --bwd(raft=7)-->  1,[2,3],5,[6,7],999999",
            "beta: 1,[2,3],5,[6,7],999999",
            "eta: (2, 0)",
            "1,[2,3],5,[6,7],999999  --fwd(raft=6)-->  1,[2,3],5,[7,8],999999",
            "roundtrip: ok",
        ]
