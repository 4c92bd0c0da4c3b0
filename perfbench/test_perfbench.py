"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import resource
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls_and_generators():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    ns = types.SimpleNamespace()

    def leaf():
        clock.t += 2

    def mid():
        clock.t += 1
        ns.leaf()
        clock.t += 3

    def top():
        ns.mid()
        clock.t += 5
        for _ in ns.gen():
            clock.t += 100  # the consumer's time, between steps
        ns.leaf()

    def gen():
        clock.t += 1
        ns.leaf()
        yield 1
        clock.t += 4
        yield 2

    ns.leaf = tr.wrap_call("leaf", leaf)
    ns.mid = tr.wrap_call("mid", mid)
    ns.gen = tr.wrap_gen("gen", gen)
    tr.wrap_call("top", top)()
    st = tr.stats
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (3, 6, 6)
    assert (st["mid"].total_s, st["mid"].self_s) == (6, 4)
    assert (st["gen"].items, st["gen"].total_s, st["gen"].self_s) == (2, 7, 5)
    assert (st["top"].total_s, st["top"].self_s) == (220, 205)
    assert sum(s.self_s for s in st.values()) == st["top"].total_s


def test_real_nesting_charges_child_time_upwards(monkeypatch):
    import qrafts.identities as idn

    clock = FakeClock()
    real = idn.minimal_gf

    def minimal_gf(*args, **kwargs):
        clock.t += 7
        return real(*args, **kwargs)

    monkeypatch.setattr(idn, "minimal_gf", minimal_gf)
    tr = tracing.Tracer(clock)
    tracing.install(tr)
    try:
        idn.no_raft_gf(12)  # rafts k = 1, 2 fit below order 12
    finally:
        tr.restore()
    st = tr.stats
    assert (st["identities.minimal_gf"].calls, st["identities.minimal_gf"].self_s) == (2, 14)
    assert (st["identities.rafted_gf"].calls, st["identities.rafted_gf"].total_s) == (2, 14)
    assert st["identities.rafted_gf"].self_s == 0
    assert (st["identities.no_raft_gf"].total_s, st["identities.no_raft_gf"].self_s) == (14, 0)
    assert not hasattr(idn.no_raft_gf, "__wrapped__")  # restored


def test_every_check_traced_with_digests_equal_to_untraced():
    from qrafts.identities import REGISTRY

    spec = dict(workloads.WORKLOADS["deep-registry"], order=18)
    untraced = workloads.compute_expected(spec)["checks"]
    tr = tracing.Tracer()
    seen = {}
    tracing.install(tr, lambda name, side, s: seen.__setitem__(
        (name, side), workloads.series_digest(s)))
    try:
        code, out = workloads.cli_run(workloads.verify_argv(spec))
    finally:
        tr.restore()
    assert code == 0
    assert all(r["passed"] for r in json.loads(out))
    for name in REGISTRY:
        for side in ("lhs", "rhs"):
            assert tr.stats[f"check.{name}.{side}"].calls == 1, (name, side)
    assert {n: [seen[n, "lhs"], seen[n, "rhs"]] for n in REGISTRY} == untraced


def test_traced_pass_checks_digests_and_reports_every_layer():
    spec = dict(workloads.WORKLOADS["formula"], order=24)
    expected = workloads.compute_expected(spec)
    result = workloads.run_pass(spec, expected, seed=1, trace=True)
    assert (result["ops"], result["ops_failed"]) == (19, 0)
    assert set(result["layers"]) == set(tracing.SPAN_METRICS) | set(tracing.CACHE_METRICS)
    assert result["layers"]["partitions.iter_gap_parts.items"] == 0
    assert result["layers"]["series.QSeries.mul.coef_ops"] > 0
    assert sorted(n for n, t in result["check_s"].items() if t > 0) == sorted(
        f"{c}.{side}" for c in workloads.FORMULA_CHECKS for side in ("lhs", "rhs"))

    name = "slater-19"
    expected["checks"][name] = [expected["checks"][name][0], "0" * 64]
    assert workloads.run_pass(spec, expected, seed=1, trace=True)["ops_failed"] == 1


def test_census_inputs_follow_the_seed():
    spec = workloads.WORKLOADS["bijection-census"]
    a = workloads.round_trip_inputs(spec, 5)
    assert a == workloads.round_trip_inputs(spec, 5)
    assert a != workloads.round_trip_inputs(spec, 6)
    assert len(a) == spec["round_trips"]


def test_small_workload_reports_small_rss_after_large_one():
    big = [sys.executable, "-c",
           "b = bytearray(300 << 20)\nb[::4096] = b'x' * len(b[::4096])\nprint('ready')"]
    *_, code, usage = run.run_child(big, 60)
    assert code == 0 and usage.ru_maxrss / 1024 > 300
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 > 300
    job = {"src": str(run.SRC), "workload": "bijection-census", "seed": 1, "trace": False}
    small = run.spawn(job, 120)
    assert small["ops_failed"] == 0
    assert small["peak_rss_mb"] < 100


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "formula",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_exactly_the_result_keys(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "bijection-census", "--seed", "2", "--seconds", "1",
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == wanted
    if trace:
        series = [m for m, v in result["metrics"].items()
                  if m.startswith("series.") and v["value"]]
        assert series == []
