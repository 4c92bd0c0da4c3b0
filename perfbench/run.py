"""The qrafts benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload deep-registry --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 120

Each pass runs in a fresh worker process (``worker.py``) that imports qrafts
from this checkout's ``src``; the harness is its only parent, so at most two
processes run.  Passes repeat until ``--seconds`` have passed; with
``--workload all`` the workloads are interleaved and their order alternates
from round to round.  A fixed reference job (``reference.py``) runs before
and after every pass, and the ``*_norm_s`` metrics scale the pass's times by
it to a nominal host speed.  ``--trace 0`` reports the end-to-end metrics
and ``--trace 1`` the per-layer ones, from traced passes alternated with
untraced ones.  The last line of output is one JSON object; the line before
it holds every sample, the quartiles and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {name: unit for name, (_, _, unit) in tracer.SPAN_METRICS.items()}
PER_LAYER.update({name: "count" for name in tracer.CACHE_METRICS})
PER_LAYER.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.enumeration_share": "%"})

SETUP_SPAWNS = 10   # set-up-only workers per run, besides one per pass
MIN_ROUNDS = 3
SLACK_S = 120       # a run stops starting rounds this long after --seconds
# reference.py's time on a host of nominal speed: the *_norm_s metrics are
# seconds on such a host
REFERENCE_NOMINAL_S = 0.2


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float) -> tuple[float, str, str, int, object]:
    """Run a child process that prints a first line when it is set up.

    Returns (seconds from spawn to that line, the line, the rest of its
    output, exit code, its own resource usage).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(),
                            text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        t_first = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        # wait4 on this pid: RUSAGE_CHILDREN would report the largest RSS of
        # every child reaped so far, not this one's
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return t_first - t0, first, rest, proc.returncode, usage


def spawn(job: dict, timeout: float) -> dict:
    """One worker: its pass results, set-up time, CPU time and peak RSS."""
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    setup, first, rest, code, usage = run_child(argv, timeout)
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"worker for {job['workload']!r} exited with {code}")
    result = json.loads(rest.splitlines()[-1]) if job["workload"] else {}
    result["setup_s"] = setup
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def reference(timeout: float) -> float:
    """Seconds the reference job takes in a process of its own."""
    _, first, rest, code, _ = run_child([sys.executable, str(HERE / "reference.py")], timeout)
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"reference job exited with {code}")
    return float(rest.split()[-1])


def collect(names: list[str], seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Interleave passes of the named workloads until ``seconds`` have passed.

    Each pass records the reference job's time just before and just after it.
    """
    start = time.perf_counter()
    limit = seconds + SLACK_S

    def left():
        return max(limit - (time.perf_counter() - start), 1.0)

    def job(workload, traced=False):
        return {"src": str(SRC), "workload": workload, "seed": seed, "trace": traced}

    spawn(job(None), limit)  # warm-up: compiles bytecode, fills the file cache
    setups = [spawn(job(None), limit)["setup_s"] for _ in range(SETUP_SPAWNS)]
    passes: dict[str, list[dict]] = {n: [] for n in names}
    kinds = [False, True] if trace else [False]
    ref = reference(left())
    rounds = 0
    while True:
        t_round = time.perf_counter()
        flip = rounds % 2 == 1
        for name in (names[::-1] if flip else names):
            for traced in (kinds[::-1] if flip else kinds):
                result = spawn(job(name, traced), left())
                after = reference(left())
                passes[name].append(result | {"traced": traced, "reference_s": [ref, after]})
                ref = after
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start >= seconds:
            break
        if now - start + (now - t_round) > limit:
            break
    return passes, setups


# ---------------------------------------------------------------------------
# summaries


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def scaled(p: dict, name: str) -> float:
    """A pass's time in seconds on a host of nominal speed."""
    return p[name] * REFERENCE_NOMINAL_S / statistics.fmean(p["reference_s"])


def summarize(passes: list[dict], setups: list[float], trace: bool) -> dict:
    """Metric name -> {median, q1, q3, n, unit} for one workload's passes."""
    plain = [p for p in passes if not p["traced"]]
    out = {}
    if not trace:
        out["setup_s"] = spread(setups + [p["setup_s"] for p in passes]) | {"unit": "s"}
        for name in ("wall_s", "cpu_s"):
            norm = name.replace("_s", "_norm_s")
            out[norm] = spread([scaled(p, name) for p in plain]) | {"unit": "s"}
            out[name] = spread([p[name] for p in plain]) | {"unit": "s"}
        out["peak_rss_mb"] = spread([p["peak_rss_mb"] for p in plain]) | {"unit": "MB"}
        out["reference_s"] = spread([r for p in plain for r in p["reference_s"]]) | {"unit": "s"}
        for name in ("ops", "ops_failed"):
            out[name] = spread([p[name] for p in plain]) | {"unit": "count"}
        return out
    traced = [p for p in passes if p["traced"]]
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        out[name] = spread([p["layers"].get(name, 0) for p in traced]) | {"unit": PER_LAYER[name]}
    out["trace.wall_s"] = spread([p["wall_s"] for p in traced]) | {"unit": "s"}
    # scaled like wall_norm_s, so that host drift between the two kinds of
    # pass does not show as overhead
    over = (statistics.median(scaled(p, "wall_s") for p in traced)
            - statistics.median(scaled(p, "wall_s") for p in plain))
    out["trace.overhead_s"] = {"median": over, "q1": over, "q3": over,
                               "n": len(passes), "unit": "s"}
    shares = [100 * p["enumeration_self_s"] / p["wall_s"] for p in traced]
    out["trace.enumeration_share"] = spread(shares) | {"unit": "%"}
    return out


def environment(passes: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qrafts").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    files = {p["qrafts_file"] for ps in passes.values() for p in ps}
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "qrafts_file": sorted(files)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qrafts" / "__init__.py").is_file():
        print(f"run.py: no qrafts package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        passes, setups = collect(names, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    summaries = {n: summarize(passes[n], setups, bool(args.trace)) for n in names}
    attempted = sum(p["ops"] for ps in passes.values() for p in ps)
    failed = sum(p["ops_failed"] for ps in passes.values() for p in ps)
    if args.workload == "all":
        for name in names:
            for metric, s in summaries[name].items():
                print(f"{name:<17} {metric:<42} {s['median']:>14.6g} {s['unit']:<5} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
        metrics = {f"{n}.{m}": {"value": s["median"], "unit": s["unit"]}
                   for n in names for m, s in summaries[n].items()}
    else:
        wanted = PER_LAYER if args.trace else END_TO_END
        metrics = {m: {"value": summaries[names[0]][m]["median"], "unit": u}
                   for m, u in wanted.items()}
    print(json.dumps({"workloads": names, "seed": args.seed, "trace": args.trace,
                      "env": environment(passes), "summary": summaries,
                      "passes": passes, "setup_samples": setups}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
