"""The benchmark's workloads: what one pass does inside a fresh worker.

Sizes are chosen so that one pass takes 2-3 s on a 2-vCPU Xeon VM, so that a
measured run holds a dozen passes: the deep profile's order 100 takes about
a minute, so the registry runs at order 64 and the closed-form checks at
order 85.  Changing a size means regenerating ``expected.json`` with
``make_expected.py`` at a commit whose outputs are trusted.

Only this module's pass functions import qrafts, and only inside the worker.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# the checks whose two sides are both closed forms: no enumeration oracle runs
FORMULA_CHECKS = (
    "slater-19", "slater-15", "slater-15-alt", "inclusion-exclusion-rr1",
    "master-identity", "master-at-x-q", "master-at-x-1",
    "bmn-c2-slater-19", "bmn-c2-slater-15", "staircase-d0-master",
    "q-gauss-1-1-3", "q-gauss-1-2-4", "q-gauss-2-2-5", "q-gauss-1-1-4",
    "q-gauss-2-3-7", "q-gauss-1-3-5",
    "proof-gauss-step-k1", "proof-gauss-step-k2", "proof-gauss-step-k3",
)

WORKLOADS = {
    # every registry check through `qrafts verify --all`; the enumeration
    # oracles, the fused sweep and enumerate_minimal carry half of it, so
    # oracle work moves this one
    "deep-registry": {"kind": "verify", "order": 64, "checks": None,
                      "shared": ("sweep", "master_lhs")},
    # closed-form sides only: all time goes to the series ring and the
    # formula builders; the control for any oracle change
    "formula": {"kind": "verify", "order": 85, "checks": FORMULA_CHECKS,
                "shared": ("master_lhs",)},
    # ordered listing and raft moves, no series algebra; the control for
    # any series change
    "bijection-census": {"kind": "census", "max_weight": 42, "round_trips": 1500,
                         "trip_weight": 200, "raft_counts": (1, 2, 3)},
}


def series_digest(s) -> str:
    """SHA-256 of a QSeries or XQSeries, from its truncation and coefficients."""
    if hasattr(s, "terms"):
        text = f"xq {s.x_trunc} {s.q_trunc}" + "".join(
            f"\n{d}:" + ",".join(map(str, s.slice(d).coeffs)) for d in sorted(s.terms))
    else:
        text = f"q {s.trunc}\n" + ",".join(map(str, s.coeffs))
    return hashlib.sha256(text.encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_run(argv: list[str]) -> tuple[int, str]:
    """Run ``qrafts.cli.main`` in-process, capturing what it prints."""
    import qrafts.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = qrafts.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def verify_argv(spec: dict) -> list[str]:
    argv = ["verify", "--order", str(spec["order"]), "--format", "json"]
    if spec["checks"] is None:
        return argv + ["--all"]
    return argv + [a for name in spec["checks"] for a in ("--identity", name)]


def listing_argv(target: str, k: int, max_weight: int) -> list[str]:
    return ["enumerate", "--target", target, "--k", str(k),
            "--max-weight", str(max_weight)]


# ---------------------------------------------------------------------------
# inputs


def round_trip_inputs(spec: dict, seed: int) -> list[tuple]:
    """Random (raft positions, tail, eta) triples of weight <= trip_weight.

    Raft positions climb by >= 3 and the tail sits at r_k + 3 or above, so
    every triple names a valid minimal profile; eta is non-increasing and
    even, as in the bijection.
    """
    rng = random.Random(seed)
    top_weight = spec["trip_weight"]
    out = []
    while len(out) < spec["round_trips"]:
        k = rng.choice(spec["raft_counts"])
        pos = [rng.randint(1, 8)]
        for _ in range(k - 1):
            pos.append(pos[-1] + rng.randint(3, 8))
        top = pos[-1] + 1
        weight = top * (top + 1) // 2 - sum(r + 2 for r in pos[:-1])
        tail = sorted(rng.sample(range(top + 2, top + 42), rng.randint(0, 4)))
        weight += sum(tail)
        if weight > top_weight:
            continue
        remaining = (top_weight - weight) // 2
        halves = []
        cap = remaining
        for _ in range(k):
            h = rng.randint(0, min(cap, remaining))
            halves.append(h)
            cap = h
            remaining -= h
        out.append((tuple(pos), tuple(tail), tuple(2 * h for h in halves)))
    return out


# ---------------------------------------------------------------------------
# passes


def run_verify(spec: dict) -> dict:
    """One `qrafts verify` over the workload's checks; returns name -> passed."""
    code, out = cli_run(verify_argv(spec))
    if code not in (0, 1):
        return {}
    return {r["name"]: bool(r["passed"]) for r in json.loads(out)}


def warm_shared(spec: dict) -> None:
    """Call each shared cached layer once, cold, so the trace charges it there."""
    import qrafts.identities as idn

    n = spec["order"]
    if "sweep" in spec["shared"] and hasattr(idn, "_sweep"):
        idn._sweep(n)
    if "master_lhs" in spec["shared"] and hasattr(idn, "master_lhs"):
        idn.master_lhs(n, n)


def run_census(spec: dict, trips: list[tuple], expected: dict) -> tuple[int, int]:
    """List every k-raft configuration, round-trip each, then the random trips.

    Returns (operations, failed operations).  A listing is one operation,
    failed when its text digest or a per-weight count differs from the seed's;
    each configuration round-tripped is one more.
    """
    import qrafts.rafts as rafts
    from qrafts.partitions import EvenPartition

    parse = rafts.RaftedPartition.parse
    max_weight = spec["max_weight"]
    ops = failed = 0
    for target in ("minimal-rafted", "rafted"):
        for k in spec["raft_counts"]:
            key = f"{target}-k{k}"
            _, text = cli_run(listing_argv(target, k, max_weight))
            counts = [0] * (max_weight + 1)
            for line in text.splitlines():
                rp = parse(line)
                counts[rp.weight] += 1
                beta, eta, back = rafts.decompose_with_trace(rp)
                again, fwd = rafts.compose_with_trace(beta, eta)
                ok = again == rp and len(fwd) == len(back)
                if target == "minimal-rafted":
                    ok = ok and not back
                ops += 1
                failed += not ok
            ops += 1
            failed += (text_digest(text) != expected["listings"][key]
                       or counts != expected["counts"][key])
    for pos, tail, eta_parts in trips:
        beta = rafts.MinimalProfile.from_positions(pos, tail).to_rafted()
        eta = EvenPartition(eta_parts)
        rp, fwd = rafts.compose_with_trace(beta, eta)
        beta2, eta2, back = rafts.decompose_with_trace(rp)
        ok = ((beta2, eta2) == (beta, eta) and len(fwd) == len(back)
              and rp.weight == beta.weight + eta.weight)
        ops += 1
        failed += not ok
    return ops, failed


def load_expected(name: str) -> dict:
    """The seed's outputs for a workload, refused if its sizes have changed."""
    expected = json.loads(EXPECTED_PATH.read_text())[name]
    if expected["params"] != json.loads(json.dumps(WORKLOADS[name])):
        raise ValueError(f"{EXPECTED_PATH.name} was made for other {name} sizes; "
                         f"rerun make_expected.py")
    return expected


def compute_expected(spec: dict) -> dict:
    """Digests and counts that a pass is checked against, from this qrafts."""
    out = {"params": json.loads(json.dumps(spec))}
    if spec["kind"] == "verify":
        from qrafts.identities import REGISTRY

        n = spec["order"]
        names = list(REGISTRY) if spec["checks"] is None else spec["checks"]
        out["checks"] = {}
        for name in names:
            check = REGISTRY[name]
            args = (n, n) if check.bivariate else (n,)
            out["checks"][name] = [series_digest(check.lhs(*args)),
                                   series_digest(check.rhs(*args))]
        return out
    from qrafts.identities import minimal_gf, rafted_gf

    w = spec["max_weight"]
    out["listings"], out["counts"] = {}, {}
    for target, gf in (("minimal-rafted", minimal_gf), ("rafted", rafted_gf)):
        for k in spec["raft_counts"]:
            key = f"{target}-k{k}"
            out["listings"][key] = text_digest(cli_run(listing_argv(target, k, w))[1])
            out["counts"][key] = list(gf(k, w).coeffs)
    return out


def run_pass(spec: dict, expected: dict, seed: int, trace: bool) -> dict:
    """One pass of a workload in this process: ops, failures, wall time, layers."""
    trips = round_trip_inputs(spec, seed) if spec["kind"] == "census" else []
    tracer = originals = None
    digests: dict[tuple[str, str], str] = {}
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        originals = tracing.install(
            tracer, lambda check, side, s: digests.__setitem__((check, side), series_digest(s)))

    t0 = time.perf_counter()
    if spec["kind"] == "verify":
        if trace:
            warm_shared(spec)
        verdicts = run_verify(spec)
        wall = time.perf_counter() - t0
        bad = {n for n in expected["checks"] if not verdicts.get(n, False)}
        if trace:
            bad |= {n for n, pair in expected["checks"].items()
                    if [digests.get((n, "lhs")), digests.get((n, "rhs"))] != pair}
        ops, failed = len(expected["checks"]), len(bad)
    else:
        ops, failed = run_census(spec, trips, expected)
        wall = time.perf_counter() - t0

    result = {"ops": ops, "ops_failed": failed, "wall_s": wall}
    if trace:
        result["layers"] = tracing.layer_metrics(tracer, originals)
        result["enumeration_self_s"] = tracing.enumeration_self_s(tracer)
        result["check_s"] = {name[len("check."):]: st.total_s
                             for name, st in tracer.stats.items() if name.startswith("check.")}
        tracer.restore()
    return result
