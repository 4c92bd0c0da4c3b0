"""Spans around the calls into each qrafts layer, recorded from outside.

The program is not edited: ``install`` replaces module attributes and
methods with timing wrappers, in every ``qrafts`` module that holds the
original object, because ``from .series import pochhammer`` binds a second
name that a patch of ``qrafts.series`` alone would miss.  Registry entries
bind builders directly, so their ``lhs``/``rhs`` are replaced through
``dataclasses.replace``.

A span's self time is its duration minus the durations of the spans opened
inside it.  A generator's span is the sum of its ``next`` steps; the time the
consumer spends between steps belongs to the consumer.  Work the tracer does
itself (counters, digests) is subtracted from the enclosing span, so it shows
only in the traced run's extra wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from typing import Callable


class Stat:
    """Accumulated numbers for one span name."""

    __slots__ = ("calls", "items", "total_s", "self_s", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    """Span recorder; ``clock`` is injectable so tests can drive it exactly."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # child-time accumulators of the open spans; [0] is the root
        self._stack: list[list[float]] = [[0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap_call(self, name: str, fn: Callable,
                  counter: Callable | None = None) -> Callable:
        """Time every call of ``fn``; ``counter(args, result)`` adds to ``.count``."""
        st = self.stat(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[0]
            if counter is not None:
                t1 = clock()
                st.count += counter(args, result)
                parent[0] += clock() - t1
            return result

        return traced

    def wrap_gen(self, name: str, fn: Callable) -> Callable:
        """Time every ``next`` step of the iterator ``fn`` returns; count items."""
        st = self.stat(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = iter(fn(*args, **kwargs)).__next__
            frame = [0.0]
            items = 0
            busy = 0.0
            try:
                while True:
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = step()
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        stack[-1][0] += dt
                        busy += dt
                    items += 1
                    yield item
            finally:
                st.calls += 1
                st.items += items
                st.total_s += busy
                st.self_s += busy - frame[0]

        return traced

    def patch(self, owner: object, attr: str, new: object) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) until ``restore``."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# what is traced in qrafts


def _coef_ops(args, result) -> int:
    """Inner-loop trips of a series product, computed from its operands."""
    a, b = args
    coeffs = getattr(a, "coeffs", None)
    if coeffs is None or getattr(b, "coeffs", None) is None:
        return 0
    n = len(coeffs) - 1
    return sum(n - i + 1 for i, c in enumerate(coeffs) if c)


def _moves(args, result) -> int:
    return len(result[-1])


COEF_OPS = ("coef_ops", _coef_ops)
MOVES = ("moves", _moves)

# (home module, attribute, span name, kind, counter); kind "call" or "gen",
# counter (metric suffix, function) or None.  Functions are patched wherever
# a qrafts module binds them.
FUNCTIONS = [
    ("series", "pochhammer", "series.pochhammer", "call", None),
    ("series", "gaussian_binomial", "series.gaussian_binomial", "call", None),
    ("series", "xq_pochhammer", "series.xq_pochhammer", "call", None),
    # iter_distinct_parts delegates to iter_gap_parts, so this covers both
    ("partitions", "iter_gap_parts", "partitions.iter_gap_parts", "gen", None),
    ("partitions", "iter_gap_exact", "partitions.iter_gap_exact", "gen", None),
    ("rafts", "enumerate_minimal", "rafts.enumerate_minimal", "gen", None),
    ("rafts", "enumerate_rafted", "rafts.enumerate_rafted", "gen", None),
    ("rafts", "decompose_with_trace", "rafts.decompose_with_trace", "call", MOVES),
    ("rafts", "compose_with_trace", "rafts.compose_with_trace", "call", MOVES),
    ("identities", "_sweep", "identities.sweep", "call", None),
    ("identities", "first_difference", "identities.first_difference", "call", None),
    ("cli", "main", "cli.main", "call", None),
]

BUILDERS = [
    "slater19_sum", "slater15_sum", "slater15_alt_sum", "minimal_gf", "rafted_gf",
    "no_raft_gf", "rr_product", "qgauss_lhs", "qgauss_rhs", "gauss_step_lhs",
    "gauss_step_rhs", "master_lhs", "master_rhs", "bmn_gf", "staircase_gf",
]
ORACLES = [
    "d_distinct_q", "d_distinct_xq", "minimal_oracle", "signed_designation_oracle",
    "rafted_oracle", "no_kseq_oracle",
]
FUNCTIONS += [("identities", f, f"identities.{f}", "call", None) for f in BUILDERS + ORACLES]

# (class, method names, span name, counter)
METHODS = [
    ("QSeries", ("__mul__", "__rmul__"), "series.QSeries.mul", COEF_OPS),
    ("QSeries", ("inverse",), "series.QSeries.inverse", None),
    ("QSeries", ("__add__", "__sub__", "__neg__", "shifted"), "series.QSeries.linear", None),
    ("XQSeries", ("__mul__", "__rmul__"), "series.XQSeries.mul", None),
    ("XQSeries", ("inverse",), "series.XQSeries.inverse", None),
]

# metric stem -> (home module, lru_cache'd function)
CACHES = {
    "identities.cache.poch": ("identities", "_poch"),
    "identities.cache.inv_poch": ("identities", "_inv_poch"),
    "identities.cache.rr_product": ("identities", "rr_product"),
    "identities.cache.master_lhs": ("identities", "master_lhs"),
    "identities.cache.sweep": ("identities", "_sweep"),
    "series.cache.gauss_coeffs": ("series", "_gauss_coeffs"),
}

# spans whose self time is brute-force enumeration rather than series algebra
ENUMERATION_SPANS = (
    [f"identities.{f}" for f in ORACLES]
    + ["identities.sweep", "partitions.iter_gap_parts", "partitions.iter_gap_exact",
       "rafts.enumerate_minimal"]
)


def _span_metrics() -> dict[str, tuple[str, str, str]]:
    """Per-layer metric name -> (span, Stat field, unit)."""
    out = {}
    specs = [(span, kind, counter) for _, _, span, kind, counter in FUNCTIONS]
    specs += [(span, "call", counter) for _, _, span, counter in METHODS]
    for span, kind, counter in specs:
        work = "items" if kind == "gen" else "calls"
        out[f"{span}.{work}"] = (span, work, "count")
        out[f"{span}.self_s"] = (span, "self_s", "s")
        if counter is not None:
            out[f"{span}.{counter[0]}"] = (span, "count", "count")
    return out


SPAN_METRICS = _span_metrics()
CACHE_METRICS = [f"{stem}.{kind}" for stem in CACHES for kind in ("hits", "misses")]


def layer_metrics(tracer: Tracer, originals: dict[str, object]) -> dict[str, float]:
    """Every span and cache metric, zero where nothing was recorded."""
    out = {}
    for name, (span, field, _) in SPAN_METRICS.items():
        st = tracer.stats.get(span)
        out[name] = getattr(st, field) if st is not None else 0
    for stem, fn in originals.items():
        info = getattr(fn, "cache_info", None)
        hits, misses = (0, 0) if info is None else info()[:2]
        out[f"{stem}.hits"] = hits
        out[f"{stem}.misses"] = misses
    return out


def enumeration_self_s(tracer: Tracer) -> float:
    return sum(tracer.stats[s].self_s for s in ENUMERATION_SPANS if s in tracer.stats)


def _qrafts_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qrafts" or n.startswith("qrafts."))]


def install(tracer: Tracer, check_hook: Callable | None = None) -> dict[str, object]:
    """Patch the spans above into the loaded qrafts modules.

    Names a future version of qrafts no longer has are skipped, and their
    metrics read zero.  Every registry check gets ``check.<name>.lhs`` and
    ``.rhs`` spans; ``check_hook(name, side, series)`` sees each side's result
    outside the timed interval.  Returns the original cached functions by
    metric stem, for ``layer_metrics``.
    """
    import qrafts.identities as identities

    modules = _qrafts_modules()
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    originals = {stem: getattr(home.get(mod_name), attr, None)
                 for stem, (mod_name, attr) in CACHES.items()}
    wrapped: dict[int, object] = {}
    for mod_name, attr, span, kind, counter in FUNCTIONS:
        original = getattr(home.get(mod_name), attr, None)
        if original is None:
            continue
        wrapper = (tracer.wrap_gen(span, original) if kind == "gen"
                   else tracer.wrap_call(span, original, counter and counter[1]))
        wrapped[id(original)] = wrapper
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    tracer.patch(mod, name, wrapper)
    series = home["series"]
    for cls_name, methods, span, counter in METHODS:
        cls = getattr(series, cls_name, None)
        if cls is None:
            continue
        wrappers: dict[int, object] = {}
        for meth in methods:
            original = cls.__dict__.get(meth)
            if original is None:
                continue
            if id(original) not in wrappers:  # __rmul__ = __mul__ shares one
                wrappers[id(original)] = tracer.wrap_call(span, original,
                                                          counter and counter[1])
            tracer.patch(cls, meth, wrappers[id(original)])

    registry = identities.REGISTRY
    for name, check in list(registry.items()):
        sides = {}
        for side in ("lhs", "rhs"):
            fn = getattr(check, side)
            fn = wrapped.get(id(fn), fn)
            sides[side] = tracer.wrap_call(f"check.{name}.{side}", fn,
                                           _hook(check_hook, name, side))
        tracer.patch(registry, name, dataclasses.replace(check, **sides))
    return originals


def _hook(check_hook, name, side):
    if check_hook is None:
        return None

    def counter(args, result):
        check_hook(name, side, result)
        return 0

    return counter
