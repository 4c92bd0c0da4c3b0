"""A fixed pure-Python job that times the host, not qrafts.

    python3 perfbench/reference.py      # prints "ready", then seconds taken

On a shared VM the host's speed can drift by tens of percent over minutes.
The harness runs this job in its own process before and after every pass,
and scales the pass's times by the job's, which cancels most of the drift
they share.  The job mixes what qrafts spends its time on: big-integer
convolution over tuples, a recursive generator of distinct-part tuples, and
a sorted list of small objects built from them, as the enumerators build
theirs.  It imports nothing from qrafts, so no change to the program can
move it.
"""

import time


def _convolve(a: tuple, b: tuple, n: int) -> tuple:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i + 1):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def _distinct(budget: int, low: int, prefix: list):
    yield tuple(prefix)
    p = low
    while p <= budget:
        prefix.append(p)
        yield from _distinct(budget - p, p + 1, prefix)
        prefix.pop()
        p += 1


class _Item:
    __slots__ = ("parts", "marks")

    def __init__(self, parts: tuple, marks: tuple) -> None:
        self.parts = parts
        self.marks = marks


def job() -> int:
    n = 120
    a = tuple((i * 7919) % 1009 - 500 for i in range(n + 1))
    acc = (1,) + (0,) * n
    for _ in range(8):
        acc = _convolve(acc, a, n)
    items = []
    for parts in _distinct(56, 1, []):
        present = set(parts)
        items.append(_Item(parts, tuple(p for p in parts if p + 1 in present)))
    items.sort(key=lambda it: (sum(it.parts), it.parts))
    return len(items) + acc[7] % 1000


if __name__ == "__main__":
    print("ready", flush=True)
    t0 = time.perf_counter()
    job()
    print(time.perf_counter() - t0)
