"""Reference transfer-matrix walk, with one count list per state.

The library's ``identities._walk`` packs each state's counts by weight into
one int and steps it by big-int shifts and adds.  This module keeps the list
form it replaced: every state holds a list of counts for weights 0..n, and a
letter adds that list into each next state's list, shifted by the letter's
weight.  It shares no arithmetic with the library and has no bound on the
moves, so the tests judge the packed walk, its width and its slot masks
against it.
"""


def reference_walk(n: int, start, step) -> dict:
    """Count the 0/1 words over positions 1..n by final state and weight.

    Same contract as ``identities._walk``, but returns each final state's
    counts as a list for weights 0..n.
    """
    layer = {start: [1] + [0] * n}
    for p in range(1, n + 2):
        nxt: dict = {}
        for state, counts in layer.items():
            for taken in (False, True) if p <= n else (False,):
                for new in step(state, taken):
                    buf = nxt.setdefault(new, [0] * (n + 1))
                    lo = p if taken else 0
                    buf[lo:] = [a + c for a, c in zip(buf[lo:], counts)]
        layer = {s: c for s, c in nxt.items() if any(c)}
    return layer
