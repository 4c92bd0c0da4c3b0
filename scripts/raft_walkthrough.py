#!/usr/bin/env python3
"""Walk through the raft machinery on one example, then show a small census.

Usage:
    python scripts/raft_walkthrough.py
    python scripts/raft_walkthrough.py "2,[3,4],6,7,8"
"""

import sys

from qrafts.identities import minimal_gf, rafted_gf
from qrafts.rafts import (
    RaftedPartition,
    compose_with_trace,
    decompose_with_trace,
    enumerate_minimal,
    minimal_profile,
)


def main() -> int:
    text = sys.argv[1] if len(sys.argv) > 1 else "1,[2,3],5,7,[8,9]"
    rp = RaftedPartition.parse(text)
    # (first, last) of each maximal block of consecutive parts; the top pair
    # of each block of two or more is an eligible raft
    runs = []
    for p in rp.partition.parts:
        if runs and runs[-1][1] == p - 1:
            runs[-1] = (runs[-1][0], p)
        else:
            runs.append((p, p))
    print(f"partition      {rp}  (weight {rp.weight})")
    print(f"runs           {runs}")
    print(f"eligible rafts {tuple(last - 1 for first, last in runs if last > first)}")
    print(f"designated     {rp.rafts}")
    print()

    print("single moves available now:")
    for k in rp.rafts:
        if rp.can_forward(k):
            print(f"  forward({k})   -> {rp.forward(k)}")
        if rp.can_backward(k):
            print(f"  backward({k})  -> {rp.backward(k)}")
    print()

    beta, eta, moves = decompose_with_trace(rp)
    print("decomposition (drain each raft down, smallest raft first):")
    for before, raft, after in moves:
        print(f"  {before}  --bwd(raft={raft})-->  {after}")
    print(f"  beta = {beta}   eta = {tuple(eta.parts)}")
    if beta.rafts:  # a profile needs at least one raft
        prof = minimal_profile(beta)
        # mu_j = r_{k-j} + 2 - 3(k-j): the offsets of the k-1 missing parts
        # against the tightest staircase 3, 6, ..., 3(k-1), largest first
        r = prof.raft_positions
        mu = tuple(r[-1 - j] + 2 - 3 * (len(r) - j) for j in range(1, len(r)))
        print(f"  profile: rafts at {r}, mu = {mu}, tail = {prof.tail}")
    rebuilt, _ = compose_with_trace(beta, eta)
    print(f"  replaying eta forward recovers the input: {rebuilt == rp}")
    print()

    print("minimal configurations by raft count (weights of the first few):")
    for k in (1, 2, 3):
        firsts = []
        for m in enumerate_minimal(k, 40):
            firsts.append(m.weight)
            if len(firsts) == 8:
                break
        print(f"  k={k}: {firsts}")
    print()

    print("series heads (coefficients of q^0..q^20):")
    for k in (1, 2):
        print(f"  minimal, k={k}: {list(minimal_gf(k, 20).coeffs)}")
        print(f"  all,     k={k}: {list(rafted_gf(k, 20).coeffs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
