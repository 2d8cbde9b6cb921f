#!/usr/bin/env python3
"""Time the certifier on five fixed families: microseconds per `verify`
call, ordered pairs of distinct positions tallied per second, and the
process's peak RSS after each family (VmHWM in /proc/self/status, n/a
where there is none).

The families are an order-16 search leaf (the first (16,6,2) difference
set in Z4 x Z4, one block), the single-completion final families of the
u=1, m=499 expansion, the order-32, m=71 expansion and the u=2, m=41
expansion, and the Paley q=6007 doubled complement (one block of 6008
positions, 36M pairs).  Each figure is the best of --repeats timed rounds
of enough calls to fill about --round-s seconds.  verify keeps a family's
tally on the family object, so each call verifies its own new
DesignFamily over the same blocks, built before the round's timer starts.

    PYTHONPATH=src python3 scripts/verify_rate.py
"""

import sys
from time import perf_counter

from pdfam.cli import Parser, UsageError, peak_rss_mb, run_guarded
from pdfam.constructions import (expand_from_hds, expand_nonabelian32,
                                 hadamard_pdf_from_hds, paley_double_sdf)
from pdfam.multisets import DesignFamily, make_family, verify


def families():
    hds = hadamard_pdf_from_hds(2).family
    yield "order-16 search leaf", make_family(hds.group, [hds.blocks[0]])
    yield "u=1, m=499 final", expand_from_hds(1, 499)[0].family
    yield "order-32, m=71 final", expand_nonabelian32(71)[0].family
    yield "u=2, m=41 final", expand_from_hds(2, 41)[0].family
    yield "Paley q=6007", paley_double_sdf(6007).family


def copies(family, n: int) -> list:
    """n new family objects over family's blocks, none yet tallied."""
    return [DesignFamily(family.group, family.blocks, family.forbidden,
                         family.convention) for _ in range(n)]


def best_call_s(family, repeats: int, round_s: float) -> float:
    (first,) = copies(family, 1)
    start = perf_counter()
    verify(first)
    calls = max(1, int(round_s / max(perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(repeats):
        fresh = copies(family, calls)
        start = perf_counter()
        while fresh:  # each copy and its tally are freed as they are timed
            verify(fresh.pop())
        best = min(best, (perf_counter() - start) / calls)
    return best


def main(argv=None):
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--round-s", type=float, default=0.2)
    args = ap.parse_args(argv)
    if args.repeats < 1:  # no timed round would leave every figure inf
        raise UsageError(f"--repeats {args.repeats} is not >= 1")
    print(f"{'family':<22} {'v':>6} {'pairs':>8} {'us/call':>10} "
          f"{'pairs/s':>10} {'peak MB':>8}")
    for name, family in families():
        pairs = sum(b.size * (b.size - 1) for b in family.blocks)
        call_s = best_call_s(family, args.repeats, args.round_s)
        print(f"{name:<22} {family.group.order:>6} {pairs:>8} "
              f"{call_s * 1e6:>10.1f} {pairs / call_s:>10.3g} "
              f"{peak_rss_mb():>8}")


if __name__ == "__main__":
    sys.exit(run_guarded(main))
