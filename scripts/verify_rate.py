#!/usr/bin/env python3
"""Time the certifier and the family decoder on five fixed families:
microseconds per `verify` call (median and quartiles over the timed
rounds), ordered pairs of distinct positions tallied per second at the
median, microseconds per `family_from_json` of the family's JSON (median),
and the process's peak RSS after each family (VmHWM in /proc/self/status,
n/a where there is none).

The families are an order-16 search leaf (the first (16,6,2) difference
set in Z4 x Z4, one block), the single-completion final families of the
u=1, m=499 expansion, the order-32, m=71 expansion and the u=2, m=41
expansion, and the Paley q=6007 doubled complement (one block of 6008
positions, 36M pairs).  The leaf's row is a standalone one-block verify,
tally and judge; search_hds no longer pays it per hit, since it tallies
its hits as one stack and each hit's verify only judges.  Each figure is
taken over --repeats timed rounds of enough calls to fill about --round-s
seconds; on a shared host single rounds vary by tens of percent, so
compare medians, and the quartiles show the spread.  verify keeps a
family's tally on the family object, so each call verifies its own new
family over the same flat positions and offsets, built before the round's
timer starts.

    PYTHONPATH=src python3 scripts/verify_rate.py
"""

import sys
from time import perf_counter

import numpy as np

from pdfam.cli import Parser, UsageError, peak_rss_mb, run_guarded
from pdfam.constructions import (expand_from_hds, expand_nonabelian32,
                                 hadamard_pdf_from_hds, paley_double_sdf)
from pdfam.multisets import _family, verify
from pdfam.serialize import family_from_json, family_to_json


def families():
    hds = hadamard_pdf_from_hds(2).family
    leaf = hds.positions[hds.offsets[0]:hds.offsets[1]]
    yield "order-16 search leaf", _family(hds.group, leaf,
                                          np.array([0, len(leaf)]))
    yield "u=1, m=499 final", expand_from_hds(1, 499)[0].family
    yield "order-32, m=71 final", expand_nonabelian32(71)[0].family
    yield "u=2, m=41 final", expand_from_hds(2, 41)[0].family
    yield "Paley q=6007", paley_double_sdf(6007).family


def copies(family, n: int) -> list:
    """n new family objects over family's flat layout, none yet tallied."""
    return [_family(family.group, family.positions, family.offsets,
                    family.forbidden, family.convention) for _ in range(n)]


def round_call_s(run, make, repeats: int, round_s: float) -> np.ndarray:
    """Seconds per call of run over each of repeats rounds; make(n) builds
    the n arguments of a round before its timer starts."""
    (first,) = make(1)
    start = perf_counter()
    run(first)
    calls = max(1, int(round_s / max(perf_counter() - start, 1e-7)))
    rounds = []
    for _ in range(repeats):
        fresh = make(calls)
        start = perf_counter()
        while fresh:  # each argument and its result are freed as timed
            run(fresh.pop())
        rounds.append((perf_counter() - start) / calls)
    return np.array(rounds)


def main(argv=None):
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--round-s", type=float, default=0.2)
    args = ap.parse_args(argv)
    if args.repeats < 1:  # no timed round would leave every figure empty
        raise UsageError(f"--repeats {args.repeats} is not >= 1")
    print(f"{'family':<22} {'v':>6} {'pairs':>8} {'us/call':>9} "
          f"{'q1':>9} {'q3':>9} {'pairs/s':>10} {'decode us':>9} "
          f"{'peak MB':>8}")
    for name, family in families():
        sizes = np.diff(family.offsets)
        pairs = int((sizes * (sizes - 1)).sum())
        q1, call_s, q3 = np.percentile(round_call_s(
            verify, lambda n: copies(family, n), args.repeats,
            args.round_s), [25, 50, 75])
        doc = family_to_json(family)
        decode_s = np.median(round_call_s(
            family_from_json, lambda n: [doc] * n, args.repeats,
            args.round_s))
        print(f"{name:<22} {family.group.order:>6} {pairs:>8} "
              f"{call_s * 1e6:>9.1f} {q1 * 1e6:>9.1f} {q3 * 1e6:>9.1f} "
              f"{pairs / call_s:>10.3g} {decode_s * 1e6:>9.1f} "
              f"{peak_rss_mb():>8}")


if __name__ == "__main__":
    sys.exit(run_guarded(main))
