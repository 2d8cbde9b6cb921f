#!/usr/bin/env python3
"""Expand a Hadamard PDF by every admissible odd modulus in a range,
certifying both completions of each result; each modulus's line ends with
its elapsed seconds and the process's peak RSS so far (VmHWM in
/proc/self/status, n/a where there is none).

The base is the complement pair of a searched (4u^2, 2u^2-u, u^2-u)
difference set (--base hds, the default, with --u 1 by default), or the
order-32 family (--base order32, which refuses --u).  A modulus with a
maximal prime power divisor too small for the base is reported as skipped.

    PYTHONPATH=src python3 scripts/expansion_sweep.py --u 1 --max-m 100
    PYTHONPATH=src python3 scripts/expansion_sweep.py --base order32 --max-m 99
"""

import sys
from time import perf_counter

from pdfam.cli import Parser, peak_rss_mb, run_guarded
from pdfam.constructions import (COMPLETIONS, DivisorTooSmallError,
                                 expand_from_hds, expand_nonabelian32)


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("--base", choices=["hds", "order32"], default="hds")
    ap.add_argument("--u", type=int, default=None,
                    help="the difference set's u, for --base hds (default 1)")
    ap.add_argument("--max-m", type=int, default=100)
    args = ap.parse_args(argv)
    if args.base == "order32" and args.u is not None:
        ap.error("--u applies only to --base hds")

    total = 0
    t0 = perf_counter()
    for m in range(3, args.max_m + 1, 2):
        t_m = perf_counter()
        try:
            pair = (expand_nonabelian32(m) if args.base == "order32"
                    else expand_from_hds(1 if args.u is None else args.u, m))
        except DivisorTooSmallError as exc:
            print(f"m={m:3d}  skipped: {exc}")
            continue
        total += 1
        cells = []
        for completion, res in zip(COMPLETIONS, pair):
            rep = res.report
            cells.append(f"{completion}: "
                         + ("certified" if res.certified
                            else f"INVALID at {rep.witness}"))
        print(f"m={m:3d}  v={pair[0].report.v:4d}  " + "  |  ".join(cells)
              + f"  ({perf_counter() - t_m:.2f}s, "
              f"{peak_rss_mb()} MB)")
    print(f"{total} moduli expanded in {perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    sys.exit(run_guarded(main))
