#!/usr/bin/env python3
"""Exhaustive (4u^2, 2u^2-u, u^2-u) difference-set search, over the abelian
groups of order 16 by default (u = 2; any other u needs --group); each
group's line gives its search nodes and nodes per second.

    PYTHONPATH=src python3 scripts/hds_landscape.py
    PYTHONPATH=src python3 scripts/hds_landscape.py --u 3 --group Z6xZ6 --max-results 1
"""

import sys

from pdfam.cli import Parser, UsageError, parse_group_spec, run_guarded
from pdfam.search import (SearchBounds, abelian_groups_order16,
                          hds_parameters, search_hds)


def sweep_group(name, group, u, bounds):
    res = search_hds(group, u, bounds)
    tag = "complete" if res.complete else "truncated"
    rate = res.nodes / res.elapsed if res.elapsed else 0.0
    print(f"{name:16s} {len(res.results):4d} normalized sets "
          f"({tag}, {res.nodes} nodes, {res.elapsed:.2f}s, "
          f"{rate:,.0f} nodes/s)")
    for d in res.results[:3]:
        print(f"    {d}")
    if len(res.results) > 3:
        print(f"    ... {len(res.results) - 3} more")


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("--u", type=int, default=2)
    ap.add_argument("--group", default=None,
                    help="single group spec, e.g. Z4xZ4 (default: all "
                         "abelian groups of order 16)")
    ap.add_argument("--max-results", type=int, default=None)
    ap.add_argument("--time-budget", type=float, default=None)
    args = ap.parse_args(argv)
    if args.group is None and args.u != 2:
        raise UsageError(f"--u {args.u} needs --group: the default sweep "
                         "covers only the abelian groups of order 16 (u = 2)")
    groups = ([(args.group, parse_group_spec(args.group))] if args.group
              else abelian_groups_order16())
    v, k, lam = hds_parameters(args.u)
    bounds = SearchBounds(max_results=args.max_results,
                          time_budget_s=args.time_budget)
    print(f"target parameters: ({v}, {k}, {lam})")
    for name, g in groups:
        sweep_group(name, g, args.u, bounds)


if __name__ == "__main__":
    sys.exit(run_guarded(main))
