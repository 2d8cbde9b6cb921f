"""Backtracking searchers: small Hadamard difference sets and maximum
unit-sets with all pairwise plus/minus differences invertible."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup)
from .multisets import DS, make_family, verify
from .rings import Ring


class OrderMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    max_results: int | None = None
    time_budget_s: float | None = None


@dataclass(frozen=True)
class HdsSearchResult:
    results: tuple[tuple[int, ...], ...]
    complete: bool
    nodes: int
    elapsed: float


def hds_parameters(u: int) -> tuple[int, int, int]:
    return 4 * u * u, 2 * u * u - u, u * u - u


def _canonical_translate(diff: list[list[int]], d: tuple[int, ...]) -> bool:
    """True when the sorted set d is the least of its identity-containing
    right translates d + (-x), x in d, read from diff[e][x] = e + (-x).

    Right translates preserve right differences; given the table of the
    group that for_convention() returns, this normalizes under either
    convention.
    """
    for x in d:
        if tuple(sorted(diff[e][x] for e in d)) < d:
            return False
    return True


def search_hds(group: FiniteGroup, u: int,
               bounds: SearchBounds = SearchBounds(),
               convention: DiffConvention = DEFAULT_CONVENTION
               ) -> HdsSearchResult:
    """All translation-normalized (4u^2, 2u^2-u, u^2-u) difference sets.

    Depth-first from the identity over the other elements in ascending
    index order, pruning as soon as any non-identity difference count
    exceeds u^2-u.  Hits are returned sorted; every hit is re-certified by
    the verifier before being returned.
    """
    v, k, lam = hds_parameters(u)
    if group.order != v:
        raise OrderMismatchError(
            f"group order {group.order} != 4u^2 = {v}")
    started = time.monotonic()
    deadline = (started + bounds.time_budget_s
                if bounds.time_budget_s is not None else None)
    idx = np.arange(v)
    diff = group.difference(idx[:, None], idx[None, :], convention).tolist()
    walk = [group.identity] + [x for x in range(v) if x != group.identity]
    counts = [0] * v
    chosen = [group.identity]
    results: list[tuple[int, ...]] = []
    nodes = 0
    truncated = False

    def diffs_with(e: int) -> list[int]:
        out = []
        for d in chosen:
            out.append(diff[e][d])
            out.append(diff[d][e])
        return out

    def emit() -> bool:
        d = tuple(sorted(chosen))
        if not _canonical_translate(diff, d):
            return True
        rep = verify(make_family(group, [list(d)]), convention)
        if (rep.kind == DS and rep.h == 1 and rep.v == v
                and rep.lambda_or_mu == lam):
            results.append(d)
            if (bounds.max_results is not None
                    and len(results) >= bounds.max_results):
                return False
        return True

    def extend(start: int) -> bool:
        nonlocal nodes, truncated
        if len(chosen) == k:
            return emit()
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            return False
        for i in range(start, v - (k - len(chosen)) + 1):
            e = walk[i]
            nodes += 1
            new = diffs_with(e)
            bad_at = len(new)
            for j, g in enumerate(new):
                counts[g] += 1
                if counts[g] > lam:
                    bad_at = j + 1
                    break
            if bad_at == len(new):
                chosen.append(e)
                ok = extend(i + 1)
                chosen.pop()
            else:
                ok = True
            for g in new[:bad_at]:
                counts[g] -= 1
            if not ok:
                return False
        return True

    if k == 0:
        exhausted = True  # no sets of size zero contain the identity
    elif k == 1:
        exhausted = emit()
    else:
        exhausted = extend(1)
    complete = exhausted and not truncated
    return HdsSearchResult(tuple(results), complete, nodes,
                           time.monotonic() - started)


@dataclass(frozen=True)
class YSearchResult:
    max_size: int
    witness: tuple[int, ...]
    exhaustive: bool
    nodes: int
    elapsed: float


def max_unit_y_search(ring: Ring,
                      bounds: SearchBounds = SearchBounds()
                      ) -> YSearchResult:
    """Largest unit set Y with every difference over Y union -Y a unit.

    Backtracks over units in ascending canonical order; a candidate u may
    join Y only if 2u is a unit and u-y, u+y are units for every y already
    chosen, which is exactly the incremental form of the full condition.
    """
    started = time.monotonic()
    deadline = (started + bounds.time_budget_s
                if bounds.time_budget_s is not None else None)
    units = [e for e in ring.units() if ring.is_unit(ring.add(e, e))]
    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    truncated = False

    def compatible(u: int) -> bool:
        for y in chosen:
            if not (ring.is_unit(ring.sub(u, y))
                    and ring.is_unit(ring.add(u, y))):
                return False
        return True

    def extend(start: int) -> bool:
        nonlocal nodes, truncated, best
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            return False
        for i in range(start, len(units)):
            nodes += 1
            u = units[i]
            if not compatible(u):
                continue
            chosen.append(u)
            if len(chosen) > len(best):
                best = list(chosen)
            ok = extend(i + 1)
            chosen.pop()
            if not ok:
                return False
        return True

    exhausted = extend(0)
    return YSearchResult(len(best), tuple(best),
                         exhausted and not truncated, nodes,
                         time.monotonic() - started)


def abelian_groups_order16() -> list[tuple[str, FiniteGroup]]:
    """The five abelian groups of order 16, named, in sweep order."""
    return [
        ("Z16", CyclicGroup(16)),
        ("Z2xZ8", ProductGroup([CyclicGroup(2), CyclicGroup(8)])),
        ("Z4xZ4", ProductGroup([CyclicGroup(4), CyclicGroup(4)])),
        ("Z2xZ2xZ4", ProductGroup([CyclicGroup(2), CyclicGroup(2),
                                   CyclicGroup(4)])),
        ("Z2xZ2xZ2xZ2", ProductGroup([CyclicGroup(2)] * 4)),
    ]
