"""Backtracking searchers: small Hadamard difference sets and maximum
unit-sets with all pairwise plus/minus differences invertible."""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from operator import add

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup)
from .multisets import (DS, DesignFamily, VerificationReport, _blocks_of,
                        verify)
from .rings import Ring


class OrderMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    """Stop after max_results >= 1 hits or time_budget_s >= 0 seconds."""

    max_results: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        if self.max_results is not None and self.max_results < 1:
            raise ValueError(f"max results {self.max_results} is not >= 1")
        if self.time_budget_s is not None and not self.time_budget_s >= 0:
            raise ValueError(f"time budget {self.time_budget_s} is not >= 0")


@dataclass(frozen=True)
class HdsSearchResult:
    results: tuple[tuple[int, ...], ...]
    complete: bool
    nodes: int
    elapsed: float
    # reports[i]: the verifier's report on results[i] as a one-block family
    reports: tuple[VerificationReport, ...]


def hds_parameters(u: int) -> tuple[int, int, int]:
    """(v, k, lambda) = (4u^2, 2u^2-u, u^2-u) for a positive u."""
    if u < 1:
        raise ValueError("u must be positive")
    return 4 * u * u, 2 * u * u - u, u * u - u


def _canonical_translate(diff: list[list[int]], d: tuple[int, ...]) -> bool:
    """True when the sorted set d is the least of its identity-containing
    translates {e - x : e in d}, x in d, read from diff[e][x] = e - x.

    Under the right convention these are the right translates d + (-x),
    under the left one the left translates (-x) + d, and each preserves the
    differences of its own convention, so a table of either convention's
    differences normalizes under that convention.  The translate by the
    identity is d itself under either convention, never smaller, so it is
    skipped.
    """
    ident = diff[d[0]][d[0]]  # x - x, for any x
    for x in d:
        if x != ident and tuple(sorted(diff[e][x] for e in d)) < d:
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
    the verifier before being returned, with its report.

    The walk also prunes every set that cannot be canonical (the least of
    its identity-containing translates, as `_canonical_translate` tests
    at the leaf).  Let e0 be the identity and d1 = min(D - {e0}), the
    element chosen at depth 1.  A canonical D has no non-identity
    difference g = diff[e][x] below d1, for g lies in the translate D - x:
    if e0 < g, sorted(D - x) has a second entry <= g < d1 where sorted(D)
    starts (e0, d1); if g < e0, min(D - x) <= g < min(e0, d1) = min(D);
    either way D - x < D.  So choosing d1 puts a floor under the counts:
    it adds lambda to the count of every label below d1 other than e0, and
    a difference landing there then exceeds lambda like any other.

    The difference counts are packed into one int, a ``width``-bit field
    per element, each starting at 2^(width-1) - 1 - lambda so that a count
    above lambda sets the field's top bit.  Every walk position carries
    the packed differences its element would add to the chosen set, so a
    candidate is tested with one add and one mask and nothing is undone.
    Before a candidate is added every count is at most lambda, and a
    candidate e adds at most 2 to the count of g (e - d = g and d - e = g
    each have one solution d), so 2^(width-1) >= max(lambda + 1, 2) keeps
    every field below 2^width: no field carries into the next.  The floor
    leaves a field at 2^(width-1) - 1 at most in any set that passed the
    test, so the next candidate still lifts it to 2^(width-1) + 1 at most.
    Each depth-1 candidate carries its own floor in the list it is tested
    from, beside a floor-free list its subtree builds on, so deeper nodes
    do no extra work.
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
    width = max(lam, 1).bit_length() + 1
    unit = [1 << (width * g) for g in range(v)]
    ones = sum(unit)
    top = ones << (width - 1)
    bias = ones * ((1 << (width - 1)) - 1 - lam)
    # pair[e][j]: the packed differences e and walk[j] make with each other
    pair = [[unit[diff[e][d]] + unit[diff[d][e]] for d in walk]
            for e in range(v)]
    # floor[j]: lambda at every label below walk[j + 1] but the identity,
    # which are walk[1:j + 1] since the walk ascends after the identity
    floor = list(accumulate((lam * unit[x] for x in walk[1:-1]), initial=0))
    chosen = [group.identity]
    results: list[tuple[int, ...]] = []
    reports: list[VerificationReport] = []
    nodes = 0
    truncated = False

    def emit() -> bool:
        d = tuple(sorted(chosen))
        if not _canonical_translate(diff, d):
            return True
        # the walk's indices are in range, distinct and now sorted: the
        # block is laid out directly, without make_family's input checks
        block = _blocks_of(group, np.array(d, dtype=np.int64), [k])
        rep = verify(DesignFamily(group, tuple(block), None, convention))
        if (rep.kind == DS and rep.h == 1 and rep.v == v
                and rep.lambda_or_mu == lam):
            results.append(d)
            reports.append(rep)
            if (bounds.max_results is not None
                    and len(results) >= bounds.max_results):
                return False
        return True

    def extend(start: int, counts: int, adds: list[int],
               base: list[int]) -> bool:
        """counts: the chosen set's packed difference counts; adds[j]:
        those walk[start + j] would add to them, with its floor at depth
        1; base[j]: the same without the floor, for its subtree."""
        nonlocal nodes, truncated
        if len(chosen) == k:
            return emit()
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            return False
        for i, more in zip(range(start, v - (k - len(chosen)) + 1), adds):
            nodes += 1
            grown = counts + more
            if grown & top:
                continue
            e = walk[i]
            chosen.append(e)
            below = list(map(add, base[i + 1 - start:], pair[e][i + 1:]))
            ok = extend(i + 1, grown, below, below)
            chosen.pop()
            if not ok:
                return False
        return True

    first = pair[group.identity][1:]
    exhausted = extend(1, bias, list(map(add, first, floor)), first)
    complete = exhausted and not truncated
    return HdsSearchResult(tuple(results), complete, nodes,
                           time.monotonic() - started, tuple(reports))


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
    Each chosen y narrows the candidates with one array test.
    """
    started = time.monotonic()
    deadline = (started + bounds.time_budget_s
                if bounds.time_budget_s is not None else None)
    h = np.arange(ring.order)
    units = h[ring.is_unit(h) & ring.is_unit(ring.add(h, h))]
    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    truncated = False

    def extend(start: int, fits: np.ndarray) -> bool:
        """fits[i]: units[i] - y and units[i] + y are units for every
        chosen y."""
        nonlocal nodes, truncated, best
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            return False
        for i in range(start, len(units)):
            nodes += 1
            if not fits[i]:
                continue
            u = units[i]
            chosen.append(int(u))
            if len(chosen) > len(best):
                best = list(chosen)
            ok = extend(i + 1, fits & ring.is_unit(ring.sub(units, u))
                        & ring.is_unit(ring.add(units, u)))
            chosen.pop()
            if not ok:
                return False
        return True

    exhausted = extend(0, np.ones(len(units), dtype=bool))
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
