"""Backtracking searchers: small Hadamard difference sets and maximum
unit-sets with all pairwise plus/minus differences invertible."""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from numbers import Real
from operator import add

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup, _field, _instance,
                     _int_field, _is_int)
from .multisets import (CHUNK_CELLS, DS, VerificationReport, _family, _keep,
                        _row_tallies, verify)
from .rings import Ring


class OrderMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    """Stop after max_results >= 1 hits or time_budget_s >= 0 seconds."""

    max_results: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        _field(vars(self), "max_results", lambda n: n is None or _is_int(n),
               "an integer")
        _field(vars(self), "time_budget_s", lambda t: t is None or isinstance(
            t, Real) and not isinstance(t, bool), "a real number")
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
    """(v, k, lambda) = (4u^2, 2u^2-u, u^2-u) for a positive integer u."""
    u = _int_field({"u": u}, "u")
    if u < 1:
        raise ValueError("u must be positive")
    return 4 * u * u, 2 * u * u - u, u * u - u


def _least_translate(diff: list[list[int]], back: list[list[int]],
                     d: tuple[int, ...], d1: int) -> bool:
    """True when the sorted leaf d is the least of its identity-containing
    translates {e - x : e in d}, x in d, read from diff[e][x] = e - x.

    These are the translates under the table's own convention, which
    preserve its differences.  A leaf has no non-identity difference below
    d1, its least non-identity element, so only the translates holding d1
    (back[x][d1], the e with diff[e][x] = d1, in d) can sort below d.
    """
    ident = diff[d1][d1]  # x - x, for any x
    for x in d:
        if (x != ident and back[x][d1] in d
                and tuple(sorted(diff[e][x] for e in d)) < d):
            return False
    return True


def search_hds(group: FiniteGroup, u: int,
               bounds: SearchBounds = SearchBounds(),
               convention: DiffConvention = DEFAULT_CONVENTION
               ) -> HdsSearchResult:
    """All translation-normalized (4u^2, 2u^2-u, u^2-u) difference sets.

    Depth-first from the identity e0 over the other elements in ascending
    index order, pruning as soon as any non-identity difference count
    exceeds lambda = u^2-u.  Hits are returned sorted, each re-certified by
    the verifier, with its report.  Canonical leaves wait in a stack that is
    tallied in one pass (multisets._row_tallies) when max_results would be
    reached with it, when its pairs would pass CHUNK_CELLS with one more
    leaf, and after the walk; each row is then kept on its leaf's one-block
    family and judged by one verify call, in walk order.  A leaf the
    verifier refuses is not a hit, and the walk goes on.

    Only canonical sets (the least of their identity-containing translates,
    _least_translate) are kept, and the walk prunes the rest early: with
    d1 = min(D - {e0}), chosen at depth 1, a canonical D has no
    non-identity difference g = diff[e][x] below d1, for then D - x < D
    (if e0 < g, sorted(D - x) has a second entry <= g < d1 where sorted(D)
    starts (e0, d1); else min(D - x) <= g < min(D)).  So choosing d1 adds
    lambda to the count of every label below d1 but e0, and a difference
    landing there then exceeds lambda like any other.

    The counts are packed into one int, a width-bit field per element
    starting at 2^(width-1) - 1 - lambda, so a count above lambda sets its
    top bit; each walk position carries the packed differences its element
    would add, so a candidate costs one add and one mask.  A candidate adds
    at most 2 to a count (e - d = g and d - e = g each have one solution
    d) that is at most lambda, floor included, so 2^(width-1) >= max(lambda
    + 1, 2) keeps every field below 2^width.  Each depth-1 candidate's floor
    rides in the list it is tested from, apart from its subtree's list.
    """
    _instance(group, FiniteGroup, "group", "a group")
    _instance(bounds, SearchBounds, "bounds", "a SearchBounds")
    v, k, lam = hds_parameters(u)
    if group.order != v:
        raise OrderMismatchError(
            f"group order {group.order} != 4u^2 = {v}")
    started = time.monotonic()
    deadline = (started + bounds.time_budget_s
                if bounds.time_budget_s is not None else None)
    idx = np.arange(v)
    table = group.difference(idx[:, None], idx[None, :], convention)
    back = np.empty_like(table)  # back[x][g]: the e with diff[e][x] = g
    back[idx[None, :], table] = idx[:, None]
    diff, back = table.tolist(), back.tolist()
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
    leaf_offsets = np.array([0, k])
    results: list[tuple[int, ...]] = []
    reports: list[VerificationReport] = []
    pending: list[tuple[int, ...]] = []
    nodes = 0
    truncated = False

    def certify() -> None:
        """Certify the pending leaves, in walk order: one stacked tally,
        each row kept on its leaf's one-block family and judged by verify."""
        if not pending:
            return
        # the walk's indices are in range, distinct and sorted: each block
        # is laid out directly, without make_family's input checks
        stack = np.array(pending, dtype=np.int64)
        counts, cover = _row_tallies(group, stack, convention)
        for d, x, delta, covered in zip(pending, stack, counts, cover):
            fam = _family(group, x, leaf_offsets, None, convention)
            _keep(fam, delta, covered, (k,))
            rep = verify(fam)
            if (rep.kind == DS and rep.h == 1 and rep.v == v
                    and rep.lambda_or_mu == lam):
                results.append(d)
                reports.append(rep)
        pending.clear()

    def emit() -> bool:
        d = tuple(sorted(chosen))
        # a one-element set is its only translate
        if k > 1 and not _least_translate(diff, back, d, chosen[1]):
            return True
        pending.append(d)
        if (bounds.max_results is not None
                and len(results) + len(pending) >= bounds.max_results):
            certify()
            return len(results) < bounds.max_results
        # the stack's pairs stay within max(CHUNK_CELLS, k * k)
        if (len(pending) + 1) * k * k > CHUNK_CELLS:
            certify()
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
    certify()
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
    _instance(ring, Ring, "ring", "a ring")
    _instance(bounds, SearchBounds, "bounds", "a SearchBounds")
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
