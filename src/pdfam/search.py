"""Backtracking searchers: small Hadamard difference sets and maximum
unit-sets with all pairwise plus/minus differences invertible."""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup, _field, _instance,
                     _int_field, _is_int)
from .multisets import DS, VerificationReport, _row_reports
from .rings import Ring


class OrderMismatchError(ValueError):
    pass


# counts per block of the HDS search's frontier chunks, of max(1,
# FRONTIER_CELLS // v^2) rows each: 512 at order 36; see search_hds
FRONTIER_CELLS = 512 * 36 * 36


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


def _least_translates(table: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Which rows of the (n, k) array of sorted leaves D are the least of
    their identity-containing translates D - x, x in D (table[e, x] = e -
    x): one gather gives every translate, sorted, and one sorts below its
    leaf when it is the smaller at their first differing entry."""
    shifted = np.sort(table[leaves[:, None, :], leaves[:, :, None]], 2)
    first = (shifted != leaves[:, None, :]).argmax(2)
    below = (np.take_along_axis(shifted, first[..., None], 2)[..., 0]
             < np.take_along_axis(leaves, first, 1))
    return ~below.any(1)


def search_hds(group: FiniteGroup, u: int,
               bounds: SearchBounds = SearchBounds(),
               convention: DiffConvention = DEFAULT_CONVENTION
               ) -> HdsSearchResult:
    """All translation-normalized (4u^2, 2u^2-u, u^2-u) difference sets.

    Depth-first from the identity e0 over the other elements in ascending
    index order, pruning as soon as any non-identity difference count
    exceeds lambda = u^2-u.  Hits are returned sorted, each re-certified by
    the verifier, with its report.  A leaf the verifier refuses is not a
    hit, and the walk goes on.

    Only canonical sets (the least of their identity-containing translates
    D - x, x in D) are kept, and the walk prunes the rest early: with
    d1 = min(D - {e0}), chosen at depth 1, a canonical D has no
    non-identity difference g = e - x below d1, for then D - x < D
    (if e0 < g, sorted(D - x) has a second entry <= g < d1 where sorted(D)
    starts (e0, d1); else min(D - x) <= g < min(D)).  So choosing d1 adds
    lambda to the count of every label below d1 but e0, and a difference
    landing there then exceeds lambda like any other.

    The walk is a preorder stack of frontier chunks of at most R =
    max(1, FRONTIER_CELLS // v^2) rows, each row a partial set: its walk
    positions, its difference counts (the floor included from depth 1 on),
    kept by walk position, and how many of the tests made so far come
    after it in preorder.  A row's parent, in the chunk it came from, has
    a v x v block of the counts each walk position would add to its set.
    Popping a chunk tests every candidate of every row at once: new =
    counts + block[candidate] + pair[last, candidate], plus floor[candidate]
    at depth 1, and the candidate is kept when no count passes lambda.
    Each candidate tested is a node.  The rows with a child get their own
    blocks, and the survivors are pushed back in reverse, in chunks of at
    most R rows, so the leaves come out in walk order.  The deadline is
    checked before each chunk, so a stopped walk's state is exactly its
    unpopped chunks.

    A leaf-depth pop's leaves are one sorted (n, k) array, tested for
    canonical form at once (_least_translates); a pop with no leaves skips
    the test.  The canonical ones go, in walk order, to
    multisets._row_reports for verify's report on each as a one-block
    family.  When max_results stops the walk at a hit, no later leaf is
    tallied or judged, and the tests after that leaf are taken back off
    nodes, which counts a walk that tests one candidate at a time.  For
    u = 1 there is no walk or table: the identity's one-element leaf, its
    own only translate, takes the same path, with 0 nodes.

    Memory: counts are int8.  A candidate adds at most 2 to a count (e - d
    = g and d - e = g each have one solution d) that is at most lambda,
    floor included, so counts plus adds stay at or below lambda + 2, which
    int8 holds for every u <= 11; a larger u is refused before any table
    is built.  pair holds v^3 counts (46 KB at order 36, 16 MB at order
    256, 113 MB at order 484, u = 11).  A pop tests at most R * v
    candidates, and the stack holds, at each of at most k - 1 depths, the
    rest of one pop's survivors (at most R * v rows of k + v + 16 bytes)
    and its block of R * v^2 <= max(FRONTIER_CELLS, v^2) counts.
    """
    _instance(group, FiniteGroup, "group", "a group")
    _instance(bounds, SearchBounds, "bounds", "a SearchBounds")
    v, k, lam = hds_parameters(u)
    if group.order != v:
        raise OrderMismatchError(
            f"group order {group.order} != 4u^2 = {v}")
    if lam + 2 > np.iinfo(np.int8).max:
        raise ValueError(f"u = {u} is above 11, the largest u whose "
                         f"search counts fit int8")
    started = time.monotonic()
    deadline = (started + bounds.time_budget_s
                if bounds.time_budget_s is not None else None)
    rows = max(1, FRONTIER_CELLS // (v * v))
    results: list[tuple[int, ...]] = []
    reports: list[VerificationReport] = []
    nodes = 0

    def take(leaves: np.ndarray) -> int | None:
        """Keep, in order, the sorted leaves that verify certifies as hits;
        the index of the leaf whose hit reaches max_results, or None."""
        for i, rep in enumerate(_row_reports(group, leaves, convention)):
            if (rep.kind == DS and rep.h == 1 and rep.v == v
                    and rep.lambda_or_mu == lam):
                results.append(tuple(leaves[i].tolist()))
                reports.append(rep)
                if len(results) == bounds.max_results:
                    return i
        return None

    if k == 1:  # the identity alone is the one leaf, and there is no walk
        stop = take(np.array([[group.identity]]))
        return HdsSearchResult(tuple(results), stop is None, nodes,
                               time.monotonic() - started, tuple(reports))

    idx = np.arange(v)
    table = group.difference(idx[:, None], idx[None, :], convention)
    walk = np.array([group.identity] + [x for x in range(v)
                                        if x != group.identity])
    at = np.empty_like(walk)  # at[x]: the walk position of element x
    at[walk] = idx
    # counts are kept by walk position, so the identity's is column 0;
    # pair[i, j]: the counts walk[i] and walk[j] add to each other's set
    step = at[table[np.ix_(walk, walk)]]
    one = np.eye(v, dtype=np.int8)
    pair = one[step]
    pair += one[step.T]
    # floor[i]: lambda at walk[1:i], every label below walk[i] but the
    # identity, since the walk ascends after the identity
    floor = np.where(idx < idx[:, None], np.int8(lam), np.int8(0))
    floor[:, 0] = 0

    # a chunk: its depth, its rows' walk positions, counts and tests after
    # them, each row's parent, and the block of adds of the parents' rows;
    # the root, the identity alone, has an empty parent that adds nothing
    frontier = [(1, np.zeros((1, k), dtype=np.min_scalar_type(v - 1)),
                 np.zeros((1, v), np.int8),
                 np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp),
                 np.zeros((1, v, v), np.int8))]
    complete = True
    while frontier and complete:
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        depth, pos, counts, after, parent, up = frontier.pop()
        last = pos[:, depth - 1].astype(np.intp)
        # a row's candidates: the positions after its last one that leave
        # room for the k - depth - 1 elements still to choose
        row, cand = np.nonzero((last[:, None] < idx)
                               & (idx <= v - k + depth))
        nodes += len(row)
        new = (counts.take(row, 0)
               + up.reshape(-1, v).take(parent[row] * v + cand, 0)
               + pair.reshape(-1, v).take(last[row] * v + cand, 0))
        if depth == 1:
            new += floor[cand]
        # argmax finds a row's first count above lambda, and none is the
        # identity's, column 0, which no difference of distinct elements
        # reaches: a candidate fits when it finds none
        fits = np.flatnonzero((new > lam).argmax(1) == 0)
        row = row[fits]
        pos = pos[row]
        pos[:, depth] = cand[fits]
        after = after[row] + (len(cand) - 1 - fits)
        if depth + 1 < k:
            # the blocks of adds of the rows with a child, only
            kin = np.zeros(len(last), dtype=bool)
            kin[row] = True
            row = (np.cumsum(kin) - 1)[row]
            adds = up[parent[kin]] + pair[last[kin]]
            for s in reversed(range(0, len(fits), rows)):
                cut = slice(s, s + rows)
                frontier.append((depth + 1, pos[cut], new[fits[cut]],
                                 after[cut], row[cut], adds))
            continue
        if not len(pos):
            continue
        leaves = np.sort(walk[pos], 1)
        canonical = _least_translates(table, leaves)
        stop = take(leaves[canonical])
        if stop is not None:
            nodes -= int(after[canonical][stop])
            complete = False
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
