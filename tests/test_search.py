import random
import re
import tracemalloc
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

from pdfam import multisets, search
from pdfam.constructions import hadamard_pdf_from_hds
from pdfam.groups import CyclicGroup, DiffConvention, ProductGroup, TableGroup
from pdfam.multisets import (DS, VerificationReport, make_family,
                             verify)
from pdfam.rings import GaloisField, Zmod, check_y_condition
from pdfam.search import (HdsSearchResult, OrderMismatchError, SearchBounds,
                          abelian_groups_order16, hds_parameters,
                          max_unit_y_search, search_hds)


def _canonical_translate(diff, d):
    """Oracle: True when the sorted set d is the least of its
    identity-containing translates {e - x : e in d}, x in d, read from
    diff[e][x] = e - x, every translate compared in full.  The translate
    by the identity is d itself, never smaller, and is skipped."""
    ident = diff[d[0]][d[0]]  # x - x, for any x
    for x in d:
        if x != ident and tuple(sorted(diff[e][x] for e in d)) < d:
            return False
    return True


def test_hds_parameters():
    assert hds_parameters(1) == (4, 1, 0)
    assert hds_parameters(2) == (16, 6, 2)
    assert hds_parameters(3) == (36, 15, 6)


@pytest.mark.parametrize("u", [0, -1])
def test_non_positive_u_is_refused(u):
    # u = -1 once searched Z4 for a (4, 3, 2) set and reported [0, 1, 2]
    for call in (lambda: hds_parameters(u),
                 lambda: search_hds(CyclicGroup(4), u),
                 lambda: hadamard_pdf_from_hds(u),
                 lambda: hadamard_pdf_from_hds(u, CyclicGroup(4))):
        with pytest.raises(ValueError, match="^u must be positive$"):
            call()


def test_search_hds_trivial_u1():
    res = search_hds(CyclicGroup(4), 1)
    assert res.results == ((0,),)
    assert res.complete
    assert res.nodes == 0


@pytest.mark.parametrize("time_budget_s", [None, 0])
@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("make_group,identity", [
    (lambda: CyclicGroup(4), 0),
    (lambda: ProductGroup([CyclicGroup(2), CyclicGroup(2)]), 0),
    (lambda: _relabeled(_cayley(CyclicGroup(4)), [2, 3, 0, 1]), 2),
], ids=["Z4", "Z2xZ2", "Z4-identity-at-2"])
def test_search_hds_u1_certifies_the_identity_without_a_walk(
        make_group, identity, convention, time_budget_s):
    # u = 1 has no walk, so a zero budget does not cut it short
    g = make_group()
    res = search_hds(g, 1, SearchBounds(time_budget_s=time_budget_s),
                     convention)
    assert res.results == ((identity,),)
    assert res.reports == (VerificationReport(DS, 4, 1, (1,), 0),)
    assert (res.nodes, res.complete) == (0, True)
    first = search_hds(g, 1, SearchBounds(max_results=1), convention)
    assert first.results == res.results and first.reports == res.reports
    assert (first.nodes, first.complete) == (0, False)


def test_search_hds_order_mismatch():
    with pytest.raises(OrderMismatchError):
        search_hds(CyclicGroup(8), 1)


def test_search_hds_refuses_u_past_int8_counts_before_any_table():
    """u = 12 (lambda + 2 = 134) counts past int8: refused before any
    v x v array, the smallest 576 * 576 bytes, is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^u = 12 is above 11, "):
            search_hds(CyclicGroup(576), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 576 * 576


def test_search_hds_z16_empty():
    res = search_hds(CyclicGroup(16), 2)
    assert res.results == ()
    assert res.complete


def test_search_hds_z4xz4_results_certify():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    res = search_hds(g, 2)
    assert res.complete and len(res.results) > 0
    for d in res.results:
        assert d[0] == 0  # normalized: identity first
        rep = verify(make_family(g, [list(d)]))
        assert rep.kind == DS
        assert (rep.v, tuple(rep.K), rep.lambda_or_mu) == (16, (6,), 2)


def test_search_hds_translates_not_duplicated():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    res = search_hds(g, 2)
    seen = set()
    for d in res.results:
        orbit = frozenset(
            tuple(sorted(g.op(e, g.neg(t)) for e in d)) for t in d)
        assert not (orbit & seen)
        seen |= orbit


def test_search_hds_translate_of_result_is_still_ds():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(8)])
    res = search_hds(g, 2, SearchBounds(max_results=1))
    d = res.results[0]
    shifted = sorted(g.op(e, 5) for e in d)
    rep = verify(make_family(g, [shifted]))
    assert rep.kind == DS and rep.lambda_or_mu == 2


def test_search_hds_max_results_marks_incomplete():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    res = search_hds(g, 2, SearchBounds(max_results=1))
    assert len(res.results) == 1
    assert not res.complete
    assert (res.nodes, res.results) == (21, ((0, 1, 2, 4, 9, 14),))


def test_search_hds_time_budget_zero():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    res = search_hds(g, 2, SearchBounds(time_budget_s=0.0))
    assert not res.complete
    assert (res.nodes, res.results) == (0, ())


@pytest.mark.parametrize("bounds", [
    {"max_results": 0}, {"max_results": -3}, {"time_budget_s": -1.0},
    {"time_budget_s": float("nan")}])
def test_search_bounds_refuse_empty_bounds(bounds):
    # max_results=0 returned one result, marked incomplete
    with pytest.raises(ValueError, match="is not >="):
        SearchBounds(**bounds)


@pytest.mark.parametrize("u", [True, 1.0, 2.5, "2"])
def test_a_non_integer_u_is_refused(u):
    # u=True read as 1 (expand_from_hds(True, 7) certified), and u=1.0
    # failed later with "element 0.0 is not an integer"
    for call in (lambda: hds_parameters(u),
                 lambda: search_hds(CyclicGroup(4), u),
                 lambda: hadamard_pdf_from_hds(u)):
        with pytest.raises(ValueError,
                           match=rf"^u {re.escape(repr(u))} is not an "
                                 "integer$"):
            call()


def test_numpy_integer_u_is_accepted():
    assert hds_parameters(np.int64(2)) == (16, 6, 2)
    assert search_hds(CyclicGroup(4), np.int32(1)).results == ((0,),)


@pytest.mark.parametrize("bounds,says", [
    ({"max_results": 2.5}, "max_results 2.5 is not an integer"),
    ({"max_results": True}, "max_results True is not an integer"),
    ({"time_budget_s": True}, "time_budget_s True is not a real number"),
    ({"time_budget_s": "1"}, "time_budget_s '1' is not a real number"),
], ids=["float-results", "bool-results", "bool-budget", "text-budget"])
def test_search_bounds_refuse_a_wrong_type(bounds, says):
    # the first three were accepted, and "1" raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        SearchBounds(**bounds)


def test_search_bounds_accept_numpy_numbers():
    bounds = SearchBounds(max_results=np.int64(1),
                          time_budget_s=np.float64(60))
    assert search_hds(CyclicGroup(16), 2, bounds).complete
    assert SearchBounds(time_budget_s=np.int32(1)).time_budget_s == 1


def test_order16_sweep_matches_known_classification():
    hits = {}
    for name, g in abelian_groups_order16():
        hits[name] = len(search_hds(g, 2).results)
    assert hits["Z16"] == 0
    for name in ("Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2"):
        assert hits[name] > 0


def test_search_left_convention_same_counts_for_abelian():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    right = search_hds(g, 2)
    left = search_hds(g, 2, convention=DiffConvention.LEFT_INVERSE)
    assert right.results == left.results


# Q8 x Z2, (q, z) at index 2q + z; q = 4s + u is the unit u in (1, i, j, k)
# with sign (-1)^s
Q8_X_Z2 = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14],
    [2, 3, 8, 9, 6, 7, 12, 13, 10, 11, 0, 1, 14, 15, 4, 5],
    [3, 2, 9, 8, 7, 6, 13, 12, 11, 10, 1, 0, 15, 14, 5, 4],
    [4, 5, 14, 15, 8, 9, 2, 3, 12, 13, 6, 7, 0, 1, 10, 11],
    [5, 4, 15, 14, 9, 8, 3, 2, 13, 12, 7, 6, 1, 0, 11, 10],
    [6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1],
    [7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, 3, 2, 1, 0],
    [8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7],
    [9, 8, 11, 10, 13, 12, 15, 14, 1, 0, 3, 2, 5, 4, 7, 6],
    [10, 11, 0, 1, 14, 15, 4, 5, 2, 3, 8, 9, 6, 7, 12, 13],
    [11, 10, 1, 0, 15, 14, 5, 4, 3, 2, 9, 8, 7, 6, 13, 12],
    [12, 13, 6, 7, 0, 1, 10, 11, 4, 5, 14, 15, 8, 9, 2, 3],
    [13, 12, 7, 6, 1, 0, 11, 10, 5, 4, 15, 14, 9, 8, 3, 2],
    [14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9],
    [15, 14, 13, 12, 3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8],
]


def _cayley(g):
    idx = np.arange(g.order)
    return g.op(idx[:, None], idx[None, :]).tolist()


def _dihedral16():
    """r^a s^b at index 8b + a; (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b+d)."""
    return [[8 * ((x // 8 + y // 8) % 2)
             + (x % 8 + (-(y % 8) if x // 8 else y % 8)) % 8
             for y in range(16)] for x in range(16)]


def _relabeled(table, perm):
    """The Cayley table after renaming element a to perm[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return TableGroup(out)


def _z4xz4_identity_at_5():
    """Z4 x Z4 as a table with element a renamed perm[a]."""
    base = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    return _relabeled(_cayley(base), [5, 0, 1, 2, 3, 4] + list(range(6, 16)))


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("make_group,hits", [
    (lambda: TableGroup(Q8_X_Z2), 44),
    (_z4xz4_identity_at_5, 12),
], ids=["Q8xZ2", "Z4xZ4-identity-at-5"])
def test_search_hds_table_groups(make_group, hits, convention):
    g = make_group()
    res = search_hds(g, 2, convention=convention)
    assert res.complete and len(res.results) == hits
    for d in res.results:
        assert g.identity in d and list(d) == sorted(d)
        rep = verify(make_family(g, [list(d)], convention=convention))
        assert rep.kind == DS
        assert (rep.v, tuple(rep.K), rep.lambda_or_mu) == (16, (6,), 2)


@pytest.mark.parametrize("max_results", [None, 1])
@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("make_group", [
    lambda: ProductGroup([CyclicGroup(4), CyclicGroup(4)]),
    lambda: ProductGroup([CyclicGroup(2), CyclicGroup(8)]),
    lambda: TableGroup(Q8_X_Z2),
], ids=["Z4xZ4", "Z2xZ8", "Q8xZ2"])
def test_search_hds_reports_are_the_verifier_reports(make_group, convention,
                                                     max_results):
    g = make_group()
    res = search_hds(g, 2, SearchBounds(max_results=max_results), convention)
    assert res.results and len(res.reports) == len(res.results)
    for d, rep in zip(res.results, res.reports):
        assert rep == verify(make_family(g, [list(d)], convention=convention))


def _order16_groups():
    """The order-16 groups the search is pinned on, by name: the abelian
    products and their Cayley tables, Q8 x Z2, D16, and Z4 x Z4 with its
    identity at label 5."""
    groups = dict(abelian_groups_order16())
    groups |= {f"{name}@table": TableGroup(_cayley(g))
               for name, g in groups.items()}
    return groups | {"Q8xZ2": TableGroup(Q8_X_Z2),
                     "D16": TableGroup(_dihedral16()),
                     "Z4xZ4@5": _z4xz4_identity_at_5()}


ORDER16_GROUPS = _order16_groups()

# (nodes, hits) of the exhaustive u=2 search, per group and labeling; every
# search is complete and the same under both conventions.  The walk order
# and the difference floor at d1 both follow the labels, so a relabeling
# that reorders the elements can change the node count
ORDER16_GOLDEN = {
    "Z16": (1180, 0), "Z2xZ8": (1031, 12), "Z4xZ4": (1186, 12),
    "Z2xZ2xZ4": (1171, 28), "Z2xZ2xZ2xZ2": (1527, 28),
    "Z16@table": (1180, 0), "Z2xZ8@table": (1031, 12),
    "Z4xZ4@table": (1186, 12), "Z2xZ2xZ4@table": (1171, 28),
    "Z2xZ2xZ2xZ2@table": (1527, 28),
    "Q8xZ2": (1558, 44), "D16": (908, 0), "Z4xZ4@5": (1186, 12),
}


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("name", list(ORDER16_GROUPS))
def test_search_hds_order16_nodes_and_hits_are_pinned(name, convention):
    group = ORDER16_GROUPS[name]
    res = search_hds(group, 2, convention=convention)
    nodes, hits = ORDER16_GOLDEN[name]
    assert (res.nodes, len(res.results), res.complete) == (nodes, hits, True)
    # the leaf family, laid out from the walk's indices, certifies as the
    # public path does
    assert list(res.reports) == [
        verify(make_family(group, [list(d)], convention=convention))
        for d in res.results]


def _reference_search_hds(group, u, max_results=None,
                          convention=DiffConvention.RIGHT_INVERSE,
                          floor=True):
    """Oracle: the search with one list of difference counts, each
    candidate's differences added one at a time and all undone after.
    With the floor, a candidate is refused when one of its new
    differences is a non-identity label below d1, the set's least
    non-identity element (the candidate itself at depth 1).
    Returns (results, complete, nodes)."""
    v, k, lam = hds_parameters(u)
    idx = np.arange(v)
    diff = group.difference(idx[:, None], idx[None, :], convention).tolist()
    walk = [group.identity] + [x for x in range(v) if x != group.identity]
    counts = [0] * v
    chosen = [group.identity]
    results = []
    nodes = 0

    def emit():
        d = tuple(sorted(chosen))
        if not _canonical_translate(diff, d):
            return True
        rep = verify(make_family(group, [list(d)], convention=convention))
        if (rep.kind == DS and rep.h == 1 and rep.v == v
                and rep.lambda_or_mu == lam):
            results.append(d)
            if max_results is not None and len(results) >= max_results:
                return False
        return True

    def extend(start):
        nonlocal nodes
        if len(chosen) == k:
            return emit()
        for i in range(start, v - (k - len(chosen)) + 1):
            e = walk[i]
            nodes += 1
            new = [g for d in chosen for g in (diff[e][d], diff[d][e])]
            d1 = chosen[1] if len(chosen) > 1 else e
            if floor and any(g != group.identity and g < d1 for g in new):
                continue
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

    complete = emit() if k == 1 else extend(1)
    return tuple(results), complete, nodes


def _random_relabelings(seed, count):
    rng = random.Random(seed)
    groups = list(ORDER16_GROUPS.values())
    for _ in range(count):
        perm = list(range(16))
        rng.shuffle(perm)
        yield _relabeled(_cayley(rng.choice(groups)), perm)


@pytest.mark.parametrize("max_results", [None, 1, 2, 7])
@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_search_hds_matches_the_per_element_oracle(convention, max_results):
    bounds = SearchBounds(max_results=max_results)
    groups = [*ORDER16_GROUPS.values(), *_random_relabelings(7, 6)]
    for g in groups:
        res = search_hds(g, 2, bounds, convention)
        assert (res.results, res.complete, res.nodes) == \
            _reference_search_hds(g, 2, max_results, convention)


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_search_hds_floor_keeps_results_and_never_adds_nodes(convention):
    groups = [g for g in _random_relabelings(19, 30) if g.identity != 0]
    assert len(groups) >= 20
    for g in groups:
        res = search_hds(g, 2, convention=convention)
        results, complete, nodes = _reference_search_hds(
            g, 2, convention=convention, floor=False)
        assert (res.results, res.complete) == (results, complete)
        assert res.nodes <= nodes


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_leaf_test_agrees_with_the_full_translate_oracle(monkeypatch,
                                                         convention):
    """At every leaf the walk reaches, the array test of a pop's leaves
    accepts exactly when comparing every translate one at a time does."""
    real, seen = search._least_translates, []

    def judged(table, leaves):
        got = real(table, leaves)
        diff = table.tolist()
        seen.extend((bool(ok), _canonical_translate(diff, tuple(d)))
                    for ok, d in zip(got, leaves.tolist()))
        return got

    monkeypatch.setattr(search, "_least_translates", judged)
    relabeled = [g for g in _random_relabelings(29, 12) if g.identity != 0]
    assert len(relabeled) >= 8
    for g in [g for _, g in abelian_groups_order16()] + relabeled:
        search_hds(g, 2, convention=convention)
    assert [want for _, want in seen] == [got for got, _ in seen]
    # both answers occur: about half the leaves are not canonical
    assert 0 < sum(got for got, _ in seen) < len(seen)


def test_search_hds_first_z6xz6_set_is_pinned():
    g = ProductGroup([CyclicGroup(6), CyclicGroup(6)])
    res = search_hds(g, 3, SearchBounds(max_results=1))
    assert (res.nodes, res.results, res.complete) == (
        193187, ((0, 1, 2, 3, 4, 6, 7, 13, 15, 20, 23, 25, 27, 33, 34),),
        False)
    rep = verify(make_family(g, [list(res.results[0])]))
    assert (rep.kind, rep.v, tuple(rep.K), rep.lambda_or_mu) == (
        DS, 36, (15,), 6)
    assert (res.results, res.complete, res.nodes) == \
        _reference_search_hds(g, 3, max_results=1)


# -- stacked certification of the hits -------------------------------------

@pytest.mark.parametrize("cells", [1, 100])
@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_search_hds_certifies_the_same_in_smaller_stacks(monkeypatch,
                                                         convention, cells):
    """With a stack bound of one pair every leaf is certified alone, and
    with 100 pairs two (16,6,2) leaves at a time; the searches come out
    the same, and no stack holds more than max(CHUNK_CELLS, k * k) pairs."""
    stacked = {name: search_hds(g, 2, convention=convention)
               for name, g in ORDER16_GROUPS.items()}
    real, stacks = multisets._row_tallies, []

    def recorded(group, x, convention):
        stacks.append(x.shape)
        return real(group, x, convention)

    monkeypatch.setattr(multisets, "CHUNK_CELLS", cells)
    monkeypatch.setattr(multisets, "_row_tallies", recorded)
    for name, g in ORDER16_GROUPS.items():
        small, res = search_hds(g, 2, convention=convention), stacked[name]
        assert (small.results, small.reports, small.nodes, small.complete) \
            == (res.results, res.reports, res.nodes, res.complete)
    assert max(n for n, _ in stacks) == max(1, cells // 36)
    assert sum(n for n, _ in stacks) == sum(map(len, (
        r.results for r in stacked.values())))


def test_search_hds_a_refused_leaf_is_not_a_hit(monkeypatch):
    """A leaf whose stacked tally is off is judged Invalid and not counted
    against max_results: the walk goes on to the next two hits, and judges
    no leaf after the second.  All 12 canonical leaves of Z4xZ4 come from
    one pop, so they are one stack."""
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    full = search_hds(g, 2)
    real, flushes, judged = multisets._row_tallies, [], []
    real_verify = multisets.verify

    def counted_verify(family):
        judged.append(family.positions.tolist())
        return real_verify(family)

    def off_by_one(group, x, convention):
        counts, cover = real(group, x, convention)
        if not flushes:
            counts[0, group.identity + 1] += 1
        flushes.append(len(x))
        return counts, cover

    monkeypatch.setattr(multisets, "_row_tallies", off_by_one)
    monkeypatch.setattr(multisets, "verify", counted_verify)
    res = search_hds(g, 2, SearchBounds(max_results=2))
    assert res.results == full.results[1:3]
    assert res.reports == full.reports[1:3]
    assert not res.complete
    assert flushes == [12]
    assert judged == [list(d) for d in full.results[:3]]


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_search_hds_z6xz6_reports_are_the_verifier_reports(convention):
    g = ProductGroup([CyclicGroup(6), CyclicGroup(6)])
    res = search_hds(g, 3, SearchBounds(max_results=2), convention)
    assert (res.nodes, len(res.results), res.complete) == (193724, 2, False)
    assert list(res.reports) == [
        verify(make_family(g, [list(d)], convention=convention))
        for d in res.results]
    assert {(r.kind, r.v, r.K, r.lambda_or_mu) for r in res.reports} == {
        (DS, 36, (15,), 6)}


@pytest.mark.parametrize("call,says", [
    (lambda g: search_hds(g, 2, None), "bounds None is not a SearchBounds"),
    (lambda g: search_hds(g, 2, {"max_results": 1}),
     "bounds {'max_results': 1} is not a SearchBounds"),
    (lambda g: search_hds("Z4xZ4", 2), "group 'Z4xZ4' is not a group"),
    (lambda g: max_unit_y_search(Zmod(25), None),
     "bounds None is not a SearchBounds"),
    (lambda g: max_unit_y_search("F7"), "ring 'F7' is not a ring"),
], ids=["none-bounds", "dict-bounds", "text-group", "y-none-bounds",
        "text-ring"])
def test_searches_refuse_a_malformed_argument(call, says):
    # each raised a bare AttributeError
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        call(g)


# -- maximum unit sets -----------------------------------------------------

def brute_max_y(n):
    """Independent oracle over Zmod(n) by raw enumeration."""
    units = [x for x in range(n) if gcd(x, n) == 1]

    def ok(ys):
        s = set(ys) | {(-y) % n for y in ys}
        if len(s) != 2 * len(ys):
            return False
        return all(gcd((a - b) % n, n) == 1
                   for a in s for b in s if a != b)

    best = 0
    witness = ()
    for size in range(1, len(units) + 1):
        found = None
        for ys in combinations(units, size):
            if ok(ys):
                found = ys
                break
        if found is None:
            break
        best, witness = size, found
    return best, witness


@pytest.mark.parametrize("n,expected", [(7, 3), (9, 1), (25, 2), (15, 1)])
def test_max_unit_y_matches_brute_force(n, expected):
    oracle_best, _ = brute_max_y(n)
    assert oracle_best == expected
    res = max_unit_y_search(Zmod(n))
    assert res.max_size == expected
    assert res.exhaustive
    if res.max_size:
        assert check_y_condition(Zmod(n), res.witness).ok


def test_z25_no_size_three_exhaustive():
    # every size-3 subset of U(Z25) fails; confirms the search maximum
    units = [x for x in range(25) if x % 5]
    for ys in combinations(units, 3):
        assert not check_y_condition(Zmod(25), ys).ok


def test_max_unit_y_f7():
    res = max_unit_y_search(GaloisField(7, 1))
    assert res.max_size == 3
    assert check_y_condition(GaloisField(7, 1), res.witness).ok


def test_max_unit_y_time_budget_zero():
    res = max_unit_y_search(Zmod(49), SearchBounds(time_budget_s=0.0))
    assert not res.exhaustive


def test_max_unit_y_stops_at_its_deadline_below_the_top_level(monkeypatch):
    """The clock passes the deadline at the first nested call: the walk
    stops one level down, after one node, and is not exhaustive."""
    ticks = iter([0.0, 0.0])  # the start, and the top level's check
    monkeypatch.setattr(search, "time", SimpleNamespace(
        monotonic=lambda: next(ticks, 2.0)))
    res = max_unit_y_search(GaloisField(7, 1), SearchBounds(time_budget_s=1))
    assert not res.exhaustive
    assert (res.max_size, res.witness, res.nodes) == (1, (1,), 1)


# -- the frontier walk ------------------------------------------------------

@pytest.mark.parametrize("rows", [1, 3])
def test_search_hds_frontier_rows_do_not_change_the_search(monkeypatch, rows):
    """Chunks of one row and of three at order 16 (and of one at order 36)
    give the searches of the default cell budget: the same hits, reports,
    nodes and completeness."""
    z6xz6 = ProductGroup([CyclicGroup(6), CyclicGroup(6)])
    cases = [(g, 2, SearchBounds(), convention)
             for g in ORDER16_GROUPS.values() for convention in DiffConvention]
    cases.append((z6xz6, 3, SearchBounds(max_results=2),
                  DiffConvention.RIGHT_INVERSE))
    default = [search_hds(*case) for case in cases]
    assert default[-1].nodes == 193724
    monkeypatch.setattr(search, "FRONTIER_CELLS", rows * 16 * 16)
    for case, want in zip(cases, default):
        got = search_hds(*case)
        assert (got.results, got.reports, got.nodes, got.complete) == (
            want.results, want.reports, want.nodes, want.complete)


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_search_hds_stops_like_the_oracle_at_every_hit(convention):
    """Stopped after each hit in turn, and one past the last, the search
    keeps the oracle's hits, completeness and node count."""
    for g in _random_relabelings(41, 8):
        hits = len(_reference_search_hds(g, 2, convention=convention)[0])
        for max_results in range(1, hits + 2):
            res = search_hds(g, 2, SearchBounds(max_results=max_results),
                             convention)
            assert (res.results, res.complete, res.nodes) == \
                _reference_search_hds(g, 2, max_results, convention)
