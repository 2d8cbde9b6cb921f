from itertools import combinations
from math import gcd

import pytest

from pdfam.groups import CyclicGroup, DiffConvention, ProductGroup, TableGroup
from pdfam.multisets import DS, make_family, verify
from pdfam.rings import GaloisField, Zmod, check_y_condition
from pdfam.search import (HdsSearchResult, OrderMismatchError, SearchBounds,
                          abelian_groups_order16, hds_parameters,
                          max_unit_y_search, search_hds)


def test_hds_parameters():
    assert hds_parameters(1) == (4, 1, 0)
    assert hds_parameters(2) == (16, 6, 2)
    assert hds_parameters(3) == (36, 15, 6)


def test_search_hds_trivial_u1():
    res = search_hds(CyclicGroup(4), 1)
    assert res.results == ((0,),)
    assert res.complete


def test_search_hds_order_mismatch():
    with pytest.raises(OrderMismatchError):
        search_hds(CyclicGroup(8), 1)


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


def test_search_hds_time_budget_zero():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    res = search_hds(g, 2, SearchBounds(time_budget_s=0.0))
    assert not res.complete


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


def _z4xz4_identity_at_5():
    """Z4 x Z4 as a table with element a renamed perm[a]."""
    base = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    perm = [5, 0, 1, 2, 3, 4] + list(range(6, 16))
    table = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for b in range(16):
            table[perm[a]][perm[b]] = perm[base.op(a, b)]
    return TableGroup(table)


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
