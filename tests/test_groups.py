import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfam.groups import (CyclicGroup, DiffConvention, ElementOutOfRangeError,
                          NoIdentityError, NonAssociativeError, ProductGroup,
                          Semidirect32, TableGroup, convention_from_name,
                          is_subgroup, make_group, subgroup_closure)

SMALL_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(7),
    CyclicGroup(12),
    ProductGroup([CyclicGroup(2), CyclicGroup(2)]),
    ProductGroup([CyclicGroup(3), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(2), CyclicGroup(2), CyclicGroup(4)]),
    Semidirect32(),
]


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: repr(g))
def test_group_axioms(g):
    n = g.order
    for a in range(n):
        assert g.op(g.identity, a) == a
        assert g.op(a, g.identity) == a
        assert g.op(a, g.neg(a)) == g.identity
        assert g.op(g.neg(a), a) == g.identity
    # associativity, exhaustive for the small orders used here
    for a in range(n):
        for b in range(n):
            ab = g.op(a, b)
            for c in range(n):
                assert g.op(ab, c) == g.op(a, g.op(b, c))


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: repr(g))
def test_coords_index_roundtrip(g):
    for a in g.elements():
        assert g.index_of(g.coords(a)) == a


def test_semidirect32_law():
    g = Semidirect32()
    pairs = lambda *xy: tuple(g.index_of(c) for c in xy)
    a, b = pairs((1, 1), (1, 0))
    assert g.coords(g.op(a, b)) == (2, 5)
    a, b = pairs((0, 1), (1, 0))
    assert g.coords(g.op(a, b)) == (1, 5)
    a, b = pairs((2, 0), (2, 0))
    assert g.coords(g.op(a, b)) == (0, 0)
    assert g.coords(g.neg(g.index_of((2, 0)))) == (2, 0)
    assert not g.is_abelian


def test_semidirect32_difference_conventions_differ_somewhere():
    g = Semidirect32()
    right = {(a, b): g.difference(a, b, DiffConvention.RIGHT_INVERSE)
             for a in range(32) for b in range(32)}
    left = {(a, b): g.difference(a, b, DiffConvention.LEFT_INVERSE)
            for a in range(32) for b in range(32)}
    assert right != left  # non-abelian: the two conventions are distinct maps


def test_abelian_difference_convention_agrees():
    g = ProductGroup([CyclicGroup(3), CyclicGroup(4)])
    for a in g.elements():
        for b in g.elements():
            assert (g.difference(a, b, DiffConvention.RIGHT_INVERSE)
                    == g.difference(a, b, DiffConvention.LEFT_INVERSE))


def test_opposite_group():
    abelian = ProductGroup([CyclicGroup(3), CyclicGroup(4)])
    assert abelian.opposite() is abelian
    g = Semidirect32()
    opp = g.opposite()
    assert opp is g.opposite() and opp.opposite() is g
    assert opp != g and opp.identity == g.identity
    for a in g.elements():
        assert opp.neg(a) == g.neg(a) and opp.coords(a) == g.coords(a)
        for b in g.elements():
            assert opp.op(a, b) == g.op(b, a)
            assert (g.difference(a, b, DiffConvention.LEFT_INVERSE)
                    == g.op(g.neg(b), a))


def _cyclic_with_swapped_intercalate(n, rows, cols):
    """Z_n's table with a 2x2 Latin subsquare swapped: a non-associative
    loop with identity 0."""
    t = [[(a + b) % n for b in range(n)] for a in range(n)]
    (r1, r2), (c1, c2) = rows, cols
    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
    return t


def _swap_labels_0_1(t):
    p = [1, 0] + list(range(2, len(t)))
    out = [[0] * len(t) for _ in t]
    for a, row in enumerate(t):
        for b, c in enumerate(row):
            out[p[a]][p[b]] = p[c]
    return out


@pytest.mark.parametrize("table", [
    _cyclic_with_swapped_intercalate(6, (1, 4), (1, 4)),
    # identity off label 0, order above 64
    _swap_labels_0_1(_cyclic_with_swapped_intercalate(66, (2, 35), (5, 38))),
], ids=["order6", "order66-relabeled"])
def test_table_group_rejects_non_associative(table):
    with pytest.raises(NonAssociativeError):
        TableGroup(table)


def test_table_group_accepts_relabeled_cyclic():
    base = CyclicGroup(6)
    table = [[base.op(a, b) for b in range(6)] for a in range(6)]
    tg = TableGroup(table)
    assert tg.order == 6
    assert tg.op(2, 5) == base.op(2, 5)


def test_table_group_rejects_magma_without_identity():
    with pytest.raises(NoIdentityError):
        TableGroup([[1, 0], [1, 0]])


def test_range_guard():
    g = CyclicGroup(5)
    with pytest.raises(ElementOutOfRangeError):
        g.op(0, 5)
    with pytest.raises(ElementOutOfRangeError):
        g.neg(-1)


def test_make_group_roundtrip():
    for g in SMALL_GROUPS:
        assert make_group(g.descriptor()) == g


def test_convention_from_name():
    assert convention_from_name("right") is DiffConvention.RIGHT_INVERSE
    assert convention_from_name("left") is DiffConvention.LEFT_INVERSE
    with pytest.raises(ValueError):
        convention_from_name("middle")


def test_subgroup_closure_and_check():
    g = CyclicGroup(12)
    h = subgroup_closure(g, [4])
    assert h == frozenset({0, 4, 8})
    assert is_subgroup(g, h)
    assert not is_subgroup(g, {0, 4, 7})
    assert not is_subgroup(g, {4, 8})  # no identity
    s = Semidirect32()
    assert subgroup_closure(s, [s.index_of((1, 0))]) == {0, 8, 16, 24}
    assert subgroup_closure(s, [s.index_of((0, 1))]) == set(range(8))
    assert subgroup_closure(s, [8, 1]) == set(s.elements())
    assert is_subgroup(s, range(8)) and not is_subgroup(s, range(9))


def test_product_order_and_strides():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(8)])
    assert g.order == 32
    assert g.coords(8 + 3) == (1, 3)
    assert g.index_of((3, 7)) == 31


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.data())
def test_cyclic_matches_modular_arithmetic(n, data):
    g = CyclicGroup(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    assert g.op(a, b) == (a + b) % n
    assert g.neg(a) == (-a) % n
    assert g.difference(a, b) == (a - b) % n


def _relabeled(g, perm):
    """Cayley table of g with element a renamed perm[a]."""
    t = [[0] * g.order for _ in range(g.order)]
    for a in g.elements():
        for b in g.elements():
            t[perm[a]][perm[b]] = perm[g.op(a, b)]
    return t


_ARRAY_BASES = [
    CyclicGroup(9),
    ProductGroup([CyclicGroup(3), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(3), Semidirect32()]),
    Semidirect32(),
    # identity at label 5
    TableGroup(_relabeled(Semidirect32(), [(a + 5) % 32 for a in range(32)])),
]
ARRAY_GROUPS = _ARRAY_BASES + [g.opposite() for g in _ARRAY_BASES
                               if not g.is_abelian]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ARRAY_GROUPS), st.data())
def test_array_arithmetic_matches_scalar(g, data):
    elem = st.integers(0, g.order - 1)
    xs = data.draw(st.lists(elem, min_size=1, max_size=6))
    ys = data.draw(st.lists(elem, min_size=1, max_size=6))
    a, b = np.array(xs)[:, None], np.array(ys)[None, :]
    assert g.op(a, b).tolist() == [[g.op(x, y) for y in ys] for x in xs]
    assert g.neg(a).tolist() == [[g.neg(x)] for x in xs]
    for conv in DiffConvention:
        assert g.difference(a, b, conv).tolist() == [
            [g.difference(x, y, conv) for y in ys] for x in xs]
    x, y = xs[0], ys[0]
    assert all(type(r) is int for r in (g.op(x, y), g.neg(x),
                                        g.difference(x, y)))
    bad = data.draw(st.sampled_from([-1, g.order, g.order + 7]))
    with pytest.raises(ElementOutOfRangeError, match=f"element {bad} "):
        g.op(np.array(xs + [bad, -3]), np.array(ys[:1]))
    with pytest.raises(ElementOutOfRangeError, match=f"element {bad} "):
        g.neg(np.array([[x], [bad]]))


def test_semidirect32_matches_written_out_law():
    """(x1,y1) + (x2,y2) = (x1+x2 mod 4, 5^x2 * y1 + y2 mod 8), element
    8x + y, computed here without the group's code."""
    g = Semidirect32()
    idx = np.arange(32)
    table = g.op(idx[:, None], idx[None, :])
    negs = g.neg(idx)
    for a in range(32):
        x1, y1 = divmod(a, 8)
        xn = (-x1) % 4
        assert negs[a] == g.neg(a) == 8 * xn + (-(5 ** xn) * y1) % 8
        for b in range(32):
            x2, y2 = divmod(b, 8)
            want = 8 * ((x1 + x2) % 4) + (5 ** x2 * y1 + y2) % 8
            assert table[a, b] == g.op(a, b) == want
