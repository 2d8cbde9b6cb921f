import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfam import groups
from pdfam.groups import (CyclicGroup, DiffConvention, ElementOutOfRangeError,
                          FiniteGroup, NoIdentityError, NonAssociativeError,
                          ProductGroup, Semidirect32, TableGroup,
                          _generating_set, convention_from_name,
                          is_subgroup, make_group)
from pdfam.multisets import DS, INVALID, make_family, verify
from pdfam.rings import GaloisField, ProductRing, Zmod
from pdfam.search import search_hds


def subgroup_closure(group, generators):
    """Oracle: the smallest set holding the identity and the generators
    and closed under a + (-b), grown one difference at a time."""
    closure = {group.identity, *generators}
    grown = True
    while grown:
        new = {group.difference(a, b) for a in closure for b in closure}
        grown = not new <= closure
        closure |= new
    return closure


# Z4 with element a renamed a + 2 mod 4: the identity is label 2
Z4_IDENTITY_AT_2 = [[(x + y + 2) % 4 for y in range(4)] for x in range(4)]

SMALL_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(7),
    CyclicGroup(12),
    ProductGroup([CyclicGroup(2), CyclicGroup(2)]),
    ProductGroup([CyclicGroup(3), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(2), CyclicGroup(2), CyclicGroup(4)]),
    ProductGroup([TableGroup(Z4_IDENTITY_AT_2), CyclicGroup(4)]),
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
    a, b = pairs((0, 1), (1, 0))
    assert g.op(a, b) != g.op(b, a)  # (1, 5) and (1, 1): not abelian


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


@pytest.mark.parametrize("g,coords", [
    (CyclicGroup(7), (2.5,)),
    (GaloisField(3, 2).additive, (1.7, 0)),
    (Semidirect32(), (1.9, 2.2)),
    (CyclicGroup(7), (True,)),
    (ProductGroup([CyclicGroup(3), CyclicGroup(4)]), (1, False)),
], ids=["Z7-float", "GF9-float", "semidirect32-float", "Z7-bool",
        "Z3xZ4-bool"])
def test_index_of_refuses_non_integer_coordinates(g, coords):
    with pytest.raises(ValueError, match=r"^coordinate \S+ is not an integer$"):
        g.index_of(coords)


def test_index_of_accepts_numpy_integers():
    assert CyclicGroup(7).index_of((np.int64(2),)) == 2
    assert GaloisField(3, 2).index_of((np.int32(1), np.int64(0))) == 3
    assert Semidirect32().index_of(np.array([1, 2])) == 10
    assert all(type(g.index_of(c)) is int for g, c in (
        (CyclicGroup(7), (np.int64(2),)), (Semidirect32(), np.array([1, 2]))))


_GUARDED = {
    "cyclic": lambda a: CyclicGroup(7).op(a, 2),
    "product": lambda a: ProductGroup([CyclicGroup(3), CyclicGroup(5)]).op(
        a, 1),
    "semidirect32": lambda a: Semidirect32().op(a, 1),
    "table": lambda a: TableGroup(Z4_IDENTITY_AT_2).op(a, 1),
    "ring-add": lambda a: GaloisField(3, 2).add(a, 1),
    "ring-is_unit": lambda a: ProductRing([GaloisField(5), Zmod(9)]).is_unit(a),
}


@pytest.mark.parametrize("bad", [
    np.array([1.5]), np.array([0, 4.5]), np.array([True, False]),
    np.array([], dtype=float), 1.5, True, np.bool_(True),
    np.array([1], dtype=object),
], ids=["float-array", "float-entry", "bool-array", "empty-float-array",
        "float", "bool", "numpy-bool", "object-array"])
@pytest.mark.parametrize("kind", sorted(_GUARDED))
def test_element_guard_refuses_floats_and_bools(kind, bad):
    # a float array was added as floats, and True read as 1
    with pytest.raises(ValueError, match=r"^element .+ is not an integer$"):
        _GUARDED[kind](bad)


@pytest.mark.parametrize("bad,named", [
    (np.array([1], dtype=object), "of dtype object"),
    (np.array([], dtype=float), "of dtype float64"),
    (np.array([2.5, 1], dtype=object), "2.5"),
    (np.array([True]), "True"),
], ids=["object-int-entry", "empty-float", "object-float-entry", "bool"])
def test_element_guard_names_the_entry_or_the_dtype(bad, named):
    # an integer first entry of an object array used to be named itself
    with pytest.raises(ValueError,
                       match=rf"^element {named} is not an integer$"):
        CyclicGroup(4).op(bad, 1)


@pytest.mark.parametrize("build,error,says", [
    (lambda: CyclicGroup(0), ValueError, "order must be positive"),
    (lambda: ProductGroup([]), ValueError,
     "product needs at least one factor"),
    (lambda: ProductGroup([2]), ValueError, "product factor 2 is not a group"),
    (lambda: ProductGroup([CyclicGroup(2), "x"]), ValueError,
     "product factor 'x' is not a group"),
    (lambda: Semidirect32().index_of((4, 0)), ElementOutOfRangeError,
     r"bad coordinates \(4,0\)"),
], ids=["Z0", "empty-product", "int-factor", "str-factor",
        "semidirect32-x-4"])
def test_groups_refuse_bad_input(build, error, says):
    with pytest.raises(error, match=f"^{says}$"):
        build()


@pytest.mark.parametrize("g,coords,arity", [
    (CyclicGroup(7), (1, 2), 1),
    (CyclicGroup(7), (), 1),
    (TableGroup(CyclicGroup(4).op(np.arange(4)[:, None],
                                  np.arange(4)[None, :])), (0, 1), 1),
    (Semidirect32(), (1, 2, 3), 2),
    (Semidirect32(), (1,), 2),
    (ProductGroup([CyclicGroup(3), CyclicGroup(4)]), (1,), 2),
    (ProductGroup([CyclicGroup(3), CyclicGroup(4)]), (1, 2, 0), 2),
], ids=["Z7-two", "Z7-none", "table-two", "semidirect32-three",
        "semidirect32-one", "Z3xZ4-one", "Z3xZ4-three"])
def test_index_of_refuses_the_wrong_number_of_coordinates(g, coords, arity):
    with pytest.raises(ValueError, match=(
            rf"^expected {arity} coordinates, got {len(coords)}$")):
        g.index_of(coords)


@pytest.mark.parametrize("g", [
    ProductGroup([CyclicGroup(3), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(2), CyclicGroup(2), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(5)]),
], ids=repr)
def test_split_and_join_agree_on_ints_and_arrays(g):
    idx = np.arange(g.order)
    parts = g.split(idx)
    for a in range(g.order):
        scalar = g.split(a)
        assert all(type(x) is int for x in scalar)
        assert scalar == tuple(int(p[a]) for p in parts)
        assert g.join(scalar) == a and type(g.join(scalar)) is int
    assert np.array_equal(g.join(parts), idx)
    assert np.array_equal(idx, np.arange(g.order))  # the input is untouched


def test_difference_refuses_a_convention_that_is_not_one():
    g = Semidirect32()
    for bad in ("right", "left", None):
        with pytest.raises(ValueError, match="unknown difference convention"):
            g.difference(1, 9, bad)


def test_semidirect32_differences_read_as_their_conventions_say():
    g = Semidirect32()
    for a in g.elements():
        for b in g.elements():
            assert (g.difference(a, b, DiffConvention.LEFT_INVERSE)
                    == g.op(g.neg(b), a))
            assert (g.difference(a, b, DiffConvention.RIGHT_INVERSE)
                    == g.difference(a, b) == g.op(a, g.neg(b)))


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


@pytest.mark.parametrize("table", [[[0, 1], [1]], [[0], [1, 0]], [],
                                   [[0, 1]]],
                         ids=["ragged", "ragged-first", "empty", "wide"])
def test_table_group_rejects_a_non_square_table(table):
    # a ragged table used to reach the user as numpy's "inhomogeneous shape"
    with pytest.raises(ValueError,
                       match="^table must be a nonempty square matrix$"):
        TableGroup(table)


@pytest.mark.parametrize("table", [
    [[0, 1.5], [1.5, 0]], [[False, True], [True, False]],
    np.array([[0, 1], [1, 0]], dtype=float),
], ids=["float-entries", "bool-entries", "float-ndarray"])
def test_table_group_refuses_non_integer_entries(table):
    # each used to build Z2 through a silent int64 cast
    with pytest.raises(ValueError, match="^table entries must be integers$"):
        TableGroup(table)


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
    with pytest.raises(ValueError, match="is not an integer"):
        is_subgroup(CyclicGroup(4), [0, 2.5])  # int() read 2.5 as 2


def test_product_identity_joins_factor_identities():
    g = ProductGroup([TableGroup(Z4_IDENTITY_AT_2), CyclicGroup(4)])
    assert g.identity == g.index_of((2, 0)) == 8
    nested = ProductGroup([CyclicGroup(3), g, TableGroup(Z4_IDENTITY_AT_2)])
    assert nested.identity == nested.index_of((0, 2, 0, 2))


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("relabeled", [(0,), (1,), (0, 1)],
                         ids=["first", "second", "both"])
def test_product_with_relabeled_factor_identity(relabeled, convention):
    """Z4 x Z4 with Z4 factors given as a table whose identity is label 2
    behaves as Z4 x Z4: its subgroup closure of nothing is the identity,
    the whole group is a (16, 16, 16) difference multiset read as a DS, and
    the (16, 6, 2) search finds the 12 normalized sets of Z4 x Z4."""
    g = ProductGroup([TableGroup(Z4_IDENTITY_AT_2) if i in relabeled
                      else CyclicGroup(4) for i in range(2)])
    assert subgroup_closure(g, []) == {g.identity}
    rep = verify(make_family(g, [g.elements()], convention=convention))
    assert (rep.kind, rep.v, rep.K, rep.lambda_or_mu) == (DS, 16, (16,), 16)
    found = search_hds(g, 2, convention=convention)
    assert found.complete and len(found.results) == 12
    assert all(g.identity in d for d in found.results)


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


ARRAY_GROUPS = [
    CyclicGroup(9),
    ProductGroup([CyclicGroup(3), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(3), Semidirect32()]),
    Semidirect32(),
    # identity at label 5
    TableGroup(_relabeled(Semidirect32(), [(a + 5) % 32 for a in range(32)])),
]


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


def _semidirect32_bit_op(a, b):
    """The group law as Semidirect32 computed it before it was a table."""
    x1, y1 = divmod(a, 8)
    x2, y2 = divmod(b, 8)
    return (((x1 + x2) & 3) << 3) | ((y1 * (1 + 4 * (x2 & 1)) + y2) & 7)


def _semidirect32_bit_neg(a):
    x, y = divmod(a, 8)
    xn = (-x) & 3
    return (xn << 3) | ((-y * (1 + 4 * (xn & 1))) & 7)


def test_semidirect32_table_matches_the_bit_formulas(monkeypatch):
    """Semidirect32 is a TableGroup whose table, validated as any table
    is, agrees with the bit formulas it replaced on all 32 x 32 pairs."""
    checked = []
    associativity = groups._check_associativity
    monkeypatch.setattr(groups, "_check_associativity",
                        lambda g: checked.append(g) or associativity(g))
    g = Semidirect32()
    assert isinstance(g, TableGroup) and checked == [g]
    idx = np.arange(32)
    assert np.array_equal(g.op(idx[:, None], idx[None, :]),
                          _semidirect32_bit_op(idx[:, None], idx[None, :]))
    assert np.array_equal(g.neg(idx), _semidirect32_bit_neg(idx))
    for a in range(32):
        assert g.neg(a) == _semidirect32_bit_neg(a)
        assert [g.op(a, b) for b in range(32)] == [
            _semidirect32_bit_op(a, b) for b in range(32)]
    assert (g.identity, g.arity, g.descriptor(), repr(g)) == (
        0, 2, {"type": "semidirect32"}, "Semidirect32")


_GENERATED_GROUPS = [CyclicGroup(n) for n in range(1, 25)] + [
    ProductGroup([CyclicGroup(2), CyclicGroup(2), CyclicGroup(4)]),
    Semidirect32(),
    # identity at label 5
    TableGroup(_relabeled(Semidirect32(),
                          [(7 * a + 5) % 32 for a in range(32)])),
]


@pytest.mark.parametrize("g", _GENERATED_GROUPS, ids=repr)
def test_generating_set_generates_without_a_redundant_generator(g):
    """Light's associativity test checks only through these generators, so
    they must generate the whole group; each lies outside the subgroup the
    ones before it generate."""
    gens = _generating_set(g)
    assert subgroup_closure(g, gens) == set(g.elements())
    for i, x in enumerate(gens):
        assert x not in subgroup_closure(g, gens[:i])


def test_is_subgroup_refuses_a_size_not_dividing_the_order(monkeypatch):
    calls = []
    difference = FiniteGroup.difference
    monkeypatch.setattr(FiniteGroup, "difference",
                        lambda *a: calls.append(1) or difference(*a))
    g = ProductGroup([CyclicGroup(2)] * 4)
    assert not is_subgroup(g, [0, 1, 2])  # 3 does not divide 16
    assert calls == []
    assert is_subgroup(g, [0, 1, 2, 3]) and calls == [1]


def test_verify_skips_the_subgroup_walk_on_a_sparse_family():
    # one block whose ~4,066 zero-difference elements cannot be a subgroup
    # of order 4,096: the report is the first mismatch, as before
    g = ProductGroup([CyclicGroup(2)] * 12)
    rep = verify(make_family(g, [[0, 1, 2, 4, 8, 16]]))
    assert rep.kind == INVALID
    w = rep.witness
    assert (w.element, w.expected, w.actual) == (7, 2, 0)


# a constructor refuses what make_group refuses in the same field, with the
# same one-line message
@pytest.mark.parametrize("n,says", [(4.0, "n 4.0"), (True, "n True")],
                         ids=["float", "bool"])
def test_cyclic_group_refuses_a_non_integer_order(n, says):
    with pytest.raises(ValueError, match=f"^{says} is not an integer$"):
        CyclicGroup(n)
    with pytest.raises(ValueError, match=f"^{says} is not an integer$"):
        make_group({"type": "cyclic", "n": n})


def test_cyclic_group_stores_a_numpy_order_as_an_int():
    g = CyclicGroup(np.int64(4))
    assert type(g.order) is int and g.descriptor() == {"type": "cyclic",
                                                       "n": 4}
    assert repr(g) == "Z4"
