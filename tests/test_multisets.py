from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfam.groups import (CyclicGroup, DiffConvention, ElementOutOfRangeError,
                          ProductGroup, Semidirect32, TableGroup)
from pdfam.multisets import (DF, DIFFERENCE_MULTISET, DS, INVALID, PDF,
                             RELATIVE_PDF, SDF, DesignFamily,
                             GroupMismatchError, Multiset, delta_block,
                             delta_family, make_family, verify)
from pdfam.rings import GaloisField


def multiset_sum(a, b):
    """Oracle: the multiset with both operands' positions."""
    assert a.group == b.group
    return Multiset(a.group, list(a) + list(b))


def brute_delta(group, positions, convention=DiffConvention.RIGHT_INVERSE):
    """Independent oracle: difference list over ordered pairs of positions."""
    out = Counter()
    for i, a in enumerate(positions):
        for j, b in enumerate(positions):
            if i != j:
                nb = group.neg(b)
                out[group.op(a, nb)
                    if convention is DiffConvention.RIGHT_INVERSE
                    else group.op(nb, a)] += 1
    return out


def test_delta_block_matches_oracle_with_repeats():
    g = CyclicGroup(5)
    x = Multiset(g, counts={1: 2, 3: 1})
    got = delta_block(x).counts
    assert got == brute_delta(g, [1, 1, 3])
    assert got[0] == 2  # the repeated element contributes identity twice


def test_delta_size_identity_small():
    g = CyclicGroup(7)
    for elems in ([0], [1, 2], [1, 1, 4], [0, 2, 3, 3, 5]):
        x = Multiset(g, elements=elems)
        assert delta_block(x).size == len(elems) * (len(elems) - 1)


def _relabeled_table(g, shift):
    """g as a Cayley table with element a renamed (a + shift) mod |g|, so
    the identity is off label 0."""
    n = g.order
    t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            t[(a + shift) % n][(b + shift) % n] = (g.op(a, b) + shift) % n
    return TableGroup(t)


group_strategy = st.sampled_from([
    CyclicGroup(3), CyclicGroup(8), CyclicGroup(11),
    ProductGroup([CyclicGroup(2), CyclicGroup(6)]), Semidirect32(),
    # nested products mixing cyclic, Semidirect32 and relabeled tables
    ProductGroup([CyclicGroup(3),
                  ProductGroup([Semidirect32(), CyclicGroup(2)])]),
    ProductGroup([_relabeled_table(CyclicGroup(4), 2), Semidirect32()]),
    ProductGroup([ProductGroup([CyclicGroup(1),
                                _relabeled_table(Semidirect32(), 5)]),
                  CyclicGroup(5)]),
    _relabeled_table(Semidirect32(), 5),
    # the shape of a lift's ambient group: a table times a field's Zp^k
    ProductGroup([_relabeled_table(Semidirect32(), 5),
                  GaloisField(3, 2).additive]),
])


@settings(max_examples=200, deadline=None)
@given(group_strategy, st.sampled_from(list(DiffConvention)), st.data())
def test_delta_size_identity_property(g, convention, data):
    elems = data.draw(st.lists(st.integers(0, g.order - 1),
                               min_size=1, max_size=8))
    x = Multiset(g, elements=elems)
    d = delta_block(x, convention)
    assert d.group == g
    assert d.size == x.size * (x.size - 1)
    assert d.counts == brute_delta(g, x.positions(), convention)


@settings(max_examples=200, deadline=None)
@given(group_strategy, st.sampled_from(list(DiffConvention)), st.data())
def test_delta_family_matches_oracle_property(g, convention, data):
    """Blocks of mixed lengths, with repeats: the family tally is the sum
    of the oracle's block tallies."""
    blocks = data.draw(st.lists(
        st.lists(st.integers(0, g.order - 1), min_size=1, max_size=8),
        min_size=1, max_size=5))
    fam = make_family(g, blocks, convention=convention)
    want = Counter()
    for b in fam.blocks:
        want.update(brute_delta(g, b.positions(), convention))
    assert delta_family(fam).counts == want
    rep = verify(fam)
    assert rep.K == tuple(sorted(map(len, blocks)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_abelian_delta_convention_invariant(data):
    g = data.draw(st.sampled_from(
        [CyclicGroup(9), ProductGroup([CyclicGroup(4), CyclicGroup(4)])]))
    elems = data.draw(st.lists(st.integers(0, g.order - 1),
                               min_size=2, max_size=7))
    x = Multiset(g, elements=elems)
    assert (delta_block(x, DiffConvention.RIGHT_INVERSE).counts
            == delta_block(x, DiffConvention.LEFT_INVERSE).counts)


def test_multiset_basics():
    g = CyclicGroup(6)
    x = Multiset(g, elements=[5, 1, 1])
    assert x.size == 3 and x.mult(1) == 2 and not x.is_set
    assert x.positions() == [1, 1, 5]
    assert x.scaled(2).counts == {1: 4, 5: 2}
    y = Multiset(g, counts={1: 1})
    assert multiset_sum(x, y).counts == {1: 3, 5: 1}


def _assert_block_format(ms):
    e = ms.elements
    assert e.dtype == np.int64 and not e.flags.writeable
    assert (np.diff(e) >= 0).all()
    with pytest.raises(ValueError):
        e[0] = 0


def test_elements_are_sorted_read_only_int64():
    g = CyclicGroup(9)
    built = [Multiset(g, elements=[7, 2, 2, 0]),
             Multiset(g, [8, 1], counts={5: 2, 0: 1}),
             Multiset(g, elements=np.array([4, 3, 4])),
             Multiset(g, elements=[3, 1]).scaled(3),
             delta_block(Multiset(g, elements=[6, 0, 2])),
             *make_family(g, [[8, 3, 3], {4: 2, 1: 1}, np.array([5, 0])],
                          forbidden=[0, 3, 6]).blocks]
    for ms in built:
        _assert_block_format(ms)
    assert built[1].positions() == [0, 1, 5, 5, 8]
    assert repr(built[1]) == "Multiset{0, 1, 5x2, 8}"
    counts = built[1].counts
    counts[0] += 5  # a fresh Counter: the multiset stays as it was
    assert built[1].counts == {0: 1, 1: 1, 5: 2, 8: 1}


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_block_sources_give_equal_families_and_reports(convention):
    g = Semidirect32()
    want = [[3, 3, 9, 30], [0, 17, 17, 17], [5]]
    sources = {
        "unsorted lists": [[30, 3, 9, 3], [17, 0, 17, 17], [5]],
        "count dicts": [{3: 2, 30: 1, 9: 1}, {17: 3, 0: 1}, {5: 1}],
        "multisets": [Multiset(g, b) for b in want],
        "numpy rows": [np.array(b[::-1]) for b in want],
        "mixed": [Multiset(g, counts={9: 1, 3: 2}, elements=[30]),
                  np.array([17, 17, 0, 17]), {5: 1}],
    }
    families = {name: make_family(g, blocks, convention=convention)
                for name, blocks in sources.items()}
    first = families["unsorted lists"]
    assert [b.positions() for b in first.blocks] == want
    reports = {verify(f) for f in families.values()}
    assert len(reports) == 1  # the same report, witness included
    for fam in families.values():
        assert fam == first
        for b in fam.blocks:
            _assert_block_format(b)


# -- classifier ------------------------------------------------------------

def test_verify_trivial_hadamard_pdf():
    g = CyclicGroup(4)
    rep = verify(make_family(g, [[0], [1, 2, 3]]))
    assert rep.kind == PDF
    assert (rep.v, tuple(rep.K), rep.lambda_or_mu) == (4, (1, 3), 2)
    assert rep.v == 2 * rep.lambda_or_mu  # Hadamard


def test_verify_overlapping_blocks_invalid_partition_witness():
    g = CyclicGroup(4)
    rep = verify(make_family(g, [[0, 1], [0, 2]]))
    assert rep.kind == INVALID
    assert rep.witness.context == "partition"
    assert rep.witness.element == 0  # first doubly covered element wins


def test_verify_difference_set():
    g = CyclicGroup(7)
    rep = verify(make_family(g, [[1, 2, 4]]))  # quadratic residues mod 7
    assert rep.kind == DS
    assert (rep.v, tuple(rep.K), rep.lambda_or_mu, rep.h) == (7, (3,), 1, 1)


def test_verify_difference_multiset():
    g = CyclicGroup(7)
    rep = verify(make_family(g, [{0: 2, 3: 2, 5: 2, 6: 2}]))
    assert rep.kind == DIFFERENCE_MULTISET
    assert rep.lambda_or_mu == 8 and tuple(rep.K) == (8,)


def test_verify_sdf_multi_block():
    g = CyclicGroup(4)
    fam = make_family(g, [{0: 2}, {1: 2, 2: 2, 3: 2}])
    rep = verify(fam)
    assert rep.kind == SDF
    assert rep.lambda_or_mu == 8


def test_verify_relative_pdf():
    # lifted blocks over Z4 x Z7: base pair {0},{1,2,3}, f = (3,3,2,6),
    # one block pair per multiplier s; partitions everything off Z4 x {0}
    g = ProductGroup([CyclicGroup(4), CyclicGroup(7)])
    f = {0: 3, 1: 3, 2: 2, 3: 6}
    blocks = []
    for s in (1, 2, 3):
        blocks.append([g.index_of((0, (s * f[0]) % 7)),
                       g.index_of((0, (-s * f[0]) % 7))])
        blocks.append([g.index_of((d, (sign * s * f[d]) % 7))
                       for d in (1, 2, 3) for sign in (1, -1)])
    forb = frozenset(g.index_of((d, 0)) for d in range(4))
    rep = verify(make_family(g, blocks, forbidden=forb))
    assert rep.kind == RELATIVE_PDF
    assert (rep.v, rep.h, rep.lambda_or_mu) == (28, 4, 4)
    assert tuple(rep.K) == (2, 2, 2, 6, 6, 6)
    assert rep.partition_target == "group-minus-forbidden"


def test_verify_df_with_declared_forbidden():
    g = CyclicGroup(4)
    fam = make_family(g, [[0, 1], [0, 3]], forbidden={0, 2})
    rep = verify(fam)
    assert rep.kind == DF
    assert rep.h == 2 and rep.lambda_or_mu == 2


def test_verify_invalid_difference_count_witness_order():
    g = CyclicGroup(5)
    rep = verify(make_family(g, [[0, 1]]))  # 1 and 4 covered once, 2,3 never
    assert rep.kind == INVALID
    assert rep.witness.context == "difference-count"
    assert rep.witness.element == 2  # first element violating uniformity


def test_family_validation():
    g = CyclicGroup(4)
    with pytest.raises(ValueError):
        make_family(g, [])
    with pytest.raises(ValueError):
        make_family(g, [[0, 1]], forbidden={1, 2})  # not a subgroup


@pytest.mark.parametrize("build,error,says", [
    (lambda g: Multiset(g, counts={1: -1}), ValueError,
     "negative multiplicity"),
    (lambda g: Multiset(g, [1, 2]).scaled(-1), ValueError, "negative scale"),
    (lambda g: DesignFamily(g, (Multiset(CyclicGroup(5), [1]),)),
     GroupMismatchError, "block over a different group"),
    (lambda g: DesignFamily(g, (Multiset(g, [1]), Multiset(g))), ValueError,
     "empty block"),
], ids=["negative-multiplicity", "negative-scale", "foreign-block",
        "empty-block"])
def test_multisets_refuse_bad_input(build, error, says):
    with pytest.raises(error, match=f"^{says}$"):
        build(CyclicGroup(7))


@pytest.mark.parametrize("blocks", [
    [[0.5, 1.9, 3]],          # int() made this {0, 1, 3}
    [[True, 3]],              # and this {1, 3}
    [[0, 1], [2, np.float64(3.0)]],
    [[np.bool_(True), 2]],
    [{0: 1, 2.5: 1}],
])
def test_make_family_refuses_float_and_bool_elements(blocks):
    with pytest.raises(ValueError, match="is not an integer"):
        make_family(CyclicGroup(7), blocks)


def test_multiset_refuses_float_and_bool_elements():
    for bad in ([1.0], [False], [1, 2.5]):
        with pytest.raises(ValueError, match="is not an integer"):
            Multiset(CyclicGroup(7), elements=bad)
    with pytest.raises(ValueError, match="is not an integer"):
        Multiset(CyclicGroup(7), counts={True: 2})
    with pytest.raises(ValueError, match="is not an integer"):
        make_family(CyclicGroup(7), [[0]], forbidden=[0.0])
    with pytest.raises(ValueError, match="is not an integer"):
        # accepted, and then verify ended in a bare IndexError
        DesignFamily(CyclicGroup(4), make_family(CyclicGroup(4), [[1]]).blocks,
                     frozenset({0, 2.0}))


@pytest.mark.parametrize("m,says", [
    (2.7, "is not an integer"), (2.0, "is not an integer"),
    (True, "is not an integer"), (np.float64(2.0), "is not an integer"),
    (np.bool_(True), "is not an integer"),
    # int64 conversion used to raise a bare OverflowError
    (2 ** 70, "does not fit in int64"),
], ids=["float", "whole-float", "bool", "numpy-float", "numpy-bool",
        "beyond-int64"])
def test_multiset_refuses_float_and_bool_multiplicities(m, says):
    with pytest.raises(ValueError, match=rf"^multiplicity \S+ {says}$"):
        Multiset(CyclicGroup(7), counts={1: m})


def test_multiset_accepts_numpy_integer_multiplicities():
    ms = Multiset(CyclicGroup(7), counts={np.int64(1): np.int32(2), 3: 1})
    assert ms.counts == {1: 2, 3: 1}
    assert all(type(m) is int for m in ms.counts.values())


def test_make_family_accepts_numpy_integers_as_python_ints():
    g = CyclicGroup(7)
    fam = make_family(g, [np.array([3, 1, 1]), [np.int32(2), 6]],
                      forbidden=np.array([0]))
    assert [b.positions() for b in fam.blocks] == [[1, 1, 3], [2, 6]]
    assert all(type(e) is int for b in fam.blocks for e in b.positions())
    assert all(type(e) is int for e in fam.forbidden)
    assert Multiset(g, elements=np.arange(3)).positions() == [0, 1, 2]


def test_make_family_names_first_out_of_range_element_in_block_order():
    g = CyclicGroup(7)
    for blocks, first in (([[0, 1], [2, 99, -1]], 99),
                          ([[0, 1], [-3, 99]], -3),
                          ([[9], {0: 1}, [8]], 9)):
        with pytest.raises(ElementOutOfRangeError,
                           match=rf"^element {first} outside 0\.\.6$"):
            make_family(g, blocks)


def test_family_blocks_over_an_equal_group_object():
    fam = make_family(CyclicGroup(7), [Multiset(CyclicGroup(7), [0, 1, 3])])
    assert verify(fam).kind == DS


def test_verify_order32_catalog_blocks_inline():
    # the sporadic non-abelian family, entered directly
    g = Semidirect32()
    x1 = [(0, 0), (2, 0)]
    x2 = [(1, 0), (3, 4)]
    x3 = [(0, 1), (0, 3), (1, 2), (1, 5), (1, 6), (3, 3)]
    blocks = [sorted(g.index_of(c) for c in b) for b in (x1, x2, x3)]
    rest = sorted(set(range(32)) - set().union(*blocks))
    for conv in DiffConvention:
        rep = verify(make_family(g, blocks + [rest], convention=conv))
        assert rep.kind == PDF
        assert (rep.v, tuple(rep.K), rep.lambda_or_mu) == (32, (2, 2, 6, 22), 16)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_family_is_sum_of_blocks(data):
    g = CyclicGroup(9)
    nblocks = data.draw(st.integers(1, 3))
    blocks = [data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=5))
              for _ in range(nblocks)]
    fam = make_family(g, blocks)
    total = Counter()
    for b in fam.blocks:
        total.update(delta_block(b).counts)
    assert delta_family(fam).counts == total


def test_family_equality_tells_conventions_apart():
    g = Semidirect32()
    right = make_family(g, [[1, 10], [3, 12, 21]])
    left = make_family(g, [[1, 10], [3, 12, 21]],
                       convention=DiffConvention.LEFT_INVERSE)
    assert right.convention is DiffConvention.RIGHT_INVERSE
    assert right != left and left != right
    assert left == replace(right, convention=DiffConvention.LEFT_INVERSE)
    assert right == make_family(g, [[1, 10], [3, 12, 21]],
                                convention=DiffConvention.RIGHT_INVERSE)
    # the convention is what verify reads: the first failing count differs
    assert verify(right).witness.actual == 2
    assert verify(left).witness.actual == 1
    assert delta_family(left) == multiset_sum(
        *(delta_block(b, DiffConvention.LEFT_INVERSE) for b in left.blocks))
    assert delta_family(left) != delta_family(right)
