import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from pdfam import multisets
from pdfam.catalog import order32_family
from pdfam.groups import (CyclicGroup, DiffConvention, ElementOutOfRangeError,
                          ProductGroup, Semidirect32, TableGroup)
from pdfam.multisets import (DF, DIFFERENCE_MULTISET, DS, INVALID, PDF,
                             RELATIVE_PDF, SDF, DesignFamily,
                             VerificationReport, Witness, delta_block,
                             delta_family, make_family, verify)
from pdfam.rings import GaloisField


def brute_delta(group, positions, convention=DiffConvention.RIGHT_INVERSE):
    """Independent oracle: per element, the ordered pairs of distinct
    positions whose difference it is, counted by group.op one pair at a
    time."""
    out = np.zeros(group.order, dtype=np.int64)
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
    got = delta_block(g, [1, 3, 1])
    assert np.array_equal(got, brute_delta(g, [1, 1, 3]))
    assert got[0] == 2  # the repeated element contributes identity twice


def test_delta_size_identity_small():
    g = CyclicGroup(7)
    for elems in ([0], [1, 2], [1, 1, 4], [0, 2, 3, 3, 5]):
        assert delta_block(g, elems).sum() == len(elems) * (len(elems) - 1)


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
    d = delta_block(g, elems, convention)
    assert d.shape == (g.order,)
    assert d.sum() == len(elems) * (len(elems) - 1)
    assert np.array_equal(d, brute_delta(g, sorted(elems), convention))


@settings(max_examples=200, deadline=None)
@given(group_strategy, st.sampled_from(list(DiffConvention)), st.data())
def test_delta_family_matches_oracle_property(g, convention, data):
    """Blocks of mixed lengths, with repeats: the family tally is the sum
    of the oracle's block tallies."""
    blocks = data.draw(st.lists(
        st.lists(st.integers(0, g.order - 1), min_size=1, max_size=8),
        min_size=1, max_size=5))
    fam = make_family(g, blocks, convention=convention)
    want = sum(brute_delta(g, b.tolist(), convention) for b in fam.blocks)
    assert np.array_equal(delta_family(fam), want)
    rep = verify(fam)
    assert rep.K == tuple(sorted(map(len, blocks)))


def pairwise_counts(group, rows, convention):
    """Oracle: per element, the ordered pairs of distinct positions of one
    row whose difference it is, counted from group.difference."""
    out = np.zeros(group.order, dtype=np.int64)
    for row in rows:
        r = np.array(row, dtype=np.int64)
        d = group.difference(r[:, None], r[None, :], convention)
        np.add.at(out, d[~np.eye(len(r), dtype=bool)], 1)
    return out


def _counts(group, rows, convention):
    """_tally's counts of the rows laid out flat, in the given order."""
    flat = np.array([e for row in rows for e in row], dtype=np.int64)
    offsets = np.cumsum([0, *map(len, rows)])
    return multisets._tally(group, flat, offsets, convention)[0]


# grids of 13, 15, 32 and 160 cells: with a chunk size below the grid, the
# grid is the chunk, so a row with k * k above it is cut into column slices
# and a longer stack of shorter rows into whole-row chunks
chunk_groups = st.sampled_from([
    CyclicGroup(7), ProductGroup([CyclicGroup(2), CyclicGroup(3)]),
    _relabeled_table(Semidirect32(), 5),
    ProductGroup([Semidirect32(), CyclicGroup(3)]),
])


@settings(max_examples=200, deadline=None)
@given(chunk_groups, st.sampled_from(list(DiffConvention)),
       st.sampled_from([1, 40, 300, multisets.CHUNK_CELLS]), st.data())
def test_chunked_tally_matches_pairwise_count(g, convention, chunk, data):
    """Stacks of equal-length rows (lengths repeat often) of 0 to 30
    positions, repeats allowed, tallied in chunks of every shape."""
    lengths = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 13, 30]),
                                 min_size=1, max_size=7))
    rows = [data.draw(st.lists(st.integers(0, g.order - 1), min_size=k,
                               max_size=k)) for k in lengths]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multisets, "CHUNK_CELLS", chunk)
        got = _counts(g, rows, convention)
    assert np.array_equal(got, pairwise_counts(g, rows, convention))


@pytest.mark.parametrize("convention", list(DiffConvention))
@pytest.mark.parametrize("g", [
    CyclicGroup(7), _relabeled_table(Semidirect32(), 5),
    ProductGroup([Semidirect32(), CyclicGroup(3)])], ids=repr)
@pytest.mark.parametrize("shape", [
    [(1, 40)],  # one row with k * k above the grid: column slices
    [(20, 3), (2, 40)],  # whole-row chunks next to column slices
    [(3, 0), (4, 1), (50, 2)],  # k in {0, 1} next to whole-row chunks
], ids=["one-long-row", "row-and-column-chunks", "k0-k1"])
def test_chunked_tally_spans_several_chunks(g, convention, shape):
    rng = np.random.default_rng(0)
    # a third of the group as elements, so long rows repeat them
    pool = rng.choice(g.order, size=max(2, g.order // 3), replace=False)
    rows = [rng.choice(pool, size=k).tolist()
            for count, k in shape for _ in range(count)]
    grid = g.difference_plan(convention).grid
    # chunks of one grid each: every stack of k >= 2 spans several
    for count, k in shape:
        chunks = list(multisets._chunks(np.zeros((count, k), np.int64), grid))
        assert len(chunks) > 1 or k < 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multisets, "CHUNK_CELLS", 1)
        got = _counts(g, rows, convention)
    assert np.array_equal(got, pairwise_counts(g, rows, convention))


@seed(28)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ProductGroup([CyclicGroup(3), Semidirect32()]),
                        Semidirect32(), _relabeled_table(Semidirect32(), 5)]),
       st.sampled_from(list(DiffConvention)), st.data())
def test_delta_block_is_the_one_block_family_tally(g, convention, data):
    """delta_block checks and counts one block as make_family and verify
    do: drawn with repeats, as a list or an array."""
    x = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1,
                           max_size=10))
    if data.draw(st.booleans()):
        x = np.array(x)
    d = delta_block(g, x, convention)
    assert not d.flags.writeable
    assert np.array_equal(
        d, delta_family(make_family(g, [x], convention=convention)))


@seed(29)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ProductGroup([CyclicGroup(3), CyclicGroup(4)]),
                        Semidirect32(), _relabeled_table(Semidirect32(), 5)]),
       st.sampled_from(list(DiffConvention)), st.integers(1, 40),
       st.integers(1, 8), st.data())
def test_row_tallies_match_the_tally_row_by_row(g, convention, n, k, data):
    """Row i of a stacked tally is _tally of row i as a one-block family;
    rows are drawn from a few elements, so they repeat them."""
    pool = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1,
                              max_size=6))
    x = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n * k,
                                    max_size=n * k))).reshape(n, k)
    counts, cover = multisets._row_tallies(g, x, convention)
    assert counts.shape == cover.shape == (n, g.order)
    for i in range(n):
        want, want_cover, _ = multisets._tally(g, x[i], np.array([0, k]),
                                               convention)
        assert np.array_equal(counts[i], want)
        assert np.array_equal(cover[i], want_cover)


def test_family_blocks_are_read_only_int64_slices_of_positions():
    fam = make_family(Semidirect32(), [[30, 3, 3], [17], np.array([9, 0])])
    assert isinstance(fam.blocks, tuple) and fam.blocks is fam.blocks
    assert [b.tolist() for b in fam.blocks] == [[3, 3, 30], [17], [0, 9]]
    for block in fam.blocks:
        assert np.shares_memory(block, fam.positions)
        _assert_block_format(block)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_abelian_delta_convention_invariant(data):
    g = data.draw(st.sampled_from(
        [CyclicGroup(9), ProductGroup([CyclicGroup(4), CyclicGroup(4)])]))
    elems = data.draw(st.lists(st.integers(0, g.order - 1),
                               min_size=2, max_size=7))
    assert np.array_equal(delta_block(g, elems, DiffConvention.RIGHT_INVERSE),
                          delta_block(g, elems, DiffConvention.LEFT_INVERSE))


def _assert_block_format(block):
    assert block.dtype == np.int64 and not block.flags.writeable
    assert (np.diff(block) >= 0).all()
    with pytest.raises(ValueError):
        block[0] = 0


def test_elements_are_sorted_read_only_int64():
    g = CyclicGroup(9)
    built = [multisets._block(g, [7, 2, 2, 0]),
             multisets._block(g, np.repeat([3, 1], 3)),
             *make_family(g, [[8, 5, 1, 0, 5], (4, 1, 4), np.array([5, 0])],
                          forbidden=[0, 3, 6]).blocks]
    for block in built:
        _assert_block_format(block)
    assert built[2].tolist() == [0, 1, 5, 5, 8]  # repeats kept, sorted
    # a difference count is an int64 array indexed by element, read-only
    d = delta_block(g, [6, 0, 2])
    assert d.dtype == np.int64 and d.shape == (g.order,)
    assert not d.flags.writeable
    with pytest.raises(ValueError):
        d[0] = 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_multiset_and_make_family_share_one_path(data):
    g = data.draw(st.sampled_from(
        [CyclicGroup(9), ProductGroup([CyclicGroup(4), CyclicGroup(4)]),
         Semidirect32()]))
    xs = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1,
                            max_size=12))
    block = multisets._block(g, xs)
    assert np.array_equal(block, make_family(g, [xs]).blocks[0])
    assert block.tolist() == sorted(xs)
    _assert_block_format(block)


@pytest.mark.parametrize("convention", list(DiffConvention),
                         ids=lambda c: c.value)
def test_block_sources_give_equal_families_and_reports(convention):
    g = Semidirect32()
    want = [[3, 3, 9, 30], [0, 17, 17, 17], [5]]
    sources = {
        "unsorted lists": [[30, 3, 9, 3], [17, 0, 17, 17], [5]],
        "tuples and iterators": [(9, 3, 30, 3), iter([17, 17, 0, 17]),
                                 range(5, 6)],
        "a family's blocks": make_family(g, want).blocks,
        "numpy rows": [np.array(b[::-1]) for b in want],
        "mixed": [make_family(g, [[9, 3, 30, 3]]).blocks[0],
                  np.array([17, 17, 0, 17]), (5,)],
    }
    families = {name: make_family(g, blocks, convention=convention)
                for name, blocks in sources.items()}
    first = families["unsorted lists"]
    assert [b.tolist() for b in first.blocks] == want
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
    rep = verify(make_family(g, [[0, 0, 3, 3, 5, 5, 6, 6]]))
    assert rep.kind == DIFFERENCE_MULTISET
    assert rep.lambda_or_mu == 8 and tuple(rep.K) == (8,)


def test_verify_sdf_multi_block():
    g = CyclicGroup(4)
    fam = make_family(g, [[0, 0], [1, 1, 2, 2, 3, 3]])
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


def reference_judge(family):
    """Oracle: verify's report, read off its docstring and counted in
    Counters.  H is the forbidden subgroup when one is declared; else the
    identity difference, when it occurs, makes a strong family, uniform
    everywhere; else H is the set of elements with no difference when that
    is a proper subgroup other than {identity}, and {identity} otherwise.
    Off H every count is lambda, the count of the least element off H, on
    H it is 0; an ordinary PDF's blocks cover every element once, a
    relative one's every element off H once and none on H.  The witness
    is the first element whose count is wrong, unless an element covered
    twice comes before it."""
    g, v, ident = family.group, family.group.order, family.group.identity
    delta, cover = Counter(), Counter()
    for b in family.blocks:
        r = np.asarray(b)
        d = g.difference(r[:, None], r[None, :], family.convention)
        delta.update(d[~np.eye(len(r), dtype=bool)].tolist())
        cover.update(r.tolist())
    sizes = tuple(sorted(map(len, family.blocks)))
    single = len(family.blocks) == 1

    def invalid(e, want):
        over = [x for x in range(v) if cover[x] > 1]
        if over and over[0] < e:
            wit = Witness(over[0], g.coords(over[0]), 1, cover[over[0]],
                          "partition")
        else:
            wit = Witness(e, g.coords(e), want, delta[e], "difference-count")
        return VerificationReport(INVALID, v, 1, sizes, None, wit)

    if family.forbidden is None and delta[ident]:
        mu = delta[ident]
        wrong = [e for e in range(v) if delta[e] != mu]
        if wrong:
            return invalid(wrong[0], mu)
        return VerificationReport(DIFFERENCE_MULTISET if single else SDF,
                                  v, 1, sizes, mu)
    if family.forbidden is not None:
        h_set = set(family.forbidden)
    else:
        zeros = [e for e in range(v) if delta[e] == 0]
        z = np.array(zeros)
        closed = np.isin(g.difference(z[:, None], z[None, :]), z).all()
        h_set = set(zeros) if 1 < len(zeros) < v and closed else {ident}
    outside = [e for e in range(v) if e not in h_set]
    lam = delta[outside[0]] if outside else 0
    for e in range(v):
        want = 0 if e in h_set else lam
        if delta[e] != want:
            return invalid(e, want)
    h = len(h_set)
    target = [0 if e in h_set and h > 1 else 1 for e in range(v)]
    if single:
        kind = DS
    elif all(cover[e] == target[e] for e in range(v)):
        kind = PDF if h == 1 else RELATIVE_PDF
    else:
        kind = DF
    partition = None
    if kind in (PDF, RELATIVE_PDF):
        partition = "group" if h == 1 else "group-minus-forbidden"
    return VerificationReport(kind, v, h, sizes, lam,
                              partition_target=partition)


def _cyclic_subgroup(g, x):
    members, y = [g.identity], x
    while y != g.identity:
        members.append(y)
        y = g.op(y, x)
    return members


# (v, 2 lambda, lambda) difference multisets: (3, 2, 1) and (11, 6, 3)
# difference sets with every element doubled
DOUBLED_DS = {3: [0, 0, 2, 2], 11: [x for x in (0, 2, 6, 7, 8, 10)
                                    for _ in (0, 1)]}


@st.composite
def judged_families(draw):
    """A family over a group_strategy group, under either convention: a
    random one, or one of a few shapes that certify (under the right
    convention at least), with its blocks doubled or not, a forbidden
    subgroup S declared or not, and one element moved to another block or
    replaced or not."""
    g = draw(group_strategy)
    convention = draw(st.sampled_from(list(DiffConvention)))
    v, element = g.order, st.integers(0, g.order - 1)
    sub = _cyclic_subgroup(g, draw(element))
    off_sub = [x for x in range(v) if x not in sub]
    shapes = ["random", "pdf", "ds", "singletons off S"]
    if v <= 32:
        shapes += ["pairs off S"] * bool(off_sub) + ["sdf"] * (v % 2 == 0)
    if g == Semidirect32():
        shapes.append("order-32 pdf")
    if g in map(CyclicGroup, DOUBLED_DS):
        shapes.append("dm")
    shape = draw(st.sampled_from(shapes))
    e = draw(element)
    if shape == "random":
        blocks = draw(st.lists(st.lists(element, min_size=1, max_size=8),
                               min_size=1, max_size=5))
    elif shape == "pdf":  # {e} and its complement
        blocks = [[e], [x for x in range(v) if x != e]]
    elif shape == "ds":  # the complement of {e}, a (v, v-1, v-2) set
        blocks = [[x for x in range(v) if x != e]]
    elif shape == "singletons off S":  # no difference, S uncovered
        blocks = [[x] for x in off_sub] or [[e]]
    elif shape == "pairs off S":  # v of every difference off S
        blocks = [[x, y] for x in range(v) for y in range(x + 1, v)
                  if g.difference(x, y) not in sub]
    elif shape == "sdf":  # every pair, and v identity differences
        blocks = [[x, y] for x in range(v) for y in range(x + 1, v)]
        blocks += [[x, x] for x in range(v // 2)]
    elif shape == "order-32 pdf":
        blocks = [b.tolist() for b in order32_family().blocks]
    else:
        blocks = [DOUBLED_DS[v]]
    if draw(st.integers(0, 3)) == 0:  # every element repeated
        blocks = [b * 2 for b in blocks]
    declared = shape in ("singletons off S", "pairs off S")
    forbidden = sub if draw(st.integers(0, 3)) < 1 + declared else None
    mutation = draw(st.sampled_from(["none", "none", "move", "replace"]))
    i = draw(st.integers(0, len(blocks) - 1))
    j = draw(st.integers(0, len(blocks[i]) - 1))
    if mutation == "replace":
        blocks[i] = blocks[i][:j] + [draw(element)] + blocks[i][j + 1:]
    elif mutation == "move" and len(blocks) > 1 and len(blocks[i]) > 1:
        to = draw(st.integers(0, len(blocks) - 2))
        to += to >= i
        blocks[to] = blocks[to] + [blocks[i][j]]
        blocks[i] = blocks[i][:j] + blocks[i][j + 1:]
    return make_family(g, blocks, forbidden, convention)


@settings(max_examples=300, deadline=None)
@given(judged_families())
def test_verify_report_matches_reference_judge(family):
    rep = verify(family)
    event(rep.kind if rep.ok else rep.witness.context)
    assert rep == reference_judge(family)


def _as_form(g, row, form):
    return {"list": list, "tuple": tuple, "array": np.array,
            "family block": lambda r: make_family(g, [r]).blocks[0]}[form](row)


@seed(26)
@settings(max_examples=200, deadline=None)
@given(group_strategy, st.sampled_from(list(DiffConvention)), st.data())
def test_flat_family_matches_a_counter_reference(g, convention, data):
    """Blocks of mixed sizes in any order, repeats allowed, each a list,
    tuple, numpy array or another family's block: the flat family's tally
    and report
    are those of Counters over the input rows, its blocks are read-only
    views equal to the sorted rows, and an extension keeps the tally a
    new family counts."""
    rows = data.draw(st.lists(
        st.lists(st.integers(0, g.order - 1), min_size=1, max_size=9),
        min_size=1, max_size=6))
    forms = [data.draw(st.sampled_from(["list", "tuple", "array",
                                        "family block"])) for _ in rows]
    event("one block" if len(rows) == 1 else "several blocks")
    fam = make_family(g, [_as_form(g, r, f) for r, f in zip(rows, forms)],
                      convention=convention)

    delta, cover = Counter(), Counter()
    for row in rows:
        delta.update(int(g.difference(a, b, convention))
                     for i, a in enumerate(row)
                     for j, b in enumerate(row) if i != j)
        cover.update(row)
    counts, covered, sizes = multisets._kept_tally(fam)
    assert counts.tolist() == [delta[e] for e in range(g.order)]
    assert covered.tolist() == [cover[e] for e in range(g.order)]
    assert sizes == tuple(sorted(map(len, rows)))
    assert verify(fam) == reference_judge(SimpleNamespace(
        group=g, blocks=[np.array(r) for r in rows], forbidden=None,
        convention=convention))

    for array in (fam.positions, fam.offsets):
        assert array.dtype == np.int64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    assert [b.tolist() for b in fam.blocks] == [sorted(r) for r in rows]
    for b in fam.blocks:
        assert np.shares_memory(b, fam.positions)
        _assert_block_format(b)

    cut = data.draw(st.integers(1, len(rows)))
    if cut < len(rows):
        rest = make_family(g, rows[cut:])
        ext = multisets._extend(make_family(g, rows[:cut],
                                            convention=convention),
                                rest.positions, rest.offsets)
        fresh = make_family(g, rows, convention=convention)
        assert ext == fresh
        kept, counted = multisets._kept_tally(ext), multisets._tally(
            g, fresh.positions, fresh.offsets, convention)
        assert all(np.array_equal(a, b) for a, b in zip(kept[:2], counted))
        assert kept[2] == counted[2]
        assert verify(ext) == verify(fresh)


def test_family_validation():
    g = CyclicGroup(4)
    with pytest.raises(ValueError):
        make_family(g, [])
    with pytest.raises(ValueError):
        make_family(g, [[0, 1]], forbidden={1, 2})  # not a subgroup


@pytest.mark.parametrize("build,error,says", [
    (lambda g: delta_block(g, {0: 2}), ValueError,
     "a block is an iterable of positions, not a dict"),
    (lambda g: make_family(g, [[1], {0: 2}]), ValueError,
     "a block is an iterable of positions, not a dict"),
    (lambda g: DesignFamily(g, ([1], [])), ValueError, "empty block"),
], ids=["dict-multiset", "dict-block", "empty-block"])
def test_multisets_refuse_bad_input(build, error, says):
    with pytest.raises(error, match=f"^{says}$"):
        build(CyclicGroup(7))


@pytest.mark.parametrize("blocks", [
    [[0.5, 1.9, 3]],          # int() made this {0, 1, 3}
    [[True, 3]],              # and this {1, 3}
    [[0, 1], [2, np.float64(3.0)]],
    [[np.bool_(True), 2]],
    [(0, 2.5)],
])
def test_make_family_refuses_float_and_bool_elements(blocks):
    with pytest.raises(ValueError, match="is not an integer"):
        make_family(CyclicGroup(7), blocks)


def test_multiset_refuses_float_and_bool_elements():
    for bad in ([1.0], [False], [1, 2.5]):
        with pytest.raises(ValueError, match="is not an integer"):
            delta_block(CyclicGroup(7), bad)
    with pytest.raises(ValueError, match="is not an integer"):
        delta_block(CyclicGroup(7), np.array([True, False]))
    with pytest.raises(ValueError, match="is not an integer"):
        make_family(CyclicGroup(7), [[0]], forbidden=[0.0])
    with pytest.raises(ValueError, match="is not an integer"):
        # accepted, and then verify ended in a bare IndexError
        DesignFamily(CyclicGroup(4), make_family(CyclicGroup(4), [[1]]).blocks,
                     frozenset({0, 2.0}))


def test_make_family_accepts_numpy_integers_as_python_ints():
    g = CyclicGroup(7)
    fam = make_family(g, [np.array([3, 1, 1]), [np.int32(2), 6]],
                      forbidden=np.array([0]))
    assert [b.tolist() for b in fam.blocks] == [[1, 1, 3], [2, 6]]
    assert all(b.dtype == np.int64 for b in fam.blocks)
    assert all(type(e) is int for e in fam.forbidden)
    assert multisets._block(g, np.arange(3)).tolist() == [0, 1, 2]


def test_make_family_names_first_out_of_range_element_in_block_order():
    g = CyclicGroup(7)
    for blocks, first in (([[0, 1], [2, 99, -1]], 99),
                          ([[0, 1], [-3, 99]], -3),
                          ([[9], np.array([0]), [8]], 9)):
        with pytest.raises(ElementOutOfRangeError,
                           match=rf"^element {first} outside 0\.\.6$"):
            make_family(g, blocks)


def test_family_blocks_over_an_equal_group_object():
    fam = make_family(CyclicGroup(7),
                      make_family(CyclicGroup(7), [[0, 1, 3]]).blocks)
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
    total = sum(delta_block(g, b) for b in fam.blocks)
    assert np.array_equal(delta_family(fam), total)


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
    assert np.array_equal(delta_family(left), sum(
        delta_block(g, b, DiffConvention.LEFT_INVERSE) for b in left.blocks))
    assert not np.array_equal(delta_family(left), delta_family(right))


def test_a_family_cannot_change_under_its_kept_tally():
    g = CyclicGroup(7)
    blocks = [[0, 1, 3]]
    fam = DesignFamily(g, blocks)
    first = verify(fam)
    assert first.kind == DS
    blocks.append([2, 4, 5, 6])
    assert isinstance(fam.blocks, tuple) and len(fam.blocks) == 1
    assert verify(fam) == first == verify(DesignFamily(g, fam.blocks))
    counts, cover, _ = multisets._kept_tally(fam)
    assert not counts.flags.writeable and not cover.flags.writeable
    assert fam == DesignFamily(g, fam.blocks)
    assert "kept" not in repr(fam)


def _judges(monkeypatch) -> Counter:
    """A count of the judge's calls, kept while the test runs."""
    seen, real = Counter(), multisets._judge

    def judge(*args):
        seen["judge"] += 1
        return real(*args)

    monkeypatch.setattr(multisets, "_judge", judge)
    return seen


def test_a_repeated_verify_returns_the_kept_report(monkeypatch):
    seen = _judges(monkeypatch)
    fam = make_family(CyclicGroup(7), [[1, 2, 4]])
    first = verify(fam)
    assert first.kind == DS
    assert verify(fam) is first and verify(fam) is first
    assert seen["judge"] == 1


def test_keeping_a_tally_again_makes_verify_judge_again(monkeypatch):
    seen = _judges(monkeypatch)
    g = CyclicGroup(7)
    fam = make_family(g, [[1, 2, 4]])
    first = verify(fam)
    multisets._keep(fam, *multisets._tally(g, fam.positions, fam.offsets,
                                           fam.convention))
    again = verify(fam)
    assert again == first and again is not first
    assert seen["judge"] == 2
    # the report is read from the kept tally, whatever it holds
    other = make_family(g, [[0, 1]])
    multisets._keep(fam, *multisets._tally(g, other.positions, other.offsets,
                                           other.convention))
    assert verify(fam) == verify(other) and verify(fam).kind == INVALID
    assert seen["judge"] == 4


def test_replace_reads_the_new_convention_after_verify():
    g, left = Semidirect32(), DiffConvention.LEFT_INVERSE
    blocks = [[1, 10], [3, 12, 21]]
    right_fam, left_fam = (make_family(g, blocks, convention=c)
                           for c in (DiffConvention.RIGHT_INVERSE, left))
    right = verify(right_fam)
    assert right != verify(left_fam)  # the two conventions' reports differ
    replaced = replace(right_fam, convention=left)
    assert verify(replaced) == verify(left_fam)
    assert np.array_equal(delta_family(replaced), delta_family(left_fam))
    assert verify(right_fam) == right


def test_a_family_refuses_an_unhashable_convention():
    # once the group had a plan cached, ['x'] ended in a bare TypeError
    # from the plan lookup
    g = CyclicGroup(7)
    verify(make_family(g, [[1, 2, 4]]))
    with pytest.raises(ValueError,
                       match=r"^unknown difference convention \['x'\]$"):
        make_family(g, [[1, 2, 4]], convention=["x"])


def test_a_family_refuses_a_convention_name_when_built():
    # "right" used to build a family that failed only when verified
    g = CyclicGroup(7)
    fam = make_family(g, [[1, 2, 4]])
    for build in (lambda: make_family(g, [[1, 2, 4]], convention="right"),
                  lambda: replace(fam, convention="right")):
        with pytest.raises(ValueError,
                           match="^unknown difference convention 'right'$"):
            build()


@settings(max_examples=150, deadline=None)
@given(group_strategy, st.sampled_from(list(DiffConvention)), st.data())
def test_delta_family_is_a_read_only_view_of_the_kept_tally(g, convention,
                                                            data):
    blocks = data.draw(st.lists(
        st.lists(st.integers(0, g.order - 1), min_size=1, max_size=8),
        min_size=1, max_size=4))
    fam = make_family(g, blocks, convention=convention)
    report = verify(make_family(g, blocks, convention=convention))
    d = delta_family(fam)
    assert d.dtype == np.int64 and d.shape == (g.order,)
    assert np.array_equal(d, sum(delta_block(g, b, convention)
                                 for b in fam.blocks))
    assert np.array_equal(d, sum(brute_delta(g, b.tolist(), convention)
                                 for b in fam.blocks))
    kept = multisets._kept_tally(fam)[0]
    assert d.base is kept and np.shares_memory(d, kept)  # no copy
    with pytest.raises(ValueError):
        d[0] += 1
    with pytest.raises(ValueError):
        d.setflags(write=True)
    assert verify(fam) == report


def _peak_mb_of(code: str) -> int:
    """VmHWM, in MB, of a fresh interpreter that runs code."""
    child = f"{code}\nfrom pdfam.cli import peak_rss_mb\nprint(peak_rss_mb())\n"
    src = str(Path(multisets.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.mark.parametrize("code", [
    "delta_family(paley_double_sdf(6007).family)",
    "f = paley_double_sdf(10007).family\ndelta_block(f.group, f.blocks[0])",
], ids=["family-q6007", "block-q10007"])
def test_paley_differences_stay_under_60_mb(code):
    """Differences laid out one per position took 36M (q=6007) and 100M
    (q=10007) int64 positions, 306 MB and 795 MB peaks; the count arrays
    hold a few hundred KB."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    assert _peak_mb_of(
        "from pdfam.constructions import paley_double_sdf\n"
        "from pdfam.multisets import delta_block, delta_family\n"
        f"{code}") < 60
