"""End-to-end acceptance gate.

One test function per acceptance clause; each prints a tagged PASS/FAIL
line and enforces its time budget.  A few clauses are pinned to declared
targets that the underlying arithmetic does not actually support (the
per-block completion, the exactly-one-convention claim, and the size of
the largest admissible unit set in Z25); those tests fail by design and
the analysis lives in the README's caveats section.  Do not relax them.
"""

import random
from dataclasses import replace
from itertools import combinations
from math import gcd
from time import perf_counter

import numpy as np
import pytest

from pdfam.catalog import catalog_family, certify_catalog, order32_family
from pdfam.constructions import (complement_pdf, double_sdf,
                                 expand_from_hds, expand_nonabelian32,
                                 make_recipe, paley_double_sdf)
from pdfam.groups import (CyclicGroup, DiffConvention, ProductGroup,
                          Semidirect32)
from pdfam.multisets import (DIFFERENCE_MULTISET, DS, PDF, SDF, delta_block,
                             delta_family, make_family, verify)
from pdfam.rings import (GaloisField, ProductRing, Zmod, check_y_condition,
                         starter_reps)
from pdfam.search import (SearchBounds, abelian_groups_order16,
                          max_unit_y_search, search_hds)

AC4_MODULI = tuple(m for m in range(7, 101, 2) if gcd(m, 15) == 1)


def is_hadamard_pdf(rep):
    """The Hadamard condition on a PDF report: v = 2 * lambda."""
    return rep.kind == PDF and rep.v == 2 * rep.lambda_or_mu


def order32_certified_conventions():
    """Conventions under which the order-32 catalog entry certifies."""
    return tuple(c.convention for c in certify_catalog()
                 if c.name == "order-32" and c.certified)


def report(tag, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag}: {'PASS' if ok else 'FAIL'}{suffix}")


# -- shared expensive builds ------------------------------------------------

@pytest.fixture(scope="module")
def ac4_sweep():
    t0 = perf_counter()
    pairs = {m: expand_from_hds(1, m) for m in AC4_MODULI}
    return pairs, perf_counter() - t0


@pytest.fixture(scope="module")
def ac6_pair():
    t0 = perf_counter()
    pair = expand_nonabelian32(47)
    return pair, perf_counter() - t0


@pytest.fixture(scope="module")
def z25_search():
    t0 = perf_counter()
    res = max_unit_y_search(Zmod(25))
    return res, perf_counter() - t0


# -- AC1: the order-32 catalog entry ----------------------------------------

def test_ac01_order32_certifies():
    t0 = perf_counter()
    rep = verify(order32_family())
    elapsed = perf_counter() - t0
    ok = (rep.kind == PDF
          and (rep.v, tuple(rep.K), rep.lambda_or_mu) == (32, (2, 2, 6, 22), 16)
          and is_hadamard_pdf(rep)
          and elapsed < 1.0)
    report("AC1[order-32 is a (32,[2,2,6,22],16) Hadamard PDF, <1s]", ok,
           f"{elapsed:.3f}s")
    assert ok


def test_ac01_exactly_one_convention():
    convs = order32_certified_conventions()
    ok = len(convs) == 1
    report("AC1[certifies under exactly one difference convention]", ok,
           "certifies under: " + ", ".join(c.value for c in convs))
    assert ok, (
        "the order-32 family certifies under both difference conventions; "
        "every block's difference multiset is convention-invariant here")


# -- AC2: complement construction -------------------------------------------

def test_ac02_complement_pdfs():
    res4 = complement_pdf(CyclicGroup(4), [0])
    rep4 = res4.report
    g16 = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    hds = search_hds(g16, 2, SearchBounds(max_results=1)).results[0]
    res16 = complement_pdf(g16, list(hds))
    rep16 = res16.report
    ok = (res4.certified and (rep4.v, tuple(rep4.K), rep4.lambda_or_mu)
          == (4, (1, 3), 2) and is_hadamard_pdf(rep4)
          and res16.certified and (rep16.v, tuple(rep16.K),
                                   rep16.lambda_or_mu) == (16, (6, 10), 8)
          and is_hadamard_pdf(rep16))
    report("AC2[complement PDFs (4,[1,3],2) and (16,[6,10],8), Hadamard]", ok)
    assert ok


# -- AC3: doubling every catalog Hadamard PDF --------------------------------

def test_ac03_double_sdf_catalog():
    checked = 0
    for cert in certify_catalog():
        if not cert.certified:
            continue
        fam = catalog_family(cert.name)
        lam = cert.report.lambda_or_mu
        res = double_sdf(replace(fam, convention=cert.convention))
        assert res.certified and res.report.kind == SDF
        assert res.report.lambda_or_mu == 4 * lam
        # exhaustive multiplicity check for scale r = 2
        for orig, doubled in zip(fam.blocks, res.family.blocks):
            base = delta_block(fam.group, orig, cert.convention)
            dd = delta_block(fam.group, doubled, cert.convention)
            assert dd[fam.group.identity] == 2 * 1 * orig.size
            for g in fam.group.elements():
                if g != fam.group.identity:
                    assert dd[g] == 4 * base[g]
        checked += 1
    ok = checked >= 3
    report("AC3[doubling each catalog Hadamard PDF gives a 4-lambda SDF "
           "with exact multiplicities]", ok, f"{checked} certifications")
    assert ok


# -- AC4: u=1 sweep over odd moduli coprime to 15 ----------------------------

def test_ac04_single_completion_sweep(ac4_sweep):
    pairs, elapsed = ac4_sweep
    bad = []
    for m, (single, _) in pairs.items():
        n = (m - 1) // 2
        want = (2,) * n + (4,) + (6,) * n
        rep = single.report
        if not (single.certified and rep.kind == PDF and rep.v == 4 * m
                and rep.lambda_or_mu == 4
                and single.family.block_sizes == want):
            bad.append(m)
    ok = not bad and elapsed < 30.0
    report("AC4[single completion: (4m,[2^n,4,6^n],4)-PDF for every odd "
           "m<=100 coprime to 15, <30s]", ok,
           f"{len(pairs)} moduli, {elapsed:.2f}s" +
           (f", failing: {bad}" if bad else ""))
    assert ok


def test_ac04_per_block_completion_sweep(ac4_sweep):
    pairs, _ = ac4_sweep
    failing = [m for m, (_, per_block) in pairs.items()
               if not per_block.certified]
    ok = not failing
    report("AC4[per-block completion: (4m,[1,2^n,3,6^n],4)-PDF for the "
           "same moduli]", ok,
           f"{len(failing)}/{len(pairs)} moduli fail certification")
    assert ok, (
        "the per-block completion never certifies: the appended zero-fiber "
        "blocks supply only the base index lambda on the zero fiber, half "
        "of the 2*lambda the partition needs")


# -- AC5: the order-400 expansion --------------------------------------------

def test_ac05_order400():
    t0 = perf_counter()
    single, _ = expand_from_hds(2, 25)
    elapsed = perf_counter() - t0
    rep = single.report
    want = (12,) * 12 + (16,) + (20,) * 12
    ok = (single.certified and rep.kind == PDF
          and (rep.v, rep.lambda_or_mu) == (400, 16)
          and single.family.block_sizes == want
          and elapsed < 10.0)
    report("AC5[(400,[12^12,16,20^12],16)-PDF, <10s]", ok, f"{elapsed:.2f}s")
    assert ok


# -- AC6: the order-1504 expansion of the order-32 family --------------------

def test_ac06_sporadic_single(ac6_pair):
    (single, _), elapsed = ac6_pair
    rep = single.report
    want = (4,) * 46 + (12,) * 23 + (32,) + (44,) * 23
    ok = (single.certified and rep.kind == PDF
          and (rep.v, rep.lambda_or_mu) == (1504, 32)
          and single.family.block_sizes == want
          and elapsed < 60.0)
    report("AC6[single completion: (1504,[4^46,12^23,32,44^23],32)-PDF, "
           "<60s]", ok, f"{elapsed:.2f}s")
    assert ok


def test_ac06_sporadic_per_block(ac6_pair):
    (_, per_block), _ = ac6_pair
    want = (2,) * 2 + (4,) * 46 + (6,) + (12,) * 23 + (22,) + (44,) * 23
    sizes_ok = per_block.family.block_sizes == want
    ok = per_block.certified and sizes_ok
    report("AC6[per-block completion: "
           "(1504,[2^2,4^46,6,12^23,22,44^23],32)-PDF]", ok,
           f"built with declared sizes: {sizes_ok}, certified: "
           f"{per_block.certified}")
    assert ok, (
        "the per-block completion has the declared block sizes but cannot "
        "certify; its zero-fiber difference count is short by lambda on "
        "every nonzero zero-fiber element")


# -- README caveats 1 and 3, checked as data ---------------------------------

def off_index_elements(result):
    """The non-identity elements whose difference count in the result's
    family differs from its declared index, and those counts."""
    fam = result.family
    counts = delta_family(fam)
    off = np.flatnonzero(counts != result.predicted.lambda_or_mu)
    off = off[off != fam.group.identity]
    return off, counts[off]


def test_caveat1_per_block_is_short_exactly_on_the_zero_fiber(ac4_sweep,
                                                              ac6_pair):
    """Caveat 1: the per-block completion of a (2lam, K, lam) base counts
    lam, not the declared 2lam, at the |G| - 1 nonzero elements of G x {0}
    and nowhere else."""
    pairs, _ = ac4_sweep
    (_, sporadic), _ = ac6_pair
    for per_block in [pb for _, pb in pairs.values()] + [sporadic]:
        ambient = per_block.family.group
        g_group, h_group = ambient.factors
        g, h = ambient.split(np.arange(ambient.order))
        zero_fiber = np.flatnonzero((h == h_group.identity)
                                    & (g != g_group.identity))
        off, counts = off_index_elements(per_block)
        assert len(zero_fiber) == g_group.order - 1
        assert np.array_equal(off, zero_fiber)
        assert (counts == per_block.predicted.lambda_or_mu // 2).all()


def test_caveat3_order32_blocks_are_convention_invariant():
    """Caveat 3: each order-32 block has the same differences under both
    conventions, which a Semidirect32 block such as {1, 8} need not."""
    conventions = (DiffConvention.RIGHT_INVERSE, DiffConvention.LEFT_INVERSE)
    fam = order32_family()
    assert len(fam.blocks) == 4
    for block in fam.blocks:
        right, left = (delta_block(fam.group, block, c) for c in conventions)
        assert np.array_equal(right, left)
    right, left = (delta_block(Semidirect32(), [1, 8], c)
                   for c in conventions)
    assert not np.array_equal(right, left)


# -- AC7: maximum admissible unit set in Z25 ---------------------------------

def test_ac07_witness_certified_exhaustive(z25_search):
    res, elapsed = z25_search
    ok = (res.exhaustive and res.witness
          and check_y_condition(Zmod(25), res.witness).ok
          and elapsed < 5.0)
    report("AC7[Z25 search exhaustive with certified witness, <5s]", ok,
           f"max={res.max_size}, witness={res.witness}, {elapsed:.2f}s")
    assert ok


def test_ac07_size_four_refuted():
    units = [x for x in range(25) if x % 5]
    hits = sum(1 for ys in combinations(units, 4)
               if check_y_condition(Zmod(25), ys).ok)
    ok = hits == 0
    report("AC7[no admissible size-4 set in Z25 (exhaustive)]", ok,
           f"{hits} of {len(list(combinations(range(20), 4)))} candidates")
    assert ok


def test_ac07_maximum_is_three(z25_search):
    res, _ = z25_search
    ok = res.max_size == 3
    report("AC7[maximum admissible size in Z25 equals 3]", ok,
           f"search (exhaustive) found {res.max_size}")
    assert ok, (
        "the true maximum is 2: admissible residues mod 5 must be pairwise "
        "distinct and non-opposite, and only two such classes exist")


# -- AC8: order-16 difference-set landscape ----------------------------------

def test_ac08_order16_sweep():
    t0 = perf_counter()
    results = {name: search_hds(g, 2) for name, g in abelian_groups_order16()}
    elapsed = perf_counter() - t0
    ok = elapsed < 10.0 and all(r.complete for r in results.values())
    ok = ok and len(results["Z16"].results) == 0
    for name, r in results.items():
        if name == "Z16":
            continue
        ok = ok and len(r.results) > 0
        g = dict(abelian_groups_order16())[name]
        rep = verify(make_family(g, [list(r.results[0])]))
        ok = ok and rep.kind == DS and (rep.v, tuple(rep.K),
                                        rep.lambda_or_mu) == (16, (6,), 2)
    counts = {k: len(v.results) for k, v in results.items()}
    report("AC8[no (16,6,2) set in Z16; one certified in each other "
           "abelian group of order 16, <10s]", ok,
           f"{counts}, {elapsed:.2f}s")
    assert ok


# -- AC9: doubled Paley families ---------------------------------------------

def test_ac09_paley():
    ok = True
    for q in (7, 11):
        res = paley_double_sdf(q)
        rep = res.report
        ok = ok and res.certified and rep.kind == DIFFERENCE_MULTISET
        ok = ok and (rep.v, tuple(rep.K), rep.lambda_or_mu) == (q, (q + 1,),
                                                                q + 1)
    report("AC9[doubled Paley families (7,8,8) and (11,12,12)]", ok)
    assert ok


# -- AC10: property suite -----------------------------------------------------

def test_ac10_difference_size_identity():
    rng = random.Random(88172)
    groups = [CyclicGroup(9), CyclicGroup(12), Semidirect32(),
              ProductGroup([CyclicGroup(2), CyclicGroup(8)]),
              ProductGroup([CyclicGroup(3), CyclicGroup(5)])]
    for _ in range(200):
        g = rng.choice(groups)
        s = rng.randint(0, 8)
        block = [rng.randrange(g.order) for _ in range(s)]
        assert delta_block(g, block).sum() == s * (s - 1)
    report("AC10[|delta X| = |X|(|X|-1) on 200 random multisets]", True)


def test_ac10_abelian_convention_invariance():
    rng = random.Random(20177)
    groups = [CyclicGroup(11), CyclicGroup(16),
              ProductGroup([CyclicGroup(4), CyclicGroup(4)]),
              ProductGroup([CyclicGroup(2), CyclicGroup(3), CyclicGroup(5)])]
    for _ in range(100):
        g = rng.choice(groups)
        block = [rng.randrange(g.order) for _ in range(rng.randint(0, 6))]
        right, left = (delta_block(g, block, c) for c in (
            DiffConvention.RIGHT_INVERSE, DiffConvention.LEFT_INVERSE))
        assert np.array_equal(right, left)
    report("AC10[difference multisets are convention-invariant on abelian "
           "groups]", True)


def _odd_rings_to_200():
    rings = [Zmod(n) for n in range(3, 200, 2)]
    rings += [GaloisField(p, k)
              for p, k in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                           (11, 2), (13, 2))]
    rings += [ProductRing([GaloisField(3, 1), GaloisField(5, 1)]),
              ProductRing([GaloisField(3, 2), GaloisField(7, 1)]),
              ProductRing([GaloisField(3, 1), GaloisField(5, 1),
                           GaloisField(7, 1)])]
    return rings


def test_ac10_starter_partition_all_odd_rings():
    for ring in _odd_rings_to_200():
        reps = starter_reps(ring)
        assert len(reps) == (ring.order - 1) // 2
        cover = set(reps) | {ring.neg(h) for h in reps}
        assert cover == set(range(1, ring.order))
    report("AC10[starter representatives split the nonzero elements into "
           "negation pairs for every odd ring up to order 200]", True)


def test_ac10_lg_invariants_on_every_expansion(ac4_sweep, ac6_pair,
                                               lift_fiber_defects):
    expansions = [res for pair in ac4_sweep[0].values() for res in pair]
    expansions += list(ac6_pair[0])
    single400, per400 = expand_from_hds(2, 25)
    expansions += [single400, per400]
    for res in expansions:
        rec = res.recipe
        assert lift_fiber_defects(rec.pdf, rec.ring, rec.f_map) == []
        assert res.relative.certified
    report("AC10[every expansion's difference fibers have 4*lambda "
           "entries, are negation-closed, and sit in the units]", True,
           f"{len(expansions)} expansions")


def test_ac10_fiber_oracle_flags_a_repeated_f_value(lift_fiber_defects):
    pdf, ring = catalog_family("trivial-hds"), GaloisField(7, 1)
    rec = make_recipe(pdf, ring)
    assert lift_fiber_defects(pdf, ring, rec.f_map) == []
    # f(1) = f(2) inside the block {1, 2, 3}: the recipe refuses this f,
    # and the fiber of 1 - 2 holds the non-unit f(1) - f(2) = 0
    f_map = list(rec.f_map)
    f_map[2] = f_map[1]
    g = pdf.group.op(1, pdf.group.neg(2))
    assert (g, "units") in lift_fiber_defects(pdf, ring, f_map)
