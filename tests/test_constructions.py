import hashlib
import itertools
import json
import re
from collections import Counter
from dataclasses import fields as fields_of
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfam import constructions as cons
from pdfam import groups
from pdfam.catalog import order32_family, trivial_hds_family
from pdfam.groups import CyclicGroup, DiffConvention, ProductGroup
from pdfam.multisets import (DF, DS, INVALID, PDF, RELATIVE_PDF, SDF,
                             Multiset, delta_block, delta_family,
                             make_family, verify)
from pdfam.rings import EvenOrderError, GaloisField, ProductRing, Zmod
from pdfam.serialize import (canonical_dumps, recipe_from_json,
                             recipe_to_json, result_to_json)


def test_complement_pdf_trivial():
    res = cons.complement_pdf(CyclicGroup(4), [0])
    assert res.certified
    r = res.report
    assert (r.kind, r.v, tuple(r.K), r.lambda_or_mu) == (PDF, 4, (1, 3), 2)


def test_complement_pdf_order16():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
    res = cons.complement_pdf(g, [0, 1, 2, 4, 9, 14])
    assert res.certified
    assert tuple(res.report.K) == (6, 10) and res.report.lambda_or_mu == 8


def test_complement_pdf_rejects_non_ds():
    with pytest.raises(cons.NotADifferenceSetError):
        cons.complement_pdf(CyclicGroup(8), [0, 1])
    with pytest.raises(cons.NotADifferenceSetError):
        cons.complement_pdf(CyclicGroup(4), [0, 1, 2, 3])  # not proper


def test_double_sdf_parameters():
    res = cons.double_sdf(trivial_hds_family())
    assert res.certified
    r = res.report
    assert (r.kind, tuple(r.K), r.lambda_or_mu) == (SDF, (2, 6), 8)
    # identity multiplicity is 2*sum of block sizes
    d = delta_family(res.family)
    assert d.counts[0] == 2 * 4


def test_double_sdf_rejects_non_hadamard():
    g = CyclicGroup(7)
    fam = make_family(g, [[1, 2, 4], [0, 3, 5, 6]])  # PDF but v != 2 lambda
    rep = verify(fam)
    assert rep.kind == PDF and rep.v != 2 * rep.lambda_or_mu
    with pytest.raises(cons.NotHadamardError):
        cons.double_sdf(fam)


def test_doubling_multiplicity_formulas_exhaustive_r2():
    # identity gets r(r-1)|X|, non-identity g gets r^2 * lambda_X(g)
    for fam in (trivial_hds_family(), order32_family()):
        for block in fam.blocks:
            base = delta_block(block).counts
            doubled = delta_block(block.scaled(2)).counts
            assert doubled[0] == 2 * 1 * block.size
            for g in range(1, fam.group.order):
                assert doubled.get(g, 0) == 4 * base.get(g, 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.data())
def test_doubling_multiplicity_formulas_property(r, data):
    g = data.draw(st.sampled_from([CyclicGroup(6), CyclicGroup(11),
                                   ProductGroup([CyclicGroup(2),
                                                 CyclicGroup(4)])]))
    elems = data.draw(st.lists(st.integers(0, g.order - 1),
                               min_size=1, max_size=8, unique=True))
    x = Multiset(g, elements=elems)
    base = delta_block(x).counts
    scaled = delta_block(x.scaled(r)).counts
    assert scaled.get(0, 0) == r * (r - 1) * x.size
    for e in range(1, g.order):
        assert scaled.get(e, 0) == r * r * base.get(e, 0)


def test_paley_known_cases():
    for q in (7, 11, 19):
        res = cons.paley_double_sdf(q)
        assert res.certified
        assert (res.report.v, tuple(res.report.K), res.report.lambda_or_mu) \
            == (q, (q + 1,), q + 1)


def test_paley_rejects_bad_inputs():
    with pytest.raises(cons.BadResidueClassError):
        cons.paley_double_sdf(13)  # 1 mod 4
    with pytest.raises(cons.BadResidueClassError):
        cons.paley_double_sdf(15)  # composite


# -- the generic lift ------------------------------------------------------

def _lift_fixture():
    """Doubled trivial family lifted into Z4 x F7 by hand."""
    base = trivial_hds_family()
    sdf = cons.double_sdf(base).family
    ring = GaloisField(7, 1)
    f = {0: 3, 1: 3, 2: 2, 3: 6}
    lifts = [[(0, f[0]), (0, (-f[0]) % 7)],
             [(d, s * f[d] % 7) for d in (1, 2, 3) for s in (1, -1)]]
    endos = [tuple(ring.mul(s, h) for h in range(7)) for s in (1, 2, 3)]
    return sdf, ring, lifts, endos


def test_sdf_lift_certifies_relative():
    sdf, ring, lifts, endos = _lift_fixture()
    res = cons.sdf_lift(sdf, ring.additive, lifts, endos, lam=4)
    assert res.certified
    r = res.report
    assert r.kind == RELATIVE_PDF
    assert (r.v, r.h, r.lambda_or_mu) == (28, 4, 4)
    assert tuple(r.K) == (2, 2, 2, 6, 6, 6)


def test_sdf_lift_parameter_check():
    sdf, ring, lifts, endos = _lift_fixture()
    with pytest.raises(cons.ParameterMismatchError):
        cons.sdf_lift(sdf, ring.additive, lifts, endos, lam=5)


def test_sdf_lift_projection_check():
    sdf, ring, lifts, endos = _lift_fixture()
    bad = [lifts[0], [(d, h) for d, h in lifts[1][:-1]] + [(0, 1)]]
    with pytest.raises(cons.ProjectionMismatchError):
        cons.sdf_lift(sdf, ring.additive, bad, endos, lam=4)


def test_sdf_lift_covering_check():
    sdf, ring, lifts, endos = _lift_fixture()
    # {1,2,6} picks the pair {1,-1} twice and never {3,-3}: covering fails
    bad_endos = [tuple(ring.mul(s, h) for h in range(7)) for s in (1, 2, 6)]
    with pytest.raises(cons.ConditionFailsError):
        cons.sdf_lift(sdf, ring.additive, lifts, bad_endos, lam=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_sdf_lift_refuses_exactly_the_failing_coverings(starters):
    """Brute force over the fixture's lifts: the tables h -> s*h must send
    every fiber L_g onto F7 minus zero 4 times and never onto 0."""
    sdf, ring, lifts, _ = _lift_fixture()
    count = np.zeros((4, 7), dtype=np.int64)
    for block in lifts:
        for (g, h), (g2, h2) in itertools.permutations(block, 2):
            for s in starters:
                count[(g - g2) % 4, s * (h - h2) % 7] += 1
    failing = np.flatnonzero((count != [0] + [4] * 6).any(axis=1))
    endos = [[s * h % 7 for h in range(7)] for s in starters]
    if not len(failing):
        assert cons.sdf_lift(sdf, ring.additive, lifts, endos, lam=4).certified
        return
    with pytest.raises(cons.ConditionFailsError,
                       match=re.escape(f"fails at g = ({failing[0]},)")):
        cons.sdf_lift(sdf, ring.additive, lifts, endos, lam=4)


def test_sdf_lift_accepts_any_complete_starter_set():
    sdf, ring, lifts, endos = _lift_fixture()
    # {1,2,4} is a non-canonical but complete set of pair representatives
    alt = [tuple(ring.mul(s, h) for h in range(7)) for s in (1, 2, 4)]
    res = cons.sdf_lift(sdf, ring.additive, lifts, alt, lam=4)
    assert res.certified


def test_sdf_lift_rejects_non_endomorphism():
    sdf, ring, lifts, endos = _lift_fixture()
    bad = [tuple((h + 1) % 7 for h in range(7))] + endos[1:]
    with pytest.raises(ValueError):
        cons.sdf_lift(sdf, ring.additive, lifts, bad, lam=4)


@pytest.mark.parametrize("bad,says", [
    (lambda ts: [(0.5,) + ts[0][1:]] + ts[1:], "integers"),  # int() gave 0
    (lambda ts: [tuple(map(float, t)) for t in ts], "integers"),
    (lambda ts: [tuple(x % 2 == 1 for x in t) for t in ts], "integers"),
    # asarray reads a bool table among integer tables as a 0/1 map
    (lambda ts: [tuple(x % 2 == 1 for x in ts[0])] + ts[1:], "integers"),
    (lambda ts: [(0, True) + ts[0][2:]] + ts[1:], "integers"),  # 1 -> True
    (lambda ts: [ts[0][:-1]] + ts[1:], "wrong length"),
], ids=["float-entry", "float-tables", "bool-tables", "bool-among-int-tables",
        "bool-entry", "ragged"])
def test_sdf_lift_rejects_malformed_tables(bad, says):
    sdf, ring, lifts, endos = _lift_fixture()
    with pytest.raises(ValueError, match=says):
        cons.sdf_lift(sdf, ring.additive, lifts, bad(endos), lam=4)


@pytest.mark.parametrize("bad,error,says", [
    (lambda sdf, lifts, endos: (sdf, lifts, [t[:-1] for t in endos]),
     ValueError, "endomorphism table has wrong length"),
    (lambda sdf, lifts, endos: (sdf, lifts, [(0,) * 6 + (7,)] + endos[1:]),
     ValueError, "endomorphism table value out of range"),
    (lambda sdf, lifts, endos: (sdf, lifts[:1], endos),
     cons.ProjectionMismatchError, "one lift block per strong block"),
    (lambda sdf, lifts, endos: (sdf, [lifts[0][:1] * 2] + lifts[1:], endos),
     cons.ProjectionMismatchError, "lift block 0 has repeats"),
    (lambda sdf, lifts, endos: (trivial_hds_family(), lifts, endos),
     cons.ParameterMismatchError,
     "does not certify as a strong difference family"),
    # the zero map collapses every block: (d, h) and (d, -h) both go to
    # (d, 0), whose repeat puts an identity difference on G x {0}
    (lambda sdf, lifts, endos: (sdf, lifts, [(0,) * 7] + endos[1:]),
     cons.ConditionFailsError, "endomorphism covering fails"),
], ids=["narrow-tables", "entry-equals-order", "lift-block-missing",
        "repeated-pair", "not-strong", "zero-map"])
def test_sdf_lift_refuses_a_bad_input(bad, error, says):
    sdf, ring, lifts, endos = _lift_fixture()
    sdf, lifts, endos = bad(sdf, lifts, endos)
    with pytest.raises(error, match=re.escape(says)):
        cons.sdf_lift(sdf, ring.additive, lifts, endos, lam=4)


@pytest.mark.parametrize("build,says", [
    (lambda: cons.hadamard_pdf_from_hds(3),
     "no default group for u = 3; pass one"),
    # no (16, 6, 2) difference set in a cyclic group
    (lambda: cons.hadamard_pdf_from_hds(2, CyclicGroup(16)),
     "no Hadamard difference set found in Z16"),
], ids=["u3-no-default-group", "u2-in-Z16"])
def test_hadamard_pdf_from_hds_refuses_without_a_set(build, says):
    with pytest.raises(cons.NoHdsError, match=f"^{re.escape(says)}$"):
        build()


# -- recipes and full expansions -------------------------------------------

def test_make_recipe_canonical_f7():
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    assert rec.y == (3, 2, 6)
    assert rec.starters == (1, 2, 3)
    assert rec.f_map == (3, 3, 2, 6)


def test_make_recipe_rejects_even_or_tiny_ring():
    fam = trivial_hds_family()
    with pytest.raises(Exception):
        cons.make_recipe(fam, Zmod(8))
    with pytest.raises(ValueError):
        cons.make_recipe(fam, Zmod(1))


def test_make_recipe_no_valid_y_in_z9():
    # max unit set in Z9 has size 1 < K_max = 3, and Z9 is not a field
    with pytest.raises(cons.NoValidYError):
        cons.make_recipe(trivial_hds_family(), Zmod(9))


def test_make_recipe_explicit_y_checked():
    with pytest.raises(cons.NoValidYError):
        cons.make_recipe(trivial_hds_family(), GaloisField(7, 1), y=[1, 2, 6])


def test_validate_recipe_catches_tampering():
    # the recipe refuses itself as it is built, before validate_recipe runs
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    with pytest.raises(cons.RecipeInvariantError):
        cons.validate_recipe(cons.ExpansionRecipe(
            rec.pdf, rec.ring, rec.y, (3, 3, 3, 6), rec.starters,
            rec.completion))
    with pytest.raises(cons.RecipeInvariantError):
        cons.validate_recipe(cons.ExpansionRecipe(
            rec.pdf, rec.ring, rec.y, rec.f_map, (1, 2, 6), rec.completion))


def test_validate_recipe_returns_the_base_report():
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    rep = cons.validate_recipe(rec)
    assert rep == verify(rec.pdf) and rep.hadamard


# one broken invariant of the canonical trivial-HDS recipe over F7 (Y = 3, 2,
# 6; f = 3, 3, 2, 6; starters 1, 2, 3), the error it raises and its message
_BROKEN_RECIPES = {
    "completion": ({"completion": "both"}, cons.RecipeInvariantError,
                   "completion must be one of"),
    "even-zmod": ({"ring": Zmod(8)}, EvenOrderError, "odd order"),
    "even-field": ({"ring": GaloisField(2, 3)}, EvenOrderError, "odd order"),
    "y-size": ({"y": (3, 2)}, cons.NoValidYError,
               "need a unit set of size 3, got 2"),
    "y-meets-minus-y": ({"y": (1, 2, 6)}, cons.NoValidYError,
                        "Y meets -Y, pair (1, 6)"),
    "y-non-unit": ({"ring": Zmod(9)}, cons.NoValidYError,
                   "element 3 is not a unit"),
    "f-short": ({"f_map": (3, 3, 2)}, cons.RecipeInvariantError,
                "f must be defined on the whole group"),
    "f-outside-y": ({"f_map": (1, 3, 2, 6)}, cons.RecipeInvariantError,
                    "f(0) = 1 is outside Y"),
    "f-repeats": ({"f_map": (3, 3, 3, 6)}, cons.RecipeInvariantError,
                  "f repeats the value 3 inside one block"),
    "starters-short": ({"starters": (1, 2)}, cons.RecipeInvariantError,
                       "need 3 distinct starters"),
    "starters-repeat": ({"starters": (1, 2, 2)}, cons.RecipeInvariantError,
                        "need 3 distinct starters"),
    "starters-zero": ({"starters": (0, 1, 2)}, cons.RecipeInvariantError,
                      "0 is not a starter"),
    "starters-pair": ({"starters": (1, 2, 6)}, cons.RecipeInvariantError,
                      "one element per {h,-h} pair"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_RECIPES))
def test_recipe_refuses_a_broken_invariant_however_built(case):
    change, error, says = _BROKEN_RECIPES[case]
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    fields = {f.name: getattr(rec, f.name) for f in fields_of(rec)}
    with pytest.raises(error, match=re.escape(says)):
        cons.ExpansionRecipe(**{**fields, **change})
    with pytest.raises(error, match=re.escape(says)):
        replace(rec, **change)
    doc = recipe_to_json(rec)
    for key, value in change.items():
        doc[key] = value.descriptor() if key == "ring" else value
    with pytest.raises(error, match=re.escape(says)):
        recipe_from_json(json.loads(json.dumps(doc)))  # tuples to arrays


def test_expand_single_completion_28(lift_fiber_defects):
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    res = cons.expand_hadamard_pdf(rec)
    assert res.certified
    r = res.report
    assert (r.v, r.lambda_or_mu) == (28, 4)
    assert tuple(r.K) == (2, 2, 2, 4, 6, 6, 6)
    assert res.relative.certified
    rec = res.recipe
    assert lift_fiber_defects(rec.pdf, rec.ring, rec.f_map) == []


def test_expand_per_block_completion_fails_certification():
    """The per-block completion cannot reach its claimed parameters: the
    zero-fiber copies of the base blocks contribute the base index, half of
    what uniformity needs there.  The verifier pinpoints that."""
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1),
                           completion=cons.COMPLETION_PER_BLOCK)
    res = cons.expand_hadamard_pdf(rec)
    assert not res.certified
    r = res.report
    assert r.kind == INVALID
    w = r.witness
    assert w.coords == (1, 0)
    assert w.expected == 4 and w.actual == 2
    # counting identity: sum k(k-1) falls short by lambda(2 lambda - 1)
    sizes = [b.size for b in res.family.blocks]
    assert sum(k * (k - 1) for k in sizes) == 4 * 27 - 2 * 3


def test_expansion_block_count_and_partition():
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    res = cons.expand_hadamard_pdf(rec)
    cover = Counter()
    for b in res.family.blocks:
        cover.update(b.counts)
    assert all(v == 1 for v in cover.values())
    assert len(cover) == 28


def test_expand_from_hds_pair():
    single, per_block = cons.expand_from_hds(1, 11)
    assert single.certified
    assert single.report.v == 44
    assert not per_block.certified


def test_expand_from_hds_divisor_bound():
    with pytest.raises(cons.DivisorTooSmallError) as exc:
        cons.expand_from_hds(2, 9)
    assert exc.value.divisor == 9 and exc.value.bound == 20
    with pytest.raises(ValueError):
        cons.expand_from_hds(1, 8)  # even modulus


def test_expand_nonabelian32_divisor_bound_names_nine():
    with pytest.raises(cons.DivisorTooSmallError) as exc:
        cons.expand_nonabelian32(45)
    assert exc.value.divisor == 9


def test_ring_for_modulus():
    r = cons.ring_for_modulus(77)
    assert isinstance(r, ProductRing)
    assert [f.order for f in r.factors] == [7, 11]
    r = cons.ring_for_modulus(49)
    assert isinstance(r, GaloisField) and r.order == 49


def test_expansion_left_convention_also_works_for_abelian_base():
    rec = cons.make_recipe(
        replace(trivial_hds_family(), convention=DiffConvention.LEFT_INVERSE),
        GaloisField(7, 1))
    res = cons.expand_hadamard_pdf(rec)
    assert res.certified


def test_family_convention_reaches_every_stage():
    left = DiffConvention.LEFT_INVERSE
    pdf = replace(order32_family(), convention=left)
    rec = cons.make_recipe(pdf, GaloisField(47), cons.COMPLETION_PER_BLOCK)
    assert rec.pdf.convention is left
    assert recipe_to_json(rec)["convention"] == "left"
    assert recipe_from_json(recipe_to_json(rec)).pdf == pdf
    res = cons.expand_hadamard_pdf(rec)
    assert res.recipe is rec
    assert res.relative.family.convention is left
    assert res.relative.report == verify(res.relative.family)
    assert res.family.convention is left
    assert res.report == verify(res.family)
    assert result_to_json(res)["convention"] == "left"
    assert cons.double_sdf(pdf).family.convention is left
    for built in (cons.complement_pdf(CyclicGroup(4), [0], left),
                  cons.paley_double_sdf(7, left),
                  cons.hadamard_pdf_from_hds(1, convention=left),
                  *cons.expand_from_hds(1, 7, convention=left),
                  *cons.expand_nonabelian32(47, left)):
        assert built.family.convention is left
        assert built.report == verify(built.family)
    assert [r.family.convention for r in cons.expand_nonabelian32(47)] == [
        DiffConvention.RIGHT_INVERSE] * 2


def test_prediction_refinement():
    p = cons.Prediction(DF, 28, (2, 2, 2, 6, 6, 6), 4, h=4)
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    res = cons.expand_hadamard_pdf(rec)
    assert p.matches(res.relative.report)  # DF prediction accepts RelativePDF


# sha256 of canonical_dumps(result_to_json(r)) for the single and per-block
# completions, taken from the scalar ring checks and family construction:
# the array forms must reproduce them byte for byte
_GOLDEN = {
    "expand_nonabelian32(47)": (
        lambda: cons.expand_nonabelian32(47),
        "6e47202567e08b16b0310a338f0d6d282867d646859e8236b0e77ab1ee6369eb",
        "51e989f4647e8365d5f38dc25ecce4ccea852836c91e4cf66f5349ead46f7ab6"),
    "expand_from_hds(2, 25)": (
        lambda: cons.expand_from_hds(2, 25),
        "de900f8dc82bf7b6c557ff2918f58245c3c34321b74af172f27398f0144fcb2f",
        "ea18d1c1ca23f9761902cc775c9eee728e8f07552a7db406961b2e5474d4d547"),
    "expand_from_hds(1, 97)": (
        lambda: cons.expand_from_hds(1, 97),
        "4665dd96f4f02ec3d8a8eabc5e5d1b8c6e760cc8f7cb75170e494afe3b1626e3",
        "93cfca66545cd073996f01dcfdeaade7c096bed69ed8a5c15d3033a9d74089c8"),
    # F7 x F11 and F49 x F11: the nested additive-group descriptors reach
    # the output through the ambient group
    "expand_from_hds(1, 77)": (
        lambda: cons.expand_from_hds(1, 77),
        "eef14b6b248282dab8cee6f73754503fb5e81ddb7b5b21852c7523d8c0e91855",
        "fcce8668ff6e351f7dd911092447f34df6b6905413baebb3455c40c361fe22e8"),
    "expand u=1 over F49xF11": (
        lambda: [cons.expand_hadamard_pdf(cons.make_recipe(
            cons.hadamard_pdf_from_hds(1).family,
            ProductRing([GaloisField(7, 2), GaloisField(11)]), completion))
            for completion in cons.COMPLETIONS],
        "d2fd8434c1a8ed64ad54a75b906b2ef91d9fb491b90d4507565b7039f5efc8a2",
        "a34f2e3e00eda92cc3a311a4ba8cbf3a99a6c3ae94448c81929d2b0b5cbb1311"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_expansion_output_bytes_are_pinned(name):
    build, *want = _GOLDEN[name]
    got = [hashlib.sha256(canonical_dumps(result_to_json(r)).encode())
           .hexdigest() for r in build()]
    assert got == want


def test_complement_pdf_refuses_float_and_bool_elements():
    for block in ([0.5], [True]):
        with pytest.raises(ValueError, match="is not an integer"):
            cons.complement_pdf(CyclicGroup(4), block)


@pytest.mark.parametrize("block,repeated", [
    ([0, 0], 0), ([3, 1, 3, 1], 1), ([2, 0, 2], 2)])
def test_complement_pdf_refuses_repeated_elements(block, repeated):
    # sorted(set(...)) used to drop the repeat and certify the set
    with pytest.raises(cons.NotADifferenceSetError,
                       match=rf"^element {repeated} is repeated$"):
        cons.complement_pdf(CyclicGroup(4), block)


def test_make_recipe_refuses_non_integer_y():
    for y in ([3.9, 2.2, 6.5], [3, 2, True]):
        with pytest.raises(ValueError, match=r"^element \S+ is not an integer$"):
            cons.make_recipe(trivial_hds_family(), GaloisField(7), y=y)
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7),
                           y=np.array([3, 2, 6]))
    assert rec.y == (3, 2, 6) and all(type(e) is int for e in rec.y)


# -- the lift core shared by sdf_lift and the expansion ---------------------

_CORE_CASES = {
    "u1-m7": lambda conv: (cons.hadamard_pdf_from_hds(1, convention=conv)
                           .family, 7),
    "u1-m77": lambda conv: (cons.hadamard_pdf_from_hds(1, convention=conv)
                            .family, 77),  # a ProductRing
    "u2-m25": lambda conv: (cons.hadamard_pdf_from_hds(2, convention=conv)
                            .family, 25),
    "order32-m47": lambda conv: (replace(order32_family(), convention=conv),
                                 47),
}


def _core_recipe(name, conv):
    pdf, m = _CORE_CASES[name](conv)
    return cons.make_recipe(pdf, cons.ring_for_modulus(m))


@pytest.mark.parametrize("conv", list(DiffConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("name", sorted(_CORE_CASES))
def test_sdf_lift_matches_the_expansion_relative(name, conv):
    rec = _core_recipe(name, conv)
    ring = rec.ring
    lifts = [[(d, s) for d in sorted(b.counts)
              for s in (rec.f_map[d], ring.neg(rec.f_map[d]))]
             for b in rec.pdf.blocks]
    endos = [[ring.mul(s, h) for h in range(ring.order)]
             for s in rec.starters]
    rep = verify(rec.pdf)
    public = cons.sdf_lift(cons.double_sdf(rec.pdf).family, ring.additive,
                           lifts, endos, 2 * rep.lambda_or_mu)
    relative = cons.expand_hadamard_pdf(rec).relative
    assert public.family == relative.family
    assert public.report == relative.report
    assert public.predicted == relative.predicted and public.certified


@pytest.mark.parametrize("conv", list(DiffConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("name", sorted(_CORE_CASES))
def test_expansion_builds_one_ambient_group(monkeypatch, name, conv):
    rec = _core_recipe(name, conv)
    made, plans = [], []
    real_product, real_plan = cons.ProductGroup, groups.DifferencePlan

    def product(factors):
        made.append(real_product(factors))
        return made[-1]

    def plan(group, convention):
        plans.append(group.order)
        return real_plan(group, convention)

    def no_mask(*args):
        raise AssertionError("endomorphism_mask called")

    monkeypatch.setattr(cons, "ProductGroup", product)
    monkeypatch.setattr(groups, "DifferencePlan", plan)
    monkeypatch.setattr(cons, "endomorphism_mask", no_mask)
    res = cons.expand_hadamard_pdf(rec)
    order = rec.pdf.group.order * rec.ring.order
    assert [g.order for g in made] == [order]
    assert plans == [order]
    assert res.relative.family.group is made[0]
    assert res.family.group is made[0]
