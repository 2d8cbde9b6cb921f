import hashlib
import itertools
import json
import re
from collections import Counter
from dataclasses import fields as fields_of
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfam import constructions as cons
from pdfam import groups, multisets
from pdfam.catalog import order32_family, trivial_hds_family
from pdfam.groups import CyclicGroup, DiffConvention, ProductGroup
from pdfam.multisets import (DF, DS, INVALID, PDF, RELATIVE_PDF, SDF,
                             DesignFamily, delta_block, delta_family,
                             make_family, verify)
from pdfam.rings import (EvenOrderError, GaloisField, ProductRing, Zmod,
                         check_y_condition, starter_reps)
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
    assert d[0] == 2 * 4


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
            base = delta_block(fam.group, block)
            doubled = delta_block(fam.group, np.repeat(block, 2))
            assert doubled[0] == 2 * 1 * block.size
            for g in range(1, fam.group.order):
                assert doubled[g] == 4 * base[g]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.data())
def test_doubling_multiplicity_formulas_property(r, data):
    g = data.draw(st.sampled_from([CyclicGroup(6), CyclicGroup(11),
                                   ProductGroup([CyclicGroup(2),
                                                 CyclicGroup(4)])]))
    elems = data.draw(st.lists(st.integers(0, g.order - 1),
                               min_size=1, max_size=8, unique=True))
    base = delta_block(g, elems)
    scaled = delta_block(g, np.repeat(elems, r))
    assert scaled[0] == r * (r - 1) * len(elems)
    for e in range(1, g.order):
        assert scaled[e] == r * r * base[e]


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

def _lift_fixture(starters):
    """The doubled trivial family lifted into Z4 x F7 by hand, its blocks
    {(d, f(d)), (d, -f(d))}, and _lift's family of their images under the
    tables h -> s*h, one per starter s."""
    f = {0: 3, 1: 3, 2: 2, 3: 6}
    lifts = [[(0, f[0]), (0, (-f[0]) % 7)],
             [(d, s * f[d] % 7) for d in (1, 2, 3) for s in (1, -1)]]
    gs, hs = np.array([pair for block in lifts for pair in block]).T
    doubled = cons.double_sdf(trivial_hds_family()).family
    # _lift reads the lifts' G-coordinates and lengths from the doubled family
    assert list(doubled.positions) == list(gs) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert list(np.diff(doubled.offsets)) == list(map(len, lifts)) == [2, 6]
    images = np.array([[s * h % 7 for h in hs] for s in starters])
    ambient = ProductGroup([CyclicGroup(4), GaloisField(7, 1).additive])
    return lifts, cons._lift(ambient, doubled, images, 4)


def test_sdf_lift_certifies_relative():
    _, res = _lift_fixture((1, 2, 3))
    assert res.certified
    r = res.report
    assert r.kind == RELATIVE_PDF
    assert (r.v, r.h, r.lambda_or_mu) == (28, 4, 4)
    assert tuple(r.K) == (2, 2, 2, 6, 6, 6)


def test_expansion_refuses_starters_that_do_not_sweep_the_fiber():
    """No recipe that passes its own checks reaches this refusal (recipes
    over Zmod(49), Zmod(77), Zmod(91) and Zmod(119) with |Y| = 3 all
    certify), so the repeated starters (1, 1, 1) are forced in."""
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    object.__setattr__(rec, "starters", (1, 1, 1))
    with pytest.raises(cons.RecipeInvariantError, match="^starter images do "
                       "not sweep the block fiber exactly once$"):
        cons.expand_hadamard_pdf(rec)


def test_sdf_lift_parameter_check():
    sdf = cons.double_sdf(trivial_hds_family()).family  # mu = 8
    cons._check_strong(sdf, 3, 4 * 6)  # 8 * 3 starters = 4 * (|F7| - 1)
    with pytest.raises(cons.ParameterMismatchError,
                       match=re.escape("mu*e = 24 but lambda*(|H|-1) = 30")):
        cons._check_strong(sdf, 3, 5 * 6)


def test_sdf_lift_covering_check():
    # {1,2,6} picks the pair {1,-1} twice and never {3,-3}: covering fails
    _, res = _lift_fixture((1, 2, 6))
    assert not res.certified
    assert res.report.witness.coords == (0, 2)


def _refusal(sdf, starters):
    """What refuses the fixture's lift over sdf with these starters, in the
    order expand_hadamard_pdf checks: _check_strong's error, else the
    witness of _lift's certificate."""
    try:
        cons._check_strong(sdf, len(starters), 4 * 6)
    except cons.ParameterMismatchError as err:
        return str(err)
    return _lift_fixture(starters)[1].report.witness


@pytest.mark.parametrize("double,starters,refused_by", [
    (False, (1, 2, 3), "input does not certify as a strong difference "
                       "family (got PDF)"),
    # the zero map collapses every block: (d, h) and (d, -h) both go to
    # (d, 0), whose repeat puts an identity difference on G x {0}
    (True, (0, 2, 3), multisets.Witness(0, (0, 0), 0, 8, "difference-count")),
], ids=["not-strong", "zero-map"])
def test_sdf_lift_refuses_a_bad_input(double, starters, refused_by):
    base = trivial_hds_family()
    sdf = cons.double_sdf(base).family if double else base
    assert _refusal(sdf, starters) == refused_by


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=3))
@example([1, 2, 6])
@example([1, 2, 3])
def test_sdf_lift_refuses_exactly_the_failing_coverings(starters):
    """Brute force over the fixture's lifts: the tables h -> s*h must send
    every fiber L_g onto F7 minus zero 4 times and never onto 0.  _lift's
    certificate decides, and its witness lies in the first failing fiber."""
    lifts, res = _lift_fixture(starters)
    count = np.zeros((4, 7), dtype=np.int64)
    for block in lifts:
        for (g, h), (g2, h2) in itertools.permutations(block, 2):
            for s in starters:
                count[(g - g2) % 4, s * (h - h2) % 7] += 1
    failing = np.flatnonzero((count != [0] + [4] * 6).any(axis=1))
    assert res.certified == (not len(failing))
    if len(failing):
        assert res.report.witness.element // 7 == failing[0]


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
    # the recipe validates itself as it is built: a tampered one is never
    # made, so no expansion can start from it
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    with pytest.raises(cons.RecipeInvariantError,
                       match="repeats the value 3 inside one block"):
        cons.ExpansionRecipe(rec.pdf, rec.ring, rec.y, (3, 3, 3, 6),
                             rec.starters, rec.completion)
    with pytest.raises(cons.RecipeInvariantError,
                       match="starters must pick one element per"):
        cons.ExpansionRecipe(rec.pdf, rec.ring, rec.y, rec.f_map, (1, 2, 6),
                             rec.completion)


def test_validate_recipe_returns_the_base_report(monkeypatch):
    # the expansion certifies its base with one _hadamard_report call, whose
    # report is the verifier's report of the recipe's family
    rec = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    reports, hadamard_report = [], cons._hadamard_report
    monkeypatch.setattr(cons, "_hadamard_report", lambda pdf: reports.append(
        hadamard_report(pdf)) or reports[-1])
    res = cons.expand_hadamard_pdf(rec)
    assert reports[0] == verify(rec.pdf) and reports[0].hadamard
    # double_sdf certifies the same base once more, through the same call
    assert reports == [reports[0]] * 2 and res.certified


def _recipe_with(**changes):
    return replace(cons.make_recipe(trivial_hds_family(), GaloisField(7)),
                   **changes)


# each raised a bare AttributeError or TypeError before it was refused
@pytest.mark.parametrize("call,says", [
    (lambda: make_family("Z4", [[0]]), "group 'Z4' is not a group"),
    (lambda: delta_block("Z4", [0]), "group 'Z4' is not a group"),
    (lambda: cons.complement_pdf("Z4", [0]), "group 'Z4' is not a group"),
    (lambda: cons.make_recipe(trivial_hds_family(), "F7"),
     "ring 'F7' is not a ring"),
    (lambda: starter_reps("F7"), "ring 'F7' is not a ring"),
    (lambda: check_y_condition("F7", [1]), "ring 'F7' is not a ring"),
    (lambda: _recipe_with(ring="F7"), "ring 'F7' is not a ring"),
    (lambda: _recipe_with(pdf=None), "pdf None is not a DesignFamily"),
    (lambda: verify(None), "family None is not a DesignFamily"),
    (lambda: cons.double_sdf(None), "family None is not a DesignFamily"),
    (lambda: cons.expand_hadamard_pdf(None),
     "recipe None is not an ExpansionRecipe"),
    (lambda: cons.complement_pdf(CyclicGroup(4), 5),
     "block 5 is not an iterable of positions"),
    (lambda: delta_block(CyclicGroup(4), None),
     "block None is not an iterable of positions"),
    (lambda: make_family(CyclicGroup(4), None),
     "family None is not an iterable of blocks"),
    (lambda: make_family(CyclicGroup(4), {0: [1]}),
     "a family is an iterable of blocks, not a dict"),
], ids=["make_family-group", "delta_block-group", "complement_pdf-group",
        "make_recipe-ring", "starter_reps-ring", "check_y_condition-ring",
        "recipe-ring", "recipe-pdf", "verify-family", "double_sdf-family",
        "expand-recipe", "complement_pdf-block", "delta_block-block",
        "make_family-blocks", "make_family-dict"])
def test_entry_points_refuse_a_wrong_type_argument(call, says):
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        call()


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
    cover = np.bincount(np.concatenate(res.family.blocks),
                        minlength=res.family.group.order)
    assert (cover[cover > 0] == 1).all()
    assert np.count_nonzero(cover) == 28


def test_expansion_accepts_any_complete_starter_set():
    """A non-canonical starter set, one element per {h,-h} pair, expands to
    a certified PDF as the canonical one does."""
    f7 = cons.make_recipe(trivial_hds_family(), GaloisField(7, 1))
    m77 = cons.make_recipe(trivial_hds_family(), cons.ring_for_modulus(77))
    assert isinstance(m77.ring, ProductRing)
    neg = m77.ring.neg
    for rec, starters in [
            (f7, (1, 2, 4)),
            (m77, tuple(neg(s) if i % 2 else s
                        for i, s in enumerate(m77.starters)))]:
        assert set(starters) != set(rec.starters)
        res = cons.expand_hadamard_pdf(replace(rec, starters=starters))
        assert res.relative.report.kind == RELATIVE_PDF
        assert res.certified and res.report.kind == PDF


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


@pytest.mark.parametrize("m", [1, 2, 0, -3, 10, 7.0, True])
def test_ring_for_modulus_refuses_an_even_or_small_modulus(m):
    with pytest.raises(ValueError,
                       match="^modulus must be odd and at least 3$"):
        cons.ring_for_modulus(m)


def test_modulus_bound_keeps_the_largest_odd_modulus_under_it():
    assert cons.MAX_MODULUS == 10**6
    assert cons.ring_for_modulus(199_999).order == 199_999
    assert cons.ring_for_modulus(cons.MAX_MODULUS - 1).order == 999_999
    for call in (lambda m: cons.ring_for_modulus(m),
                 lambda m: cons.expand_from_hds(1, m)):
        with pytest.raises(ValueError, match="^modulus 1000001 exceeds the "
                                             "bound 1000000$"):
            call(cons.MAX_MODULUS + 1)


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
# the array forms must reproduce them byte for byte.  Each build takes the
# difference convention, the right one by default, which the digests pin.
_RIGHT = DiffConvention.RIGHT_INVERSE
_GOLDEN = {
    "expand_nonabelian32(47)": (
        lambda conv=_RIGHT: cons.expand_nonabelian32(47, conv),
        "6e47202567e08b16b0310a338f0d6d282867d646859e8236b0e77ab1ee6369eb",
        "51e989f4647e8365d5f38dc25ecce4ccea852836c91e4cf66f5349ead46f7ab6"),
    "expand_from_hds(2, 25)": (
        lambda conv=_RIGHT: cons.expand_from_hds(2, 25, convention=conv),
        "de900f8dc82bf7b6c557ff2918f58245c3c34321b74af172f27398f0144fcb2f",
        "ea18d1c1ca23f9761902cc775c9eee728e8f07552a7db406961b2e5474d4d547"),
    "expand_from_hds(1, 97)": (
        lambda conv=_RIGHT: cons.expand_from_hds(1, 97, convention=conv),
        "4665dd96f4f02ec3d8a8eabc5e5d1b8c6e760cc8f7cb75170e494afe3b1626e3",
        "93cfca66545cd073996f01dcfdeaade7c096bed69ed8a5c15d3033a9d74089c8"),
    # F7 x F11 and F49 x F11: the nested additive-group descriptors reach
    # the output through the ambient group
    "expand_from_hds(1, 77)": (
        lambda conv=_RIGHT: cons.expand_from_hds(1, 77, convention=conv),
        "eef14b6b248282dab8cee6f73754503fb5e81ddb7b5b21852c7523d8c0e91855",
        "fcce8668ff6e351f7dd911092447f34df6b6905413baebb3455c40c361fe22e8"),
    "expand u=1 over F49xF11": (
        lambda conv=_RIGHT: [cons.expand_hadamard_pdf(cons.make_recipe(
            cons.hadamard_pdf_from_hds(1, convention=conv).family,
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


def _fresh(family):
    """A new family object over the same blocks, with no kept tally."""
    return DesignFamily(family.group, family.blocks, family.forbidden,
                        family.convention)


@pytest.mark.parametrize("conv", list(DiffConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_extended_families_read_as_fresh_ones(name, conv):
    # the final family extends the relative one, and the base complement
    # pair extends its difference set: each kept tally must be the tally a
    # new family object over the same blocks counts from scratch
    for res in _GOLDEN[name][0](conv):
        for fam in (res.family, res.relative.family, res.recipe.pdf):
            assert verify(fam) == verify(_fresh(fam))
            assert np.array_equal(delta_family(fam),
                                  delta_family(_fresh(fam)))
        assert res.report == verify(_fresh(res.family))


def test_each_family_is_tallied_once(monkeypatch):
    # _tally's calls and pairs, _judge's calls, and verify's calls through
    # the names constructions binds and multisets calls for a search leaf
    seen = Counter()
    real_tally, real_judge = multisets._tally, multisets._judge
    real_verify = multisets.verify

    def tally(group, positions, offsets, convention):
        sizes = np.diff(offsets)
        seen["tallies"] += 1
        seen["pairs"] += int((sizes * (sizes - 1)).sum())
        return real_tally(group, positions, offsets, convention)

    def judge(*args):
        seen["judge"] += 1
        return real_judge(*args)

    def counted_verify(family):
        seen["verify"] += 1
        return real_verify(family)

    monkeypatch.setattr(multisets, "_tally", tally)
    monkeypatch.setattr(multisets, "_judge", judge)
    monkeypatch.setattr(cons, "verify", counted_verify)
    monkeypatch.setattr(multisets, "verify", counted_verify)
    cons.expand_from_hds(1, 7)
    # 17 verify calls: the search leaf, the difference set and its pair,
    # and per completion the pair (the base) three times, the doubled
    # family twice, the relative family and the final one.  9 tallies and
    # 9 judges, since a family keeps its report: the leaf, the set, the
    # pair (its added block), and per completion the doubled family, the
    # relative family and the final family (its zero fiber)
    assert seen["verify"] == 17
    assert seen["judge"] == 9
    assert seen["tallies"] <= 9
    seen.clear()
    cons.expand_nonabelian32(47)
    assert seen["pairs"] <= 100_288  # 201,072 when every verify recounts


def test_complement_pdf_refuses_float_and_bool_elements():
    for block in ([0.5], [True]):
        with pytest.raises(ValueError, match="is not an integer"):
            cons.complement_pdf(CyclicGroup(4), block)


def test_complement_pdf_refuses_a_convention_name():
    # a cyclic group's plan never calls difference, so "right" certified,
    # and encoding the result then failed on 'str' object has no 'value'
    g = CyclicGroup(7)
    with pytest.raises(ValueError,
                       match="^unknown difference convention 'right'$"):
        cons.complement_pdf(g, [1, 2, 4], "right")
    assert "right" not in vars(g).get("_difference_plans", {})


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


# -- the lift core behind the expansion ------------------------------------

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
def test_expansion_relative_blocks_are_the_starter_images(name, conv):
    """Block (i, s) of the relative family is {(d, s*f(d)), (d, -s*f(d))}
    over the d of base block i, built here with the ring's scalar mul and
    laid out i-major; the element (g, h) of G x H is g*|H| + h."""
    rec = _core_recipe(name, conv)
    ring, f = rec.ring, rec.f_map
    want = [sorted(d * ring.order + ring.mul(s, h)
                   for d in b.tolist() for h in (f[d], ring.neg(f[d])))
            for b in rec.pdf.blocks for s in rec.starters]
    relative = cons.expand_hadamard_pdf(rec).relative
    assert [b.tolist() for b in relative.family.blocks] == want
    assert relative.certified and relative.report.kind == RELATIVE_PDF


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

    monkeypatch.setattr(cons, "ProductGroup", product)
    monkeypatch.setattr(groups, "DifferencePlan", plan)
    res = cons.expand_hadamard_pdf(rec)
    order = rec.pdf.group.order * rec.ring.order
    assert [g.order for g in made] == [order]
    assert plans == [order]
    assert res.relative.family.group is made[0]
    assert res.family.group is made[0]
