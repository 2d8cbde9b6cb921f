"""Difference-family constructions, each checked by the brute-force verifier.

Every construction returns a ConstructionResult carrying the built family,
the parameters it should have, and the verifier's independent report; the
`certified` flag compares the two.  Nothing is trusted: the verifier
recounts every difference from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup, _indices, _int_matrix,
                     endomorphism_mask)
from .multisets import (DF, DIFFERENCE_MULTISET, DS, PDF, RELATIVE_PDF, SDF,
                        DesignFamily, Multiset, VerificationReport,
                        _blocks_of, make_family, verify)
from .rings import (EvenOrderError, GaloisField, ProductRing, Ring,
                    build_y_powers, check_y_condition, factorize, is_prime,
                    maximal_prime_power_divisors, starter_reps)
from .search import SearchBounds, hds_parameters, search_hds


class ConstructionError(ValueError):
    """Base class for construction-level failures."""


class NotADifferenceSetError(ConstructionError):
    pass


class NotHadamardError(ConstructionError):
    pass


class BadResidueClassError(ConstructionError):
    pass


class ProjectionMismatchError(ConstructionError):
    pass


class ParameterMismatchError(ConstructionError):
    pass


class ConditionFailsError(ConstructionError):
    pass


class RecipeInvariantError(ConstructionError):
    pass


class NoValidYError(ConstructionError):
    pass


class DivisorTooSmallError(ConstructionError):
    def __init__(self, divisor: int, bound: int):
        self.divisor = divisor
        self.bound = bound
        super().__init__(
            f"maximal prime power divisor {divisor} does not exceed {bound}")


class NoHdsError(ConstructionError):
    pass


COMPLETION_SINGLE = "single"
COMPLETION_PER_BLOCK = "per-block"
COMPLETIONS = (COMPLETION_SINGLE, COMPLETION_PER_BLOCK)

# a report kind on the right certifies a prediction of the kind on the left
_REFINEMENTS = {
    PDF: {PDF},
    RELATIVE_PDF: {RELATIVE_PDF},
    DF: {DF, PDF, RELATIVE_PDF, DS},
    SDF: {SDF, DIFFERENCE_MULTISET},
    DS: {DS},
    DIFFERENCE_MULTISET: {DIFFERENCE_MULTISET},
}


@dataclass(frozen=True)
class Prediction:
    """Parameter tuple a construction is expected to certify at."""

    kind: str
    v: int
    K: tuple[int, ...]
    lambda_or_mu: int
    h: int = 1

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _REFINEMENTS):
            raise ValueError(f"unknown declared kind {self.kind!r}")

    def matches(self, report) -> bool:
        return (report.kind in _REFINEMENTS[self.kind]
                and report.v == self.v
                and tuple(report.K) == tuple(self.K)
                and report.lambda_or_mu == self.lambda_or_mu
                and (self.kind not in (DF, RELATIVE_PDF)
                     or report.h == self.h))


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    family: DesignFamily
    report: object
    predicted: Prediction

    @property
    def certified(self) -> bool:
        return self.predicted.matches(self.report)


def complement_pdf(group: FiniteGroup, block,
                   convention: DiffConvention = DEFAULT_CONVENTION
                   ) -> ConstructionResult:
    """{D, G minus D} for a difference set D: a two-block ordinary PDF.

    A (v,k,lam) difference set yields a (v,[k,v-k],v-2k+2*lam) partitioned
    family; it is Hadamard exactly when v = 2(v-2k+2*lam).
    """
    d = sorted(_indices(group, list(block)))
    repeated = [a for a, b in zip(d, d[1:]) if a == b]
    if repeated:
        raise NotADifferenceSetError(f"element {repeated[0]} is repeated")
    v = group.order
    if not d or len(d) >= v:
        raise NotADifferenceSetError("need a nonempty proper subset")
    ds_report = verify(make_family(group, [d], convention=convention))
    if ds_report.kind != DS or ds_report.h != 1:
        raise NotADifferenceSetError(
            f"block does not certify as an ordinary difference set "
            f"(got {ds_report.kind}, witness {ds_report.witness})")
    k = len(d)
    lam = ds_report.lambda_or_mu
    comp = sorted(set(range(v)) - set(d))
    fam = make_family(group, [d, comp], convention=convention)
    pred = Prediction(PDF, v, tuple(sorted((k, v - k))), v - 2 * k + 2 * lam)
    return ConstructionResult(fam, verify(fam), pred)


def _hadamard_report(pdf: DesignFamily) -> VerificationReport:
    """The report of a family that certifies as a Hadamard PDF."""
    rep = verify(pdf)
    if not rep.hadamard:
        raise NotHadamardError(
            f"input does not certify as a Hadamard PDF (kind {rep.kind}, "
            f"v={rep.v}, lambda={rep.lambda_or_mu})")
    return rep


def double_sdf(pdf: DesignFamily) -> ConstructionResult:
    """Double every block of a Hadamard PDF into a strong difference family.

    Doubling a block multiplies its non-identity difference counts by four
    and contributes 2|X| identity differences, so a (2*lam,K,lam)-PDF
    doubles to a (2*lam, 2K, 4*lam)-SDF.
    """
    rep = _hadamard_report(pdf)
    doubled = make_family(pdf.group, [b.scaled(2) for b in pdf.blocks],
                          convention=pdf.convention)
    pred = Prediction(SDF, rep.v, tuple(sorted(2 * k for k in rep.K)),
                      4 * rep.lambda_or_mu)
    return ConstructionResult(doubled, verify(doubled), pred)


def paley_double_sdf(q: int,
                     convention: DiffConvention = DEFAULT_CONVENTION
                     ) -> ConstructionResult:
    """Doubled complement of the quadratic residues mod a prime q = 3 mod 4.

    The complement (zero plus the non-residues) doubled is a single-block
    (q, q+1, q+1) difference multiset.
    """
    if not is_prime(q):
        raise BadResidueClassError(f"{q} is not prime")
    if q % 4 != 3:
        raise BadResidueClassError(f"{q} = {q % 4} (mod 4); need 3 (mod 4)")
    group = CyclicGroup(q)
    residues = {pow(x, 2, q) for x in range(1, q)}
    comp = sorted(set(range(q)) - residues)
    block = Multiset(group, counts={e: 2 for e in comp})
    fam = DesignFamily(group, (block,), convention=convention)
    pred = Prediction(DIFFERENCE_MULTISET, q, (q + 1,), q + 1)
    return ConstructionResult(fam, verify(fam), pred)


def _check_strong(sdf: DesignFamily, e: int, lam_h: int) -> None:
    """Certify the strong family and check mu * e = lam * (|H|-1) = lam_h."""
    rep = verify(sdf)
    if rep.kind not in (SDF, DIFFERENCE_MULTISET):
        raise ParameterMismatchError("input does not certify as a strong "
                                     f"difference family (got {rep.kind})")
    if rep.lambda_or_mu * e != lam_h:
        raise ParameterMismatchError(
            f"mu*e = {rep.lambda_or_mu * e} but lambda*(|H|-1) = {lam_h}")


def sdf_lift(sdf: DesignFamily, h_group: FiniteGroup, lifts, endos,
             lam: int) -> ConstructionResult:
    """Lift a strong difference family to a relative difference family.

    lifts[i] is a set of (g, h) pairs projecting onto the i-th block of the
    strong family; endos is a list of endomorphism value tables of the
    second group, integer arrays of length |H|.  When mu * len(endos) =
    lam * (|H|-1) and the combined endomorphism images of every difference
    fiber L_g cover H minus zero uniformly lam times, the images of the
    lifts under all (g,h)->(g,e(h)) form a (|G||H|, G x {0}, ^e K, lam)
    difference family in G x H, read under the strong family's convention.

    This public entry checks its inputs (strong family, identity, table
    shape, type, range and endomorphism_mask, lifts), then runs the core
    shared with expand_hadamard_pdf (_lift), whose certificate decides.
    """
    g_group, hn = sdf.group, h_group.order
    _check_strong(sdf, len(endos), lam * (hn - 1))

    try:
        tables = np.asarray(endos)
    except ValueError:  # ragged
        raise ValueError("endomorphism table has wrong length") from None
    if tables.ndim != 2 or tables.shape[1] != hn:
        raise ValueError("endomorphism table has wrong length")
    tables = _int_matrix(endos, tables, "endomorphism table")
    if ((tables < 0) | (tables >= hn)).any():
        raise ValueError("endomorphism table value out of range")
    if not endomorphism_mask(h_group, tables).all():
        raise ValueError("table is not an endomorphism")

    if len(lifts) != len(sdf.blocks):
        raise ProjectionMismatchError("one lift block per strong block")
    pairs, lengths = [], []
    for i, (block, x) in enumerate(zip(lifts, sdf.blocks)):
        gs, hs = zip(*block) if block else ((), ())
        gs, hs = _indices(g_group, list(gs)), _indices(h_group, list(hs))
        if len(set(zip(gs, hs))) != len(gs):
            raise ProjectionMismatchError(f"lift block {i} has repeats")
        if not np.array_equal(np.sort(gs), x.elements):
            raise ProjectionMismatchError(
                f"projection of lift block {i} does not match the strong "
                f"family block")
        pairs += zip(gs, hs)
        lengths.append(len(gs))
    gs, hs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    result = _lift(ProductGroup([g_group, h_group]), gs, lengths,
                   tables[:, hs], lam, sdf.convention)
    if not result.certified:  # after _check_strong, it has a witness
        g = result.report.witness.element // hn
        raise ConditionFailsError(
            f"endomorphism covering fails at g = {g_group.coords(g)}")
    return result


def _lift(ambient: ProductGroup, gs, lengths, images, lam: int,
          convention: DiffConvention) -> ConstructionResult:
    """The verified relative family of the blocks {(gs[j], images[t, j])},
    one per lifted block (the next lengths[i] positions) and table t.  A
    table that collapses a block repeats an element of it, whose identity
    difference on G x {0} fails certification; in the expansion no starter
    sends the h-difference 2f(d) of a lifted pair to zero."""
    g_group, h_group = ambient.factors
    rows = [np.sort(r, axis=1) for r in np.split(
        ambient.join((gs, images)), np.cumsum(lengths)[:-1], axis=1)]
    sizes = np.repeat(lengths, len(images)).tolist()
    blocks = _blocks_of(ambient, np.concatenate([r.ravel() for r in rows]),
                        sizes)
    forbidden = ambient.join((np.arange(g_group.order), h_group.identity))
    fam = DesignFamily(ambient, tuple(blocks), frozenset(forbidden.tolist()),
                       convention)
    pred = Prediction(DF, ambient.order, tuple(sorted(sizes)), lam,
                      h=g_group.order)
    return ConstructionResult(fam, verify(fam), pred)


@dataclass(frozen=True)
class ExpansionRecipe:
    """Everything needed to replay one ring expansion of a Hadamard PDF,
    whose differences are read under the convention of the family pdf.

    However it is built, a recipe checks every invariant that does not need
    its base certified; validate_recipe certifies the base.
    """

    pdf: DesignFamily
    ring: Ring
    y: tuple[int, ...]
    f_map: tuple[int, ...]  # group element index -> ring element index
    starters: tuple[int, ...]
    completion: str

    def __post_init__(self):
        if self.completion not in COMPLETIONS:
            raise RecipeInvariantError(
                f"completion must be one of {COMPLETIONS}")
        ring = self.ring
        if ring.order % 2 == 0:
            raise EvenOrderError("expansion ring must have odd order")
        kmax = max(self.pdf.block_sizes)
        if len(self.y) != kmax:
            raise NoValidYError(
                f"need a unit set of size {kmax}, got {len(self.y)}")
        chk = check_y_condition(ring, self.y)
        if not chk.ok:
            raise NoValidYError(
                f"unit-difference condition fails: {chk.reason}"
                + ("" if chk.witness is None else f", pair {chk.witness}"))
        if len(self.f_map) != self.pdf.group.order:
            raise RecipeInvariantError("f must be defined on the whole group")
        yset = set(self.y)
        for block in self.pdf.blocks:
            seen = set()
            for d in block.positions():
                fd = self.f_map[d]
                if fd not in yset:
                    raise RecipeInvariantError(f"f({d}) = {fd} is outside Y")
                if fd in seen:
                    raise RecipeInvariantError(
                        f"f repeats the value {fd} inside one block")
                seen.add(fd)
        n = (ring.order - 1) // 2
        if len(self.starters) != n or len(set(self.starters)) != n:
            raise RecipeInvariantError(f"need {n} distinct starters")
        starters = _indices(ring.additive, list(self.starters))
        if 0 in starters:
            raise RecipeInvariantError("0 is not a starter")
        if np.isin(ring.neg(np.array(starters)), starters).any():
            raise RecipeInvariantError(
                "starters must pick one element per {h,-h} pair")


def make_recipe(pdf: DesignFamily, ring: Ring,
                completion: str = COMPLETION_SINGLE, y=None
                ) -> ExpansionRecipe:
    """Canonical recipe over a Hadamard PDF: power-built Y, block-position
    f, canonical starters.

    f sends the j-th element of each block (canonical element order) to the
    j-th element of Y; Y defaults to the diagonal powers of the canonical
    primitive elements when the ring is a field or a product of fields.
    The base is certified here and the recipe checks the rest.
    """
    _hadamard_report(pdf)
    starters = tuple(starter_reps(ring))  # refuses an even ring
    if y is None:
        try:
            y = build_y_powers(ring, max(pdf.block_sizes))
        except TypeError as exc:
            raise NoValidYError(
                f"no canonical unit set for this ring ({exc}); pass one") from exc
    y = _indices(ring.additive, list(y))
    f_map = np.full(pdf.group.order, -1)
    for block in pdf.blocks:
        # a Y shorter than the block leaves a -1; the recipe refuses |Y|
        f_map[block.elements[:len(y)]] = y[:block.size]
    return ExpansionRecipe(pdf, ring, tuple(y), tuple(f_map.tolist()),
                           starters, completion)


def validate_recipe(recipe: ExpansionRecipe) -> VerificationReport:
    """Certify the recipe's base as a Hadamard PDF and return its report;
    the recipe checked everything else when it was built."""
    return _hadamard_report(recipe.pdf)


@dataclass(frozen=True, eq=False)
class ExpansionResult(ConstructionResult):
    recipe: ExpansionRecipe = None
    relative: ConstructionResult = None


def expand_hadamard_pdf(recipe: ExpansionRecipe) -> ExpansionResult:
    """Expand a Hadamard (2*lam,K,lam)-PDF by an odd-order ring.

    Each block element d lifts to the pair (d, f(d)), (d, -f(d)); every
    starter multiplies the lifted blocks; the result is a relative PDF over
    the product group whose completion over the zero fiber gives an
    ordinary PDF with doubled index.  The "single" completion appends the
    whole zero fiber as one block, "per-block" appends one zero-fiber copy
    of each original block.

    Only the base is certified here (validate_recipe); with the recipe's
    own checks it implies the fiber conditions.  A difference at g != 0
    comes from one of the lam ordered pairs d, d' in a base block with
    d - d' = g, as the four values +-f(d) -+ f(d'): differences of distinct
    elements of Y u -Y, since f is injective into Y on the block, so units
    by the recipe.  The fiber at g = 0 holds +-2f(d) for the v = 2*lam
    elements d.  So every fiber holds 4*lam units, closed under negation,
    and the starters, one per {h,-h} pair, cover H minus zero 2*lam times
    from it; none sends the unit 2f(d) to zero, so no block collapses; the
    images keep g, so each block sweeps its own fiber once (the
    RELATIVE_PDF check below).  Starter tables are additive by
    distributivity; _lift's verify and the final verify certify.
    """
    base = validate_recipe(recipe)
    lam, n = base.lambda_or_mu, len(recipe.starters)
    g_group, conv = recipe.pdf.group, recipe.pdf.convention
    ring, h_group = recipe.ring, recipe.ring.additive
    ambient = ProductGroup([g_group, h_group])

    # lifted block i: (d, f(d)), (d, -f(d)) for d in block i, in order
    sources = [b.elements for b in recipe.pdf.blocks]
    lengths = [2 * len(s) for s in sources]
    gs = np.repeat(np.concatenate(sources), 2)
    fd = np.asarray(recipe.f_map, dtype=np.int64)[gs[::2]]
    hs = np.stack((fd, h_group.neg(fd)), axis=1).ravel()

    _check_strong(double_sdf(recipe.pdf).family, n,
                  2 * lam * (ring.order - 1))
    tables = np.fromiter(
        (ring.mul(s, h) for s in recipe.starters for h in range(ring.order)),
        dtype=np.int64, count=n * ring.order).reshape(n, ring.order)
    relative = _lift(ambient, gs, lengths, tables[:, hs], 2 * lam, conv)
    # the images keep g: each block sweeps its own fiber iff they tile G x H-0
    if relative.report.kind != RELATIVE_PDF:
        raise RecipeInvariantError(
            "starter images do not sweep the block fiber exactly once")

    # sorted rows: joining a fixed h keeps the order of g
    zero_fiber = ([np.arange(g_group.order)]
                  if recipe.completion == COMPLETION_SINGLE else sources)
    final = DesignFamily(ambient, relative.family.blocks + tuple(_blocks_of(
        ambient, ambient.join((np.concatenate(zero_fiber), h_group.identity)),
        list(map(len, zero_fiber)))), convention=conv)
    sizes = [2 * k for k in base.K for _ in range(n)]
    sizes += map(len, zero_fiber)
    pred = Prediction(PDF, ambient.order, tuple(sorted(sizes)), 2 * lam)
    return ExpansionResult(final, verify(final), pred, recipe=recipe,
                           relative=relative)


def ring_for_modulus(m: int) -> Ring:
    """The product of Galois fields of the maximal prime power divisors."""
    factors = [GaloisField(p, a) for p, a in sorted(
        factorize(m).items(), key=lambda pa: pa[0] ** pa[1])]
    return factors[0] if len(factors) == 1 else ProductRing(factors)


def _check_divisors(m: int, bound: int) -> None:
    if m < 3 or m % 2 == 0:
        raise ValueError("modulus must be odd and at least 3")
    offenders = [q for q in maximal_prime_power_divisors(m) if q <= bound]
    if offenders:
        raise DivisorTooSmallError(max(offenders), bound)


def hadamard_pdf_from_hds(u: int, group: FiniteGroup | None = None,
                          convention: DiffConvention = DEFAULT_CONVENTION
                          ) -> ConstructionResult:
    """Complement pair over the first searched (4u^2, 2u^2-u, u^2-u) set."""
    hds_parameters(u)  # refuses u < 1 before a default group is sought
    if group is None:
        if u == 1:
            group = CyclicGroup(4)
        elif u == 2:
            group = ProductGroup([CyclicGroup(4), CyclicGroup(4)])
        else:
            raise NoHdsError(f"no default group for u = {u}; pass one")
    found = search_hds(group, u, SearchBounds(max_results=1),
                       convention=convention)
    if not found.results:
        raise NoHdsError(f"no Hadamard difference set found in {group!r}")
    base = complement_pdf(group, found.results[0], convention)
    if not base.certified:
        raise RecipeInvariantError("complement family failed certification")
    return base


def _both_completions(pdf: DesignFamily, m: int
                      ) -> tuple[ExpansionResult, ExpansionResult]:
    """The single and per-block expansions of a Hadamard PDF by the ring
    of the modulus m."""
    ring = ring_for_modulus(m)
    return tuple(expand_hadamard_pdf(make_recipe(pdf, ring, completion))
                 for completion in COMPLETIONS)


def expand_from_hds(u: int, m: int, group: FiniteGroup | None = None,
                    convention: DiffConvention = DEFAULT_CONVENTION
                    ) -> tuple[ExpansionResult, ExpansionResult]:
    """Both completions of the expansion built on a searched (4u^2, 2u^2-u,
    u^2-u) difference set, for an odd modulus whose maximal prime power
    divisors all exceed 4u^2 + 2u, twice the larger block.  The bound is
    checked before the search."""
    _check_divisors(m, 4 * u * u + 2 * u)
    return _both_completions(
        hadamard_pdf_from_hds(u, group, convention).family, m)


def expand_nonabelian32(m: int,
                        convention: DiffConvention = DEFAULT_CONVENTION
                        ) -> tuple[ExpansionResult, ExpansionResult]:
    """Both completions of the expansion built on the order-32 family, for
    an odd modulus whose maximal prime power divisors all exceed twice its
    largest block."""
    from .catalog import order32_family

    pdf = replace(order32_family(), convention=convention)
    _check_divisors(m, 2 * max(pdf.block_sizes))
    return _both_completions(pdf, m)
