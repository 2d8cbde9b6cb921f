"""Difference-family constructions, each checked by the brute-force verifier.

Every construction returns a ConstructionResult carrying the built family,
the parameters it should have, and the verifier's independent report; the
`certified` flag compares the two.  Nothing is trusted: the verifier
counts every difference of the built blocks, or of the blocks added to a
family it has already verified (multisets._extend).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup, _field, _indices, _instance,
                     _int_field, _ints, _is_int)
from .multisets import (DF, DIFFERENCE_MULTISET, DS, PDF, RELATIVE_PDF, SDF,
                        DesignFamily, VerificationReport, _block, _extend,
                        _family, _sort_blocks, make_family, verify)
# the largest modulus accepted is the ring bound: m builds a ring of order m
from .rings import MAX_ORDER as MAX_MODULUS
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


class ParameterMismatchError(ConstructionError):
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
        # checked as the JSON decoder does; numpy integers are stored as
        # Python ints, so the prediction encodes
        for key in ("v", "lambda_or_mu", "h"):
            object.__setattr__(self, key, _int_field(vars(self), key))
        object.__setattr__(self, "K", tuple(map(int, _field(
            vars(self), "K", _ints, "an array of integers"))))

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
    x = _block(group, block)
    repeated = x[1:][x[1:] == x[:-1]]
    if len(repeated):
        raise NotADifferenceSetError(f"element {repeated[0]} is repeated")
    v, k = group.order, len(x)
    if not k or k >= v:
        raise NotADifferenceSetError("need a nonempty proper subset")
    ds = _family(group, x, np.array([0, k]), None, convention)
    ds_report = verify(ds)
    if ds_report.kind != DS or ds_report.h != 1:
        raise NotADifferenceSetError(
            f"block does not certify as an ordinary difference set "
            f"(got {ds_report.kind}, witness {ds_report.witness})")
    lam = ds_report.lambda_or_mu
    rest = np.ones(v, dtype=bool)
    rest[x] = False
    comp = np.flatnonzero(rest)
    fam = _extend(ds, comp, np.array([0, len(comp)]))
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
    doubled = _family(pdf.group, np.repeat(pdf.positions, 2),
                      2 * pdf.offsets, None, pdf.convention)
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
    fam = make_family(group, [comp * 2], convention=convention)
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


def _lift(ambient: ProductGroup, doubled: DesignFamily, images, lam: int
          ) -> ConstructionResult:
    """The verified relative family, read under doubled's convention, of
    the blocks {(g_j, images[t, j])}, one per doubled block i (positions
    g_j) and table t; a table that collapses a block fails it."""
    g_group, h_group = ambient.factors
    # block (i, t) is doubled block i under table t, laid out i-major
    flat = np.concatenate([part.ravel() for part in np.split(
        ambient.join((doubled.positions, images)), doubled.offsets[1:-1],
        axis=1)])
    sizes = np.repeat(np.diff(doubled.offsets), len(images)).tolist()
    forbidden = ambient.join((np.arange(g_group.order), h_group.identity))
    fam = _family(ambient, *_sort_blocks(flat, sizes, ambient.order),
                  frozenset(forbidden.tolist()), doubled.convention)
    pred = Prediction(DF, ambient.order, tuple(sorted(sizes)), lam,
                      h=g_group.order)
    return ConstructionResult(fam, verify(fam), pred)


@dataclass(frozen=True)
class ExpansionRecipe:
    """Everything needed to replay one ring expansion of a Hadamard PDF,
    read under the convention of pdf.  However it is built, a recipe checks
    every invariant that does not need its base certified."""

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
        _instance(self.pdf, DesignFamily, "pdf", "a DesignFamily")
        ring = _instance(self.ring, Ring, "ring", "a ring")
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
        _field(vars(self), "f_map", _ints, "an array of integers")
        if len(self.f_map) != self.pdf.group.order:
            raise RecipeInvariantError("f must be defined on the whole group")
        yset, seen, sizes = set(self.y), set(), np.diff(self.pdf.offsets)
        block = np.repeat(np.arange(len(sizes)), sizes)
        for i, d in zip(block.tolist(), self.pdf.positions.tolist()):
            fd = self.f_map[d]
            if fd not in yset:
                raise RecipeInvariantError(f"f({d}) = {fd} is outside Y")
            if (i, fd) in seen:
                raise RecipeInvariantError(
                    f"f repeats the value {fd} inside one block")
            seen.add((i, fd))
        n = (ring.order - 1) // 2
        if len(self.starters) != n or len(set(self.starters)) != n:
            raise RecipeInvariantError(f"need {n} distinct starters")
        starters = _indices(ring.additive, list(self.starters))
        if 0 in starters:
            raise RecipeInvariantError("0 is not a starter")
        negs = ring.neg(np.array(starters)).tolist()
        if not set(starters).isdisjoint(negs):
            raise RecipeInvariantError(
                "starters must pick one element per {h,-h} pair")
        # every entry is checked to be an integer; numpy integers are
        # stored as Python ints, so the recipe encodes
        for key in ("y", "f_map", "starters"):
            object.__setattr__(self, key, tuple(map(int, getattr(self, key))))


def make_recipe(pdf: DesignFamily, ring: Ring,
                completion: str = COMPLETION_SINGLE, y=None
                ) -> ExpansionRecipe:
    """Canonical recipe over a Hadamard PDF, certified here: f sends the
    j-th element of each block to the j-th element of Y, which defaults to
    the diagonal powers of the canonical primitive elements of a field or a
    product of fields, and the starters are canonical."""
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
    # a position's rank in its block picks its y; past |Y|, -1 (refused)
    rank = np.arange(len(pdf.positions)) - np.repeat(
        pdf.offsets[:-1], np.diff(pdf.offsets))
    fits = rank < len(y)
    f_map[pdf.positions[fits]] = np.array(y, dtype=np.int64)[rank[fits]]
    return ExpansionRecipe(pdf, ring, tuple(y), tuple(f_map.tolist()),
                           starters, completion)


@dataclass(frozen=True, eq=False)
class ExpansionResult(ConstructionResult):
    recipe: ExpansionRecipe = None
    relative: ConstructionResult = None


def expand_hadamard_pdf(recipe: ExpansionRecipe) -> ExpansionResult:
    """Expand a Hadamard (2*lam,K,lam)-PDF by an odd-order ring.

    Each block element d lifts to the pair (d, f(d)), (d, -f(d)); every
    starter multiplies the lifted blocks, giving a relative PDF over the
    product group, and its completion over the zero fiber (one block, or
    one copy of each base block per "per-block") an ordinary PDF of doubled
    index.  Only the base is certified here (_hadamard_report); the recipe
    checked everything else when it was built, and with those checks the
    base implies the fiber conditions.  A difference at g != 0 comes from
    one of the lam pairs d, d' in a base block with d - d' = g, as the
    four values +-f(d) -+ f(d'), units by the recipe since f is injective
    into Y on the block; the fiber at g = 0 holds +-2f(d) for the 2*lam
    elements d.  So every fiber holds 4*lam units, closed under negation,
    which the starters, one per {h,-h} pair, spread over H minus zero
    2*lam times; none sends 2f(d) to zero, and the images keep g, so each
    block sweeps its own fiber once (the RELATIVE_PDF check below).
    _lift's verify and the final one certify; the final family extends
    the relative one, so only the zero fiber is tallied again.
    """
    _instance(recipe, ExpansionRecipe, "recipe", "an ExpansionRecipe")
    return _expand(recipe, ProductGroup([recipe.pdf.group,
                                         recipe.ring.additive]))


def _expand(recipe: ExpansionRecipe, ambient: ProductGroup
            ) -> ExpansionResult:
    """expand_hadamard_pdf over the ambient group G x R+ of the recipe,
    which the completions of one base and ring share."""
    base = _hadamard_report(recipe.pdf)
    lam, n = base.lambda_or_mu, len(recipe.starters)
    g_group, ring, h_group = (recipe.pdf.group, recipe.ring,
                              recipe.ring.additive)

    # lifted block i: (d, f(d)), (d, -f(d)) for d in block i, in order,
    # over doubled block i, whose positions are d, d
    pdf = recipe.pdf
    doubled = double_sdf(pdf).family
    fd = np.asarray(recipe.f_map, dtype=np.int64)[pdf.positions]
    hs = np.stack((fd, h_group.neg(fd)), axis=1).ravel()

    _check_strong(doubled, n, 2 * lam * (ring.order - 1))
    tables = np.fromiter(
        (ring.mul(s, h) for s in recipe.starters for h in range(ring.order)),
        dtype=np.int64, count=n * ring.order).reshape(n, ring.order)
    relative = _lift(ambient, doubled, tables[:, hs], 2 * lam)
    # the images keep g: each block sweeps its own fiber iff they tile G x H-0
    if relative.report.kind != RELATIVE_PDF:
        raise RecipeInvariantError(
            "starter images do not sweep the block fiber exactly once")

    # sorted blocks: joining a fixed h keeps the order of g
    zero, bounds = ((np.arange(g_group.order), np.array([0, g_group.order]))
                    if recipe.completion == COMPLETION_SINGLE
                    else (pdf.positions, pdf.offsets))
    final = _extend(relative.family, ambient.join((zero, h_group.identity)),
                    bounds)
    sizes = [2 * k for k in base.K for _ in range(n)]
    sizes += np.diff(bounds).tolist()
    pred = Prediction(PDF, ambient.order, tuple(sorted(sizes)), 2 * lam)
    return ExpansionResult(final, verify(final), pred, recipe=recipe,
                           relative=relative)


def ring_for_modulus(m: int) -> Ring:
    """The product of Galois fields of the maximal prime power divisors of
    an odd modulus m >= 3."""
    _check_modulus(m)
    factors = [GaloisField(p, a) for p, a in sorted(
        factorize(m).items(), key=lambda pa: pa[0] ** pa[1])]
    return factors[0] if len(factors) == 1 else ProductRing(factors)


def _check_modulus(m: int) -> None:
    """Refuse m unless it is an odd integer in [3, MAX_MODULUS], before
    anything factors it or builds its ring."""
    if not _is_int(m) or m < 3 or m % 2 == 0:
        raise ValueError("modulus must be odd and at least 3")
    if m > MAX_MODULUS:
        raise ValueError(f"modulus {m} exceeds the bound {MAX_MODULUS}")


def _check_divisors(m: int, bound: int) -> None:
    _check_modulus(m)
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
    of the modulus m, over one ambient group."""
    ring = ring_for_modulus(m)
    ambient = ProductGroup([pdf.group, ring.additive])
    return tuple(_expand(make_recipe(pdf, ring, completion), ambient)
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

    base = order32_family()
    pdf = _family(base.group, base.positions, base.offsets, None, convention)
    _check_divisors(m, 2 * max(pdf.block_sizes))
    return _both_completions(pdf, m)
