"""Difference-family constructions, each checked by the brute-force verifier.

Every construction returns a ConstructionResult carrying the built family,
the parameters it should have, and the verifier's independent report; the
`certified` flag compares the two.  Nothing is trusted: the verifier
recounts every difference from scratch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup)
from .multisets import (DF, DIFFERENCE_MULTISET, DS, PDF, RELATIVE_PDF, SDF,
                        DesignFamily, Multiset, _difference_counts,
                        make_family, verify)
from .rings import (EvenOrderError, GaloisField, ProductRing, Ring,
                    additive_group, build_y_powers, check_y_condition,
                    factorize, is_prime, maximal_prime_power_divisors,
                    starter_reps)


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
    convention: DiffConvention

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
    d = sorted({group._check(int(e)) for e in block})
    v = group.order
    if not d or len(d) >= v:
        raise NotADifferenceSetError("need a nonempty proper subset")
    ds_report = verify(make_family(group, [d]), convention)
    if ds_report.kind != DS or ds_report.h != 1:
        raise NotADifferenceSetError(
            f"block does not certify as an ordinary difference set "
            f"(got {ds_report.kind}, witness {ds_report.witness})")
    k = len(d)
    lam = ds_report.lambda_or_mu
    comp = sorted(set(range(v)) - set(d))
    fam = make_family(group, [d, comp])
    pred = Prediction(PDF, v, tuple(sorted((k, v - k))), v - 2 * k + 2 * lam)
    return ConstructionResult(fam, verify(fam, convention), pred, convention)


def double_sdf(pdf: DesignFamily,
               convention: DiffConvention = DEFAULT_CONVENTION
               ) -> ConstructionResult:
    """Double every block of a Hadamard PDF into a strong difference family.

    Doubling a block multiplies its non-identity difference counts by four
    and contributes 2|X| identity differences, so a (2*lam,K,lam)-PDF
    doubles to a (2*lam, 2K, 4*lam)-SDF.
    """
    rep = verify(pdf, convention)
    if rep.kind != PDF:
        raise NotHadamardError(
            f"input does not certify as an ordinary PDF (got {rep.kind})")
    if rep.v != 2 * rep.lambda_or_mu:
        raise NotHadamardError(
            f"PDF is not Hadamard: v={rep.v}, lambda={rep.lambda_or_mu}")
    doubled = make_family(pdf.group, [b.scaled(2) for b in pdf.blocks])
    pred = Prediction(SDF, rep.v, tuple(sorted(2 * k for k in rep.K)),
                      4 * rep.lambda_or_mu)
    return ConstructionResult(doubled, verify(doubled, convention), pred,
                              convention)


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
    fam = DesignFamily(group, (block,))
    pred = Prediction(DIFFERENCE_MULTISET, q, (q + 1,), q + 1)
    return ConstructionResult(fam, verify(fam, convention), pred, convention)


def _fiber_matrix(g_group: FiniteGroup, h_group: FiniteGroup, lifts,
                  convention: DiffConvention) -> np.ndarray:
    """Row g, column h: how often a difference inside one lifted block is
    (g, h), tallied over G x H, where (g, h) has index g*|H| + h."""
    ambient = ProductGroup([g_group, h_group])
    rows = [[ambient.join(p) for p in pairs] for pairs in lifts]
    return _difference_counts(ambient, rows, convention).reshape(
        g_group.order, h_group.order)


def sdf_lift(sdf: DesignFamily, h_group: FiniteGroup, lifts, endos,
             lam: int, convention: DiffConvention = DEFAULT_CONVENTION
             ) -> ConstructionResult:
    """Lift a strong difference family to a relative difference family.

    lifts[i] is a set of (g, h) pairs projecting onto the i-th block of the
    strong family; endos is a list of endomorphism value tables of the
    second group.  When mu * len(endos) = lam * (|H|-1) and the combined
    endomorphism images of every difference fiber L_g cover H minus zero
    uniformly lam times, the images of the lifts under all (g,h)->(g,e(h))
    form a (|G||H|, G x {0}, ^e K, lam) difference family in G x H.
    """
    g_group = sdf.group
    sdf_report = verify(sdf, convention)
    if sdf_report.kind not in (SDF, DIFFERENCE_MULTISET):
        raise ParameterMismatchError(
            f"input does not certify as a strong difference family "
            f"(got {sdf_report.kind})")
    mu = sdf_report.lambda_or_mu
    e = len(endos)
    if mu * e != lam * (h_group.order - 1):
        raise ParameterMismatchError(
            f"mu*e = {mu * e} but lambda*(|H|-1) = {lam * (h_group.order - 1)}")

    hn = h_group.order
    idx = np.arange(hn)
    optab = h_group.op(idx[:, None], idx[None, :])
    tables = [[int(x) for x in t] for t in endos]
    if any(len(t) != hn for t in tables):
        raise ValueError("endomorphism table has wrong length")
    tables = np.array(tables, dtype=np.int64).reshape(len(tables), hn)
    if ((tables < 0) | (tables >= hn)).any():
        raise ValueError("endomorphism table value out of range")
    for t in tables:
        # e(a + b) = e(a) + e(b), checked on the full operation table
        if not np.array_equal(t[optab], optab[np.ix_(t, t)]):
            raise ValueError("table is not an endomorphism")

    if len(lifts) != len(sdf.blocks):
        raise ProjectionMismatchError("one lift block per strong block")
    clean_lifts = []
    for i, (block, x) in enumerate(zip(lifts, sdf.blocks)):
        pairs = [(g_group._check(int(g)), h_group._check(int(h)))
                 for g, h in block]
        if len(set(pairs)) != len(pairs):
            raise ProjectionMismatchError(f"lift block {i} has repeats")
        proj = Counter(g for g, _ in pairs)
        if proj != x.counts:
            raise ProjectionMismatchError(
                f"projection of lift block {i} does not match the strong "
                f"family block")
        clean_lifts.append(pairs)

    # sends[h, h'] counts the tables sending h to h'; the images of fiber
    # L_g under all tables must be lam copies of H minus zero
    sends = np.bincount((idx * hn + tables).ravel(),
                        minlength=hn * hn).reshape(hn, hn)
    covered = _fiber_matrix(g_group, h_group, clean_lifts, convention) @ sends
    h_ident = h_group.identity
    want = np.full(hn, lam)
    want[h_ident] = 0
    bad = (covered != want).any(axis=1)
    if bad.any():
        raise ConditionFailsError("endomorphism covering fails at g = "
                                  f"{g_group.coords(int(bad.argmax()))}")

    ambient = ProductGroup([g_group, h_group])
    blocks = []
    for pairs in clean_lifts:
        gs, hs = np.array(pairs).T
        images = np.sort(ambient.join((gs, tables[:, hs])), axis=1)
        if (np.diff(images, axis=1) == 0).any():
            raise ConditionFailsError("endomorphism collapses a block")
        blocks.extend(images.tolist())
    forbidden = frozenset(ambient.join((g, h_ident))
                          for g in g_group.elements())
    fam = make_family(ambient, blocks, forbidden=forbidden)
    sizes = tuple(sorted(len(p) for p in clean_lifts for _ in tables))
    pred = Prediction(DF, ambient.order, sizes, lam, h=g_group.order)
    return ConstructionResult(fam, verify(fam, convention), pred, convention)


@dataclass(frozen=True)
class ExpansionRecipe:
    """Everything needed to replay one ring expansion of a Hadamard PDF."""

    pdf: DesignFamily
    ring: Ring
    y: tuple[int, ...]
    f_map: tuple[int, ...]  # group element index -> ring element index
    starters: tuple[int, ...]
    completion: str
    convention: DiffConvention = DEFAULT_CONVENTION


def make_recipe(pdf: DesignFamily, ring: Ring,
                completion: str = COMPLETION_SINGLE, y=None,
                convention: DiffConvention = DEFAULT_CONVENTION
                ) -> ExpansionRecipe:
    """Canonical recipe: power-built Y, block-position f, canonical starters.

    f sends the j-th element of each block (canonical element order) to the
    j-th element of Y; Y defaults to the diagonal powers of the canonical
    primitive elements when the ring is a field or a product of fields.
    """
    if completion not in COMPLETIONS:
        raise ValueError(f"completion must be one of {COMPLETIONS}")
    rep = verify(pdf, convention)
    if rep.kind != PDF or rep.v != 2 * rep.lambda_or_mu:
        raise NotHadamardError(
            f"input does not certify as a Hadamard PDF (kind {rep.kind}, "
            f"v={rep.v}, lambda={rep.lambda_or_mu})")
    if ring.order % 2 == 0:
        raise EvenOrderError("expansion ring must have odd order")
    if ring.order < 3:
        raise ValueError("expansion ring must have at least 3 elements")
    kmax = max(rep.K)
    if y is None:
        try:
            y = build_y_powers(ring, kmax)
        except TypeError as exc:
            raise NoValidYError(
                f"no canonical unit set for this ring ({exc}); pass one") from exc
    y = [ring._check(int(v)) for v in y]
    if len(y) != kmax:
        raise NoValidYError(f"need a unit set of size {kmax}, got {len(y)}")
    chk = check_y_condition(ring, y)
    if not chk.ok:
        raise NoValidYError(
            f"unit-difference condition fails: {chk.reason}, pair {chk.witness}")
    f_map = [-1] * pdf.group.order
    for block in pdf.blocks:
        for j, d in enumerate(sorted(block.counts)):
            f_map[d] = y[j]
    return ExpansionRecipe(pdf, ring, tuple(y), tuple(f_map),
                           tuple(starter_reps(ring)), completion, convention)


def validate_recipe(recipe: ExpansionRecipe) -> dict:
    """Recheck every recipe invariant; returns basic parameters."""
    rep = verify(recipe.pdf, recipe.convention)
    if rep.kind != PDF or rep.v != 2 * rep.lambda_or_mu:
        raise RecipeInvariantError("base family is not a Hadamard PDF")
    ring = recipe.ring
    if ring.order % 2 == 0 or ring.order < 3:
        raise RecipeInvariantError("ring order must be odd and at least 3")
    kmax = max(rep.K)
    if len(recipe.y) != kmax:
        raise RecipeInvariantError(
            f"|Y| = {len(recipe.y)} but the largest block has {kmax} elements")
    chk = check_y_condition(ring, recipe.y)
    if not chk.ok:
        raise RecipeInvariantError(
            f"unit-difference condition fails: {chk.reason}")
    if len(recipe.f_map) != recipe.pdf.group.order:
        raise RecipeInvariantError("f must be defined on the whole group")
    yset = set(recipe.y)
    for block in recipe.pdf.blocks:
        seen = set()
        for d in block.counts:
            fd = recipe.f_map[d]
            if fd not in yset:
                raise RecipeInvariantError(f"f({d}) = {fd} is outside Y")
            if fd in seen:
                raise RecipeInvariantError(
                    f"f repeats the value {fd} inside one block")
            seen.add(fd)
    n = (ring.order - 1) // 2
    starters = recipe.starters
    if len(starters) != n or len(set(starters)) != n:
        raise RecipeInvariantError(f"need {n} distinct starters")
    seen = set()
    for s in starters:
        if s == 0:
            raise RecipeInvariantError("0 is not a starter")
        if ring.neg(s) in seen or s in seen:
            raise RecipeInvariantError(
                "starters must pick one element per {h,-h} pair")
        seen.add(s)
    if recipe.completion not in COMPLETIONS:
        raise RecipeInvariantError(
            f"completion must be one of {COMPLETIONS}")
    return {"lam": rep.lambda_or_mu, "kmax": kmax, "n": n, "K": rep.K}


@dataclass(frozen=True, eq=False)
class ExpansionResult(ConstructionResult):
    recipe: ExpansionRecipe = None
    relative: ConstructionResult = None
    lg_checks: dict = None


def expand_hadamard_pdf(recipe: ExpansionRecipe) -> ExpansionResult:
    """Expand a Hadamard (2*lam,K,lam)-PDF by an odd-order ring.

    Each block element d lifts to the pair (d, f(d)), (d, -f(d)); every
    starter multiplies the lifted blocks; the result is a relative PDF over
    the product group whose completion over the zero fiber gives an
    ordinary PDF with doubled index.  The "single" completion appends the
    whole zero fiber as one block, "per-block" appends one zero-fiber copy
    of each original block.
    """
    params = validate_recipe(recipe)
    lam, n = params["lam"], params["n"]
    g_group = recipe.pdf.group
    ring = recipe.ring
    h_group = additive_group(ring)

    lifts = []
    for block in recipe.pdf.blocks:
        pairs = []
        for d in sorted(block.counts):
            fd = recipe.f_map[d]
            pairs.append((d, fd))
            pairs.append((d, ring.neg(fd)))
        lifts.append(pairs)

    # difference fibers of the lifted blocks: every fiber must hold 4*lam
    # entries, be closed under negation, and contain only units
    fibers = _fiber_matrix(g_group, h_group, lifts, recipe.convention)
    lg_checks = {"size": True, "negation_closed": True, "units": True}
    negated = fibers[:, h_group.neg(np.arange(ring.order))]
    non_units = [h for h in np.flatnonzero(fibers.any(axis=0)).tolist()
                 if not ring.is_unit(h)]
    for problem, bad in (
            (f"does not hold {4 * lam} entries",
             fibers.sum(axis=1) != 4 * lam),
            ("is not closed under negation", (fibers != negated).any(axis=1)),
            (f"holds a non-unit of {non_units}",
             fibers[:, non_units].any(axis=1))):
        if bad.any():
            raise RecipeInvariantError(
                f"difference fiber at g={g_group.coords(int(bad.argmax()))} "
                f"{problem}")

    sdf = double_sdf(recipe.pdf, recipe.convention)
    if not sdf.certified:
        raise RecipeInvariantError("doubled family failed certification")
    endos = [tuple(ring.mul(s, h) for h in range(ring.order))
             for s in recipe.starters]
    relative = sdf_lift(sdf.family, h_group, lifts, endos, 2 * lam,
                        recipe.convention)

    ambient = relative.family.group
    # across all starters, each source block sweeps its own full fiber:
    # the union of its images is exactly block x (H minus 0), once each
    nonzero = np.flatnonzero(np.arange(ring.order) != h_group.identity)
    for i, block in enumerate(recipe.pdf.blocks):
        swept = sorted(e for b in relative.family.blocks[i * n:(i + 1) * n]
                       for e in b)
        want = ambient.join((np.array(sorted(block.counts))[:, None], nonzero))
        if swept != want.ravel().tolist():
            raise RecipeInvariantError(
                "starter images do not sweep the block fiber exactly once")

    final_blocks = [sorted(b.counts) for b in relative.family.blocks]
    if recipe.completion == COMPLETION_SINGLE:
        final_blocks.append(
            [ambient.join((g, h_group.identity)) for g in g_group.elements()])
        completion_sizes = [g_group.order]
    else:
        for block in recipe.pdf.blocks:
            final_blocks.append(
                [ambient.join((d, h_group.identity))
                 for d in sorted(block.counts)])
        completion_sizes = [b.size for b in recipe.pdf.blocks]

    final = make_family(ambient, final_blocks)
    sizes = [2 * k for k in params["K"] for _ in range(n)] + completion_sizes
    pred = Prediction(PDF, g_group.order * ring.order,
                      tuple(sorted(sizes)), 2 * lam)
    return ExpansionResult(final, verify(final, recipe.convention), pred,
                           recipe.convention, recipe=recipe,
                           relative=relative, lg_checks=lg_checks)


def ring_for_modulus(m: int) -> Ring:
    """The product of Galois fields of the maximal prime power divisors."""
    factors = []
    for p, a in sorted(factorize(m).items(), key=lambda pa: pa[0] ** pa[1]):
        factors.append(GaloisField(p, a))
    if len(factors) == 1:
        return factors[0]
    return ProductRing(factors)


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
    from .search import SearchBounds, search_hds

    if u < 1:
        raise ValueError("u must be positive")
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


def expand_from_hds(u: int, m: int, group: FiniteGroup | None = None,
                    convention: DiffConvention = DEFAULT_CONVENTION
                    ) -> tuple[ExpansionResult, ExpansionResult]:
    """Both completions of the expansion built on a searched (4u^2, 2u^2-u,
    u^2-u) difference set, for an odd modulus whose maximal prime power
    divisors all exceed 4u^2 + 2u."""
    _check_divisors(m, 4 * u * u + 2 * u)
    base = hadamard_pdf_from_hds(u, group, convention)
    ring = ring_for_modulus(m)
    out = []
    for completion in COMPLETIONS:
        rec = make_recipe(base.family, ring, completion,
                          convention=convention)
        out.append(expand_hadamard_pdf(rec))
    return tuple(out)


def expand_nonabelian32(m: int,
                        convention: DiffConvention = DEFAULT_CONVENTION
                        ) -> tuple[ExpansionResult, ExpansionResult]:
    """Both completions of the expansion built on the order-32 family."""
    from .catalog import order32_family

    _check_divisors(m, 44)
    pdf = order32_family()
    ring = ring_for_modulus(m)
    out = []
    for completion in COMPLETIONS:
        rec = make_recipe(pdf, ring, completion, convention=convention)
        out.append(expand_hadamard_pdf(rec))
    return tuple(out)
