"""Multiset difference calculus over finite groups, plus the certifier.

delta_block(X) is the multiset of all differences x - x' over ordered pairs
of distinct positions of the multiset X (so a repeated element contributes
identity differences).  A DesignFamily carries the difference convention
its differences are read under (right by default; the CLI settles it as it
decodes a family file), and delta_family and verify read it from the
family.  verify() recomputes everything from the blocks and classifies the
family; it never trusts declared parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from .groups import (DEFAULT_CONVENTION, DiffConvention, FiniteGroup, _indices,
                     _is_int, is_subgroup)


class GroupMismatchError(ValueError):
    """Operands live over different groups."""


class NotAPdfError(ValueError):
    """Report does not describe an ordinary partitioned difference family."""


# report kinds
PDF = "PDF"
RELATIVE_PDF = "RelativePDF"
DF = "DF"
SDF = "SDF"
DS = "DS"
DIFFERENCE_MULTISET = "DifferenceMultiset"
INVALID = "Invalid"


class Multiset:
    """Multiset of group elements, keyed by canonical element index."""

    __slots__ = ("group", "counts")

    def __init__(self, group: FiniteGroup, elements=(), counts=None):
        self.group = group
        c: Counter = Counter()
        if counts is not None:
            counts = dict(counts)
            for e, m in zip(_indices(group, list(counts)), counts.values()):
                if not _is_int(m):
                    raise ValueError(f"multiplicity {m!r} is not an integer")
                m = int(m)
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m:
                    c[e] = m
        c.update(_indices(group, list(elements)))
        self.counts = c

    @classmethod
    def _of_checked(cls, group: FiniteGroup, counts: Counter) -> "Multiset":
        """A multiset over positive counts of already-checked indices."""
        ms = cls.__new__(cls)
        ms.group, ms.counts = group, counts
        return ms

    @property
    def size(self) -> int:
        return sum(self.counts.values())

    def mult(self, e: int) -> int:
        return self.counts.get(e, 0)

    @property
    def is_set(self) -> bool:
        return len(self.counts) == self.size

    def positions(self) -> list[int]:
        """Every element repeated per multiplicity, in canonical order."""
        return sorted(self.counts.elements())

    def scaled(self, r: int) -> "Multiset":
        """The multiset with every multiplicity scaled by r."""
        if r < 0:
            raise ValueError("negative scale")
        return Multiset(self.group,
                        counts={e: r * m for e, m in self.counts.items()})

    def __eq__(self, other):
        return (isinstance(other, Multiset)
                and self.group == other.group
                and self.counts == other.counts)

    def __iter__(self):
        return iter(self.positions())

    def __len__(self):
        return self.size

    def __repr__(self):
        inner = ", ".join(
            (f"{e}" if m == 1 else f"{e}x{m}")
            for e, m in sorted(self.counts.items()))
        return f"Multiset{{{inner}}}"


def multiset_sum(a: Multiset, b: Multiset) -> Multiset:
    if a.group != b.group:
        raise GroupMismatchError("multisets over different groups")
    c = Counter(a.counts)
    c.update(b.counts)
    return Multiset(a.group, counts=c)


def _difference_counts(group: FiniteGroup, flat: np.ndarray, lengths,
                       convention: DiffConvention) -> np.ndarray:
    """Entry e: how many ordered pairs of distinct positions of the same row
    have difference e, for rows laid end to end in flat with the given
    lengths.

    Rows of equal length are stacked, and each stack costs one add, one
    gather per non-cyclic leaf and one bincount onto the grid of the
    group's difference plan, diagonal included.  The grid is folded onto
    the elements once, and the diagonal, one identity difference per
    position, is taken back off.
    """
    plan = group.difference_plan(convention)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    tally = 0
    for k in set(lengths.tolist()):
        first = ends[lengths == k] - k
        x = flat[first[:, None] + np.arange(k)]
        tally = tally + np.bincount(plan.codes(x).ravel(),
                                    minlength=plan.grid)
    out = plan.to_elements(tally)
    out[group.identity] -= len(flat)
    return out


def _laid_out(blocks) -> tuple[np.ndarray, np.ndarray, bool]:
    """The blocks' positions laid end to end, in no particular order within
    a block, with the block sizes, and whether every block is a set."""
    counts = list(map(attrgetter("counts"), blocks))
    distinct = list(map(len, counts))
    keys = np.fromiter(chain.from_iterable(counts), dtype=np.int64,
                       count=sum(distinct))
    mult = np.fromiter(chain.from_iterable(map(dict.values, counts)),
                       dtype=np.int64, count=len(keys))
    if (mult == 1).all():
        return keys, np.array(distinct, dtype=np.int64), True
    # positions before each block's first key, and after its last
    taken = np.concatenate(([0], mult.cumsum()))
    bounds = np.cumsum([0] + distinct)
    return np.repeat(keys, mult), np.diff(taken[bounds]), False


def _from_dense(group: FiniteGroup, dense: np.ndarray) -> Multiset:
    support = np.flatnonzero(dense)
    return Multiset(group, counts=dict(zip(support.tolist(),
                                           dense[support].tolist())))


def delta_block(block: Multiset,
                convention: DiffConvention = DEFAULT_CONVENTION) -> Multiset:
    """Differences over all ordered pairs of distinct positions of a block."""
    flat, lengths, _ = _laid_out([block])
    return _from_dense(block.group, _difference_counts(
        block.group, flat, lengths, convention))


@dataclass(frozen=True, eq=False)
class DesignFamily:
    """Blocks over one group, with an optional forbidden subgroup, and the
    convention under which its differences are read."""

    group: FiniteGroup
    blocks: tuple[Multiset, ...]
    forbidden: frozenset[int] | None = None
    convention: DiffConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("family needs at least one block")
        for b in self.blocks:
            # identity first: == compares descriptors, rebuilt per call
            if b.group is not self.group and b.group != self.group:
                raise GroupMismatchError("block over a different group")
            if b.size == 0:
                raise ValueError("empty block")
        if self.forbidden is not None:
            if not is_subgroup(self.group, self.forbidden):
                raise ValueError("forbidden set is not a subgroup")

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(b.size for b in self.blocks))

    def __eq__(self, other):
        return (isinstance(other, DesignFamily)
                and self.group == other.group
                and self.blocks == other.blocks
                and self.forbidden == other.forbidden
                and self.convention is other.convention)


def make_family(group: FiniteGroup, blocks, forbidden=None,
                convention: DiffConvention = DEFAULT_CONVENTION
                ) -> DesignFamily:
    """Build a DesignFamily from iterables of indices, mappings, or Multisets.

    The elements of all the index blocks are checked in one pass, so the
    first bad element in block order is the one named.
    """
    blocks = [b if isinstance(b, (Multiset, dict)) else list(b)
              for b in blocks]
    elements = iter(_indices(group, list(chain.from_iterable(
        b for b in blocks if isinstance(b, list)))))
    ms = tuple(
        b if isinstance(b, Multiset)
        else Multiset(group, counts=b) if isinstance(b, dict)
        else Multiset._of_checked(group, Counter(islice(elements, len(b))))
        for b in blocks)
    forb = (None if forbidden is None
            else frozenset(_indices(group, list(forbidden))))
    return DesignFamily(group, ms, forb, convention)


def delta_family(family: DesignFamily) -> Multiset:
    flat, lengths, _ = _laid_out(family.blocks)
    return _from_dense(family.group, _difference_counts(
        family.group, flat, lengths, family.convention))


@dataclass(frozen=True)
class Witness:
    """First failure found, in canonical element order."""

    element: int
    coords: tuple[int, ...]
    expected: int
    actual: int
    context: str  # "difference-count" or "partition"


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    v: int
    h: int
    K: tuple[int, ...]
    lambda_or_mu: int | None
    witness: Witness | None = None
    partition_target: str | None = None  # "group" or "group-minus-forbidden"

    @property
    def ok(self) -> bool:
        return self.kind != INVALID


def is_hadamard_pdf(report: VerificationReport) -> bool:
    """True when an ordinary PDF has group order exactly twice its index."""
    if report.kind != PDF:
        raise NotAPdfError(f"report kind is {report.kind}, not {PDF}")
    return report.v == 2 * report.lambda_or_mu


def verify(family: DesignFamily) -> VerificationReport:
    """Classify a family by recomputing its full difference multiset, read
    under the family's convention.

    Single-block families classify as DS / DifferenceMultiset, multi-block
    ones as PDF / RelativePDF / DF / SDF.  An ordinary PDF requires the
    blocks to partition the whole group; a relative one, the complement of
    the forbidden subgroup.  Anything else is Invalid with the first failing
    element in canonical order as witness.
    """
    g = family.group
    v = g.order
    ident = g.identity
    flat, lengths, blocks_are_sets = _laid_out(family.blocks)
    delta = _difference_counts(g, flat, lengths, family.convention)
    cover = np.bincount(flat, minlength=v)
    sizes = tuple(sorted(lengths.tolist()))
    single = len(family.blocks) == 1

    def report_invalid(mismatch_elem: int, expected: int) -> VerificationReport:
        # a doubly covered element earlier in canonical order outranks
        # a difference-count mismatch
        over = np.flatnonzero(cover > 1)
        if len(over) and over[0] < mismatch_elem:
            e0 = int(over[0])
            wit = Witness(e0, g.coords(e0), 1, int(cover[e0]), "partition")
        else:
            wit = Witness(mismatch_elem, g.coords(mismatch_elem),
                          expected, int(delta[mismatch_elem]),
                          "difference-count")
        return VerificationReport(INVALID, v, 1, sizes, None, wit)

    # H: the forbidden subgroup, else the zero-difference elements when a
    # proper nontrivial subgroup (all of G: no differences, degenerate), else
    # {identity}; empty when the identity difference occurs.
    in_h = np.zeros(v, dtype=bool)
    if family.forbidden is not None:
        in_h[list(family.forbidden)] = True
    elif delta[ident] == 0:
        zeros = np.flatnonzero(delta == 0)
        in_h[zeros if 1 < len(zeros) < v and is_subgroup(g, zeros)
             else ident] = True

    if in_h.any():
        outside = np.flatnonzero(~in_h)
        lam = int(delta[outside[0]]) if len(outside) else 0
        expected = np.where(in_h, 0, lam)
        bad = np.flatnonzero(delta != expected)
        if len(bad):
            return report_invalid(int(bad[0]), int(expected[bad[0]]))
        h = int(in_h.sum())
        target = np.where(in_h, 0, 1) if h > 1 else np.ones(v, dtype=np.int64)
        target_name = "group" if h == 1 else "group-minus-forbidden"
        partitioned = blocks_are_sets and np.array_equal(cover, target)
        if single:
            kind = DS
        elif partitioned:
            kind = PDF if h == 1 else RELATIVE_PDF
        else:
            kind = DF
        return VerificationReport(
            kind, v, h, sizes, lam,
            partition_target=target_name if kind in (PDF, RELATIVE_PDF) else None)

    # identity difference present: strong family, uniform everywhere
    mu = int(delta[ident])
    bad = np.flatnonzero(delta != mu)
    if len(bad):
        return report_invalid(int(bad[0]), mu)
    kind = DIFFERENCE_MULTISET if single else SDF
    return VerificationReport(kind, v, 1, sizes, mu)
