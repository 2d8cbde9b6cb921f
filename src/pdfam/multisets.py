"""Multiset difference calculus over finite groups, plus the certifier.

delta_block(X) is the multiset of all differences x - x' over ordered pairs
of distinct positions of the multiset X (so a repeated element contributes
identity differences).  verify() recomputes everything from the blocks and
classifies the family; it never trusts declared parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .groups import (DEFAULT_CONVENTION, DiffConvention, FiniteGroup,
                     is_subgroup)


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
            for e, m in dict(counts).items():
                e = group._check(int(e))
                m = int(m)
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m:
                    c[e] = m
        for e in elements:
            c[group._check(int(e))] += 1
        self.counts = c

    @property
    def size(self) -> int:
        return sum(self.counts.values())

    def mult(self, e: int) -> int:
        return self.counts.get(e, 0)

    def support(self) -> list[int]:
        return sorted(self.counts)

    @property
    def is_set(self) -> bool:
        return all(m == 1 for m in self.counts.values())

    def positions(self) -> list[int]:
        """Every element repeated per multiplicity, in canonical order."""
        out = []
        for e in sorted(self.counts):
            out.extend([e] * self.counts[e])
        return out

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


def _difference_counts(group: FiniteGroup, rows,
                       convention: DiffConvention) -> np.ndarray:
    """Entry e: how many ordered pairs of distinct positions of the same row
    have difference e.  Rows of equal length are stacked into one array, so
    each length costs one broadcast difference and one bincount."""
    by_length: dict[int, list] = {}
    for row in rows:
        by_length.setdefault(len(row), []).append(row)
    out = np.zeros(group.order, dtype=np.int64)
    for k, stack in by_length.items():
        x = np.array(stack, dtype=np.int64)
        d = group.difference(x[:, :, None], x[:, None, :], convention)
        out += np.bincount(d[:, ~np.eye(k, dtype=bool)].ravel(),
                           minlength=group.order)
    return out


def _from_dense(group: FiniteGroup, dense: np.ndarray) -> Multiset:
    support = np.flatnonzero(dense)
    return Multiset(group, counts=dict(zip(support.tolist(),
                                           dense[support].tolist())))


def delta_block(block: Multiset,
                convention: DiffConvention = DEFAULT_CONVENTION) -> Multiset:
    """Differences over all ordered pairs of distinct positions of a block."""
    return _from_dense(block.group, _difference_counts(
        block.group, [block.positions()], convention))


@dataclass(frozen=True, eq=False)
class DesignFamily:
    """Blocks over one group, with an optional forbidden subgroup."""

    group: FiniteGroup
    blocks: tuple[Multiset, ...]
    forbidden: frozenset[int] | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("family needs at least one block")
        for b in self.blocks:
            if b.group != self.group:
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
                and self.forbidden == other.forbidden)


def make_family(group: FiniteGroup, blocks, forbidden=None) -> DesignFamily:
    """Build a DesignFamily from iterables of indices, mappings, or Multisets."""
    ms = []
    for b in blocks:
        if isinstance(b, Multiset):
            ms.append(b)
        elif isinstance(b, dict):
            ms.append(Multiset(group, counts=b))
        else:
            ms.append(Multiset(group, elements=b))
    forb = None if forbidden is None else frozenset(int(x) for x in forbidden)
    return DesignFamily(group, tuple(ms), forb)


def delta_family(family: DesignFamily,
                 convention: DiffConvention = DEFAULT_CONVENTION) -> Multiset:
    return _from_dense(family.group, _difference_counts(
        family.group, [b.positions() for b in family.blocks], convention))


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


def verify(family: DesignFamily,
           convention: DiffConvention = DEFAULT_CONVENTION
           ) -> VerificationReport:
    """Classify a family by recomputing its full difference multiset.

    Single-block families classify as DS / DifferenceMultiset, multi-block
    ones as PDF / RelativePDF / DF / SDF.  An ordinary PDF requires the
    blocks to partition the whole group; a relative one, the complement of
    the forbidden subgroup.  Anything else is Invalid with the first failing
    element in canonical order as witness.
    """
    g = family.group
    v = g.order
    ident = g.identity
    rows = [b.positions() for b in family.blocks]
    delta = _difference_counts(g, rows, convention)
    cover = np.bincount(np.concatenate(rows), minlength=v)
    sizes = family.block_sizes
    single = len(family.blocks) == 1
    blocks_are_sets = all(b.is_set for b in family.blocks)

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
