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
from itertools import accumulate, chain

import numpy as np

from .groups import (DEFAULT_CONVENTION, DiffConvention, FiniteGroup, _indices,
                     _is_int, is_subgroup)


class GroupMismatchError(ValueError):
    """Operands live over different groups."""


# report kinds
PDF = "PDF"
RELATIVE_PDF = "RelativePDF"
DF = "DF"
SDF = "SDF"
DS = "DS"
DIFFERENCE_MULTISET = "DifferenceMultiset"
INVALID = "Invalid"


class Multiset:
    """Multiset of group elements, stored as the sorted, read-only int64
    array of its positions: canonical element indices, each repeated per
    multiplicity."""

    __slots__ = ("group", "elements")

    def __init__(self, group: FiniteGroup, elements=(), counts=None):
        self.group = group
        keys, mult = [], []
        if counts is not None:
            counts = dict(counts)
            keys, mult = _indices(group, list(counts)), list(counts.values())
            for m in mult:
                if not _is_int(m):
                    raise ValueError(f"multiplicity {m!r} is not an integer")
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m > np.iinfo(np.int64).max:
                    raise ValueError(f"multiplicity {m} does not fit in int64")
        positions = np.sort(np.concatenate((
            np.repeat(np.array(keys, dtype=np.int64),
                      np.array(mult, dtype=np.int64)),
            np.array(_indices(group, list(elements)), dtype=np.int64))))
        positions.flags.writeable = False
        self.elements = positions

    @property
    def counts(self) -> Counter:
        """A fresh Counter of the multiplicities, keyed by Python ints."""
        return Counter(self.elements.tolist())

    @property
    def size(self) -> int:
        return len(self.elements)

    def mult(self, e: int) -> int:
        return int(np.count_nonzero(self.elements == e))

    @property
    def is_set(self) -> bool:
        return not (self.elements[1:] == self.elements[:-1]).any()

    def positions(self) -> list[int]:
        """Every element repeated per multiplicity, in canonical order."""
        return self.elements.tolist()

    def scaled(self, r: int) -> "Multiset":
        """The multiset with every multiplicity scaled by r."""
        if r < 0:
            raise ValueError("negative scale")
        return _blocks_of(self.group, np.repeat(self.elements, r),
                          [r * self.size])[0]

    def __eq__(self, other):
        return (isinstance(other, Multiset)
                and self.group == other.group
                and np.array_equal(self.elements, other.elements))

    def __iter__(self):
        return iter(self.positions())

    def __len__(self):
        return self.size

    def __repr__(self):
        inner = ", ".join(
            (f"{e}" if m == 1 else f"{e}x{m}")
            for e, m in zip(*map(np.ndarray.tolist, np.unique(
                self.elements, return_counts=True))))
        return f"Multiset{{{inner}}}"


def _blocks_of(group: FiniteGroup, flat: np.ndarray,
               lengths) -> list[Multiset]:
    """Multisets of the checked positions laid end to end in flat and
    sorted within blocks of the given lengths.  Each block is a read-only
    slice of flat, which the blocks take over."""
    flat.flags.writeable = False
    bounds = list(accumulate(lengths, initial=0))
    blocks = []
    for start, stop in zip(bounds, bounds[1:]):
        ms = object.__new__(Multiset)
        ms.group, ms.elements = group, flat[start:stop]
        blocks.append(ms)
    return blocks


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


def _from_dense(group: FiniteGroup, dense: np.ndarray) -> Multiset:
    return _blocks_of(group, np.repeat(np.arange(len(dense)), dense),
                      [int(dense.sum())])[0]


def delta_block(block: Multiset,
                convention: DiffConvention = DEFAULT_CONVENTION) -> Multiset:
    """Differences over all ordered pairs of distinct positions of a block."""
    return _from_dense(block.group, _difference_counts(
        block.group, block.elements, [block.size], convention))


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
    first bad element in block order is the one named, and sorted within
    their blocks in one call.
    """
    blocks = [b if isinstance(b, (Multiset, dict)) else list(b)
              for b in blocks]
    lists = [b for b in blocks if isinstance(b, list)]
    lengths = list(map(len, lists))
    flat = np.array(_indices(group, list(chain.from_iterable(lists))),
                    dtype=np.int64)
    # block i's positions shifted by i * |G| stay in block order when sorted
    offset = np.arange(len(lists)).repeat(lengths) * group.order
    flat += offset
    flat.sort()
    flat -= offset
    checked = iter(_blocks_of(group, flat, lengths))
    ms = tuple(
        b if isinstance(b, Multiset)
        else Multiset(group, counts=b) if isinstance(b, dict)
        else next(checked)
        for b in blocks)
    forb = (None if forbidden is None
            else frozenset(_indices(group, list(forbidden))))
    return DesignFamily(group, ms, forb, convention)


def _laid_end_to_end(blocks) -> tuple[np.ndarray, list[int]]:
    """The blocks' positions laid end to end, with the block sizes."""
    elements = [b.elements for b in blocks]
    return np.concatenate(elements), list(map(len, elements))


def delta_family(family: DesignFamily) -> Multiset:
    return _from_dense(family.group, _difference_counts(
        family.group, *_laid_end_to_end(family.blocks), family.convention))


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

    @property
    def hadamard(self) -> bool:
        """An ordinary PDF whose order is twice its index."""
        return self.kind == PDF and self.v == 2 * self.lambda_or_mu


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
    flat, lengths = _laid_end_to_end(family.blocks)
    delta = _difference_counts(g, flat, lengths, family.convention)
    cover = np.bincount(flat, minlength=v)
    sizes = tuple(sorted(lengths))
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
        # cover counts every position, so a block that repeats an
        # element covers it twice
        partitioned = np.array_equal(cover, target)
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
