"""Multiset difference calculus over finite groups, plus the certifier.

delta_block(X) counts the differences x - x' over ordered pairs of distinct
positions of the multiset X (a repeated element gives identity differences)
in an int64 array indexed by element, and delta_family sums them over a
family's blocks.  A DesignFamily carries the difference convention its
differences are read under (right by default; the CLI settles it as it
decodes a family file), and delta_family and verify read it from the family.
verify() counts the differences once per family object (its tally is then
kept, below) and classifies the family; it never trusts declared parameters.

A block (Multiset) is the sorted, read-only int64 array of its positions.
Outside positions reach a block by one checked path (_checked), shared by
Multiset and make_family; positions a construction computed itself are
laid out unchecked (_blocks_of).

verify is two private parts.  _tally counts, for rows of elements, the
differences, the cover (positions per element) and the sorted row
lengths; all three add up over rows, and delta_block and delta_family
return its counts.  _judge reads only a tally and the family's group and
forbidden set, and settles H, lambda, the kind, the partition target and
the first witness.

A family's tally is kept on the family object (_family_tally): it is
counted on first use, stored read-only in the object's own __dict__ and
read again by every later verify or delta_family of that object.  It is
not a field, so equality, repr, dataclasses.replace and the JSON never see
it, and a new family object, however equal, is tallied from its blocks.
An extension (_extend) is a family whose leading blocks are another
family's own block objects, over the same group and convention, with no
forbidden subgroup; since the tally adds up over rows, its tally is
counted as it is built, as the other family's kept tally plus the tally
of the added blocks alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, groupby

import numpy as np

from .groups import (DEFAULT_CONVENTION, DiffConvention, FiniteGroup, _indices,
                     is_subgroup)


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
    multiplicity, built from an iterable of positions by make_family's
    check (_checked)."""

    __slots__ = ("group", "elements")

    def __init__(self, group: FiniteGroup, elements=()):
        (block,) = _checked(group, [elements])
        self.group, self.elements = group, block.elements

    @property
    def size(self) -> int:
        return len(self.elements)

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


# pairs per chunk of a tally, so that a chunk's int64 temporaries (256 KiB
# each) stay in cache; the fastest of 2**12 .. 2**16 on a 2-vCPU Xeon with
# 2 MiB of L2 per core, for the benchmark's order-1504 expansion and the
# Paley q=6007 and q=10007 blocks (BENCH_chunked_tally.json)
CHUNK_CELLS = 2 ** 15


def _chunks(x: np.ndarray, cells: int):
    """Pairs (a, b) of left and right operands, from the same rows of the
    stack x, whose codes together cover every pair of every row once, each
    with at most max(cells, k) pairs.  A stack of at most cells pairs is one
    chunk, x with itself; otherwise a chunk holds whole rows when k * k
    fits in cells, else a column slice of one row against the whole row."""
    rows, k = x.shape
    if rows * k * k <= cells:
        return ((x, x),)
    if k * k <= cells:
        step = cells // (k * k)
        return ((x[i:i + step],) * 2 for i in range(0, rows, step))
    step = max(1, cells // k)
    return ((x[i:i + 1, j:j + step], x[i:i + 1])
            for i in range(rows) for j in range(0, k, step))


def _tally(group: FiniteGroup, rows, convention: DiffConvention
           ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The difference counts, the cover and the sorted lengths of rows of
    group elements (int64 arrays).  Entry e of the counts is how many
    ordered pairs of distinct positions of the same row have difference e,
    and entry e of the cover how many positions hold e; all three add up
    over rows.

    The rows are laid end to end shortest first, so the rows of each length
    are one contiguous stack, a view of the laid-out positions, whatever
    the family's shape.  Each stack is tallied in chunks (_chunks) of about
    CHUNK_CELLS pairs, or of the plan's grid when that is larger, so that
    each bincount's zeroing of the grid stays amortised.  A chunk costs one
    add, one gather per non-cyclic leaf and one bincount onto the grid of
    the group's difference plan, diagonal included, and its int64
    temporaries stay in cache: memory does not grow with the sum of the
    squared row lengths, and a stack that fits in one chunk is tallied in
    one piece.  The grid is folded onto the elements once, and the
    diagonal, one identity difference per position, is taken back off.
    """
    rows = sorted(rows, key=len)
    sizes = tuple(map(len, rows))
    flat = np.concatenate(rows)
    plan = group.difference_plan(convention)
    cells = max(CHUNK_CELLS, plan.grid)
    tally, at = 0, 0
    for k, same in groupby(sizes):
        n = len(list(same))
        x = flat[at:at + n * k].reshape(n, k)
        at += n * k
        for a, b in _chunks(x, cells):
            tally += np.bincount(plan.codes(a, b).ravel(),
                                 minlength=plan.grid)
    counts = plan.to_elements(tally)
    counts[group.identity] -= len(flat)
    return counts, np.bincount(flat, minlength=group.order), sizes


@dataclass(frozen=True, eq=False)
class DesignFamily:
    """Blocks over one group, with an optional forbidden subgroup, and the
    convention under which its differences are read."""

    group: FiniteGroup
    blocks: tuple[Multiset, ...]
    forbidden: frozenset[int] | None = None
    convention: DiffConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if not isinstance(self.convention, DiffConvention):
            raise ValueError(
                f"unknown difference convention {self.convention!r}")
        if not isinstance(self.blocks, tuple):  # a caller's list stays theirs
            object.__setattr__(self, "blocks", tuple(self.blocks))
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

    # set on the instance, outside the fields, by _keep
    _kept_tally = None

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(b.size for b in self.blocks))

    def __eq__(self, other):
        return (isinstance(other, DesignFamily)
                and self.group == other.group
                and self.blocks == other.blocks
                and self.forbidden == other.forbidden
                and self.convention is other.convention)


def _checked(group: FiniteGroup, blocks) -> list[Multiset]:
    """Multisets of a list of iterables of positions.  The elements of all
    the blocks are checked in one pass, so the first bad element in block
    order is the one named, and sorted within their blocks in one call.  A
    dict is refused, never read as its keys."""
    if any(isinstance(b, dict) for b in blocks):
        raise ValueError("a block is an iterable of positions, not a dict")
    lists = list(map(list, blocks))
    lengths = list(map(len, lists))
    flat = np.array(_indices(group, list(chain.from_iterable(lists))),
                    dtype=np.int64)
    # block i's positions shifted by i * |G| stay in block order when sorted
    offset = np.arange(len(lists)).repeat(lengths) * group.order
    flat += offset
    flat.sort()
    flat -= offset
    return _blocks_of(group, flat, lengths)


def make_family(group: FiniteGroup, blocks, forbidden=None,
                convention: DiffConvention = DEFAULT_CONVENTION
                ) -> DesignFamily:
    """Build a DesignFamily from Multisets and iterables of positions; the
    iterables are checked and sorted together (_checked)."""
    blocks = list(blocks)
    checked = iter(_checked(
        group, [b for b in blocks if not isinstance(b, Multiset)]))
    ms = tuple(b if isinstance(b, Multiset) else next(checked)
               for b in blocks)
    forb = (None if forbidden is None
            else frozenset(_indices(group, list(forbidden))))
    return DesignFamily(group, ms, forb, convention)


def _extend(family: DesignFamily, blocks) -> DesignFamily:
    """The family of family's blocks followed by blocks, with no forbidden
    subgroup, whose kept tally is family's kept tally plus the tally of
    blocks."""
    blocks = tuple(blocks)
    ext = DesignFamily(family.group, family.blocks + blocks, None,
                       family.convention)
    counts, cover, sizes = _tally(ext.group, [b.elements for b in blocks],
                                  ext.convention)
    before = _family_tally(family)
    _keep(ext, counts + before[0], cover + before[1],
          tuple(sorted(sizes + before[2])))
    return ext


def _family_tally(family: DesignFamily
                  ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """_tally of the family's blocks under its convention, counted on first
    use and kept on the family object."""
    kept = family._kept_tally
    if kept is not None:
        return kept
    return _keep(family, *_tally(
        family.group, [b.elements for b in family.blocks], family.convention))


def _keep(family: DesignFamily, counts: np.ndarray, cover: np.ndarray,
          sizes: tuple[int, ...]
          ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Keep a tally of the family on the family object, its arrays
    read-only."""
    # write=False, passed by position: the keyword form costs a one-block
    # search leaf's verify about 0.2 us more
    counts.setflags(False)
    cover.setflags(False)
    kept = counts, cover, sizes
    object.__setattr__(family, "_kept_tally", kept)
    return kept


def delta_block(block: Multiset,
                convention: DiffConvention = DEFAULT_CONVENTION) -> np.ndarray:
    """Entry e of this read-only int64 array, of the group's order, counts
    the ordered pairs of distinct positions of block with difference e."""
    counts = _tally(block.group, [block.elements], convention)[0]
    counts.setflags(False)
    return counts


def delta_family(family: DesignFamily) -> np.ndarray:
    """delta_block's counts summed over the family's blocks: a read-only
    view of its kept tally, which cannot be made writeable."""
    return _family_tally(family)[0].view()


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

    H is the forbidden subgroup when the family declares one.  Otherwise,
    when the identity difference occurs, the family is strong: every count,
    the identity's included, must equal the identity's count mu, and a
    single block is a DifferenceMultiset, several an SDF.  Otherwise H is
    the set of elements with no difference when that set is a proper
    subgroup other than {identity}, and {identity} when it is not.  Off H
    every count must be lambda, the count of the least element off H (0
    when H is the group), and on H every count must be 0.  A single block
    is then a DS; several blocks are a PDF when they cover every element
    once and H is {identity}, a RelativePDF when they cover every element
    off H once and none on H, and a DF otherwise.  Anything else is
    Invalid; its witness is the first element, in canonical order, whose
    count is wrong, unless an element covered twice comes before it.

    The tally (_tally) counts the differences, the cover and the block
    sizes; the judge (_judge) reads only those.  The tally is kept on the
    family object (_family_tally), so a second verify of the same object
    judges again without recounting (delta_family views the same counts,
    read-only).  That is sound as long as the family's blocks and their
    elements stay as built: the family is frozen, its blocks are a tuple
    (a caller's list is copied), each block's elements are a read-only
    array, and the library never rebinds a block's elements or writes to
    them after construction.  A caller that does either (both are
    possible: Multiset's slots are assignable, and an array that owns its
    data can be made writeable again) must build a new family to verify.
    """
    return _judge(family, *_family_tally(family))


def _judge(family: DesignFamily, delta: np.ndarray, cover: np.ndarray,
           sizes: tuple[int, ...]) -> VerificationReport:
    """verify's report from a family's difference counts delta, its cover
    and its sorted block sizes, the family giving its group and forbidden
    set only."""
    g, forbidden = family.group, family.forbidden
    v, ident = g.order, g.identity
    mu = int(delta[ident])
    if forbidden is None and mu:
        hs, lam = [], mu  # strong: mu everywhere, the identity included
    else:
        hs = [ident] if forbidden is None else sorted(forbidden)
        if forbidden is None and 1 < v - np.count_nonzero(delta) < v:
            zeros = np.flatnonzero(delta == 0)
            if is_subgroup(g, zeros):
                hs = zeros.tolist()
        off = 0  # the least element off H: the first gap in sorted H
        for x in hs:
            if x != off:
                break
            off += 1
        lam = int(delta[off]) if off < v else 0
    h = len(hs)
    # delta is right when every count off H is lam and every count on H is
    # 0, so it differs from lam exactly on H when lam != 0 and nowhere when
    # lam == 0; only a declared H can hold a nonzero count
    if (np.count_nonzero(delta != lam) != (h if lam else 0)
            or forbidden is not None and delta[hs].any()):
        wrong = delta != lam
        wrong[hs] = delta[hs] != 0
        e = int(np.flatnonzero(wrong)[0])
        # an element covered twice before e outranks the count mismatch
        over = np.flatnonzero(cover[:e] > 1)
        if len(over):
            e = int(over[0])
            wit = Witness(e, g.coords(e), 1, int(cover[e]), "partition")
        else:
            wit = Witness(e, g.coords(e), 0 if e in hs else lam,
                          int(delta[e]), "difference-count")
        return VerificationReport(INVALID, v, 1, sizes, None, wit)
    single = len(sizes) == 1
    if not h:
        return VerificationReport(DIFFERENCE_MULTISET if single else SDF,
                                  v, 1, sizes, mu)
    # cover counts every position, so a block that repeats an element
    # covers it twice; the target is every element once when h == 1, and
    # every element off H once and none on H when h > 1
    partitioned = (not single
                   and sum(sizes) == (v if h == 1 else v - h)
                   and cover.max() == 1
                   and not (h > 1 and cover[hs].any()))
    if not partitioned:
        return VerificationReport(DS if single else DF, v, h, sizes, lam)
    if h == 1:
        return VerificationReport(PDF, v, h, sizes, lam,
                                  partition_target="group")
    return VerificationReport(RELATIVE_PDF, v, h, sizes, lam,
                              partition_target="group-minus-forbidden")
