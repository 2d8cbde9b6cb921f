"""Finite additive groups with a canonical integer encoding of elements.

A group of order n has elements 0..n-1.  Each element also carries a
coordinate tuple (one integer per direct factor, a singleton for cyclic and
table groups); index and coordinates are two sides of a mixed-radix
bijection with the leftmost coordinate most significant, so index order is
lexicographic order on coordinates.  ProductGroup holds the one mixed-radix
encoding; a ring of pdfam.rings is built on its additive group, from which
it takes its addition and its element encoding.  Groups are written
additively but need not be abelian; DiffConvention fixes what "a - b" means
when order matters, and FiniteGroup.difference is the one place that reads
it.  A design family carries the convention its differences are read under
(pdfam.multisets.DesignFamily), and the CLI settles it once, when it
decodes a family file.  Difference counts go through the group's
DifferencePlan, which tallies pairs on the digits of its leaf factors.
"""

from __future__ import annotations

import json
import operator
import reprlib
from enum import Enum
from functools import reduce

import numpy as np


class NonAssociativeError(ValueError):
    """Operation table fails associativity."""


class NoIdentityError(ValueError):
    """Operation table has no two-sided identity."""


class NoInverseError(ValueError):
    """Some element of an operation table has no two-sided inverse."""


class ElementOutOfRangeError(IndexError):
    """Element index outside 0..order-1."""


class DiffConvention(Enum):
    """Reading of the difference a - b in a possibly non-abelian group."""

    RIGHT_INVERSE = "right"  # a + (-b)
    LEFT_INVERSE = "left"    # (-b) + a


DEFAULT_CONVENTION = DiffConvention.RIGHT_INVERSE


def convention_from_name(name: str) -> DiffConvention:
    for conv in DiffConvention:
        if conv.value == name:
            return conv
    raise ValueError(f"unknown difference convention {name!r}")


class FiniteGroup:
    """Base class.  Subclasses implement op/neg on integer element indices:
    Python ints, or numpy int64 index arrays that broadcast against each
    other.  A scalar argument gives a Python int."""

    order: int
    arity: int
    identity: int = 0

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def coords(self, a: int) -> tuple[int, ...]:
        """The coordinates of a; this default is for groups of arity 1."""
        return (self._check(a),)

    def index_of(self, coords) -> int:
        (a,) = self._coordinates(coords)
        return self._check(a)

    def descriptor(self) -> dict:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def difference(self, a: int, b: int,
                   convention: DiffConvention = DEFAULT_CONVENTION) -> int:
        """a - b under the given convention: a + (-b) for the right one,
        (-b) + a for the left."""
        if convention is DiffConvention.RIGHT_INVERSE:
            return self.op(a, self.neg(b))
        if convention is DiffConvention.LEFT_INVERSE:
            return self.op(self.neg(b), a)
        raise ValueError(f"unknown difference convention {convention!r}")

    def difference_plan(self, convention: DiffConvention = DEFAULT_CONVENTION
                        ) -> "DifferencePlan":
        """The tally plan of this group's differences under the convention,
        built on first use and kept on the group."""
        plans = self.__dict__.setdefault("_difference_plans", {})
        if convention not in plans:
            plans[convention] = DifferencePlan(self, convention)
        return plans[convention]

    def _coordinates(self, coords) -> tuple[int, ...]:
        """coords as Python ints, refusing non-integers and a count other
        than the group's arity."""
        coords = tuple(map(_coordinate, coords))
        if len(coords) != self.arity:
            raise ValueError(
                f"expected {self.arity} coordinates, got {len(coords)}")
        return coords

    def _check(self, a):
        """a unchanged when every entry lies in 0..order-1, as an int when
        it is a scalar; otherwise the first offending entry is named."""
        if isinstance(a, np.ndarray):
            bad = (a < 0) | (a >= self.order)
            if not bad.any():
                return a
            a = a[bad][0]
        a = operator.index(a)
        if not 0 <= a < self.order:
            raise ElementOutOfRangeError(
                f"element {a} outside 0..{self.order - 1}")
        return a

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.descriptor() == other.descriptor())

    def __hash__(self):
        return hash(json.dumps(self.descriptor(), sort_keys=True))

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order})"


class CyclicGroup(FiniteGroup):
    """Integers mod n under addition."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("order must be positive")
        self.order = n
        self.arity = 1

    def op(self, a, b):
        return (self._check(a) + self._check(b)) % self.order

    def neg(self, a):
        return (-self._check(a)) % self.order

    def descriptor(self):
        return {"type": "cyclic", "n": self.order}

    def __repr__(self):
        return f"Z{self.order}"


class ProductGroup(FiniteGroup):
    """Direct product of groups.

    An element index is the mixed-radix number of its per-factor indices,
    leftmost factor most significant; its coordinates are the factors'
    coordinates concatenated.  Product rings share this encoding through
    their additive groups.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = factors
        self.arity = sum(f.arity for f in factors)
        # stride[i] = product of orders of factors to the right of i
        strides = []
        acc = 1
        for f in reversed(factors):
            strides.append(acc)
            acc *= f.order
        self.strides = tuple(reversed(strides))
        self.order = acc
        self.identity = self.join(f.identity for f in factors)

    def split(self, a) -> tuple:
        """Index -> per-factor indices."""
        a = self._check(a)
        out = []
        for s in self.strides:
            out.append(a // s)
            a = a % s
        return tuple(out)

    def join(self, parts) -> int:
        return sum(map(operator.mul, parts, self.strides))

    def op(self, a, b):
        pa = self.split(a)
        pb = self.split(b)
        return self.join(f.op(x, y)
                         for f, x, y in zip(self.factors, pa, pb))

    def neg(self, a):
        return self.join(f.neg(x)
                         for f, x in zip(self.factors, self.split(a)))

    def coords(self, a):
        out = []
        for f, x in zip(self.factors, self.split(a)):
            out.extend(f.coords(x))
        return tuple(out)

    def index_of(self, coords):
        coords = self._coordinates(coords)
        parts = []
        pos = 0
        for f in self.factors:
            parts.append(f.index_of(coords[pos:pos + f.arity]))
            pos += f.arity
        return self.join(parts)

    def descriptor(self):
        return {"type": "product",
                "factors": [f.descriptor() for f in self.factors]}

    def __repr__(self):
        return " x ".join(repr(f) for f in self.factors)


class Semidirect32(FiniteGroup):
    """Non-abelian order-32 group on Z4 x Z8 pairs.

    (x1,y1) + (x2,y2) = (x1+x2 mod 4, 5^x2 * y1 + y2 mod 8).  Since
    5^2 = 25 = 1 mod 8 the twist only depends on the parity of x2.
    """

    def __init__(self):
        self.order = 32
        self.arity = 2

    def op(self, a, b):
        x1, y1 = divmod(self._check(a), 8)
        x2, y2 = divmod(self._check(b), 8)
        return (((x1 + x2) & 3) << 3) | ((y1 * (1 + 4 * (x2 & 1)) + y2) & 7)

    def neg(self, a):
        x, y = divmod(self._check(a), 8)
        xn = (-x) & 3
        return (xn << 3) | ((-y * (1 + 4 * (xn & 1))) & 7)

    def coords(self, a):
        return divmod(self._check(a), 8)

    def index_of(self, coords):
        x, y = self._coordinates(coords)
        if not (0 <= x < 4 and 0 <= y < 8):
            raise ElementOutOfRangeError(f"bad coordinates ({x},{y})")
        return (x << 3) | y

    def descriptor(self):
        return {"type": "semidirect32"}

    def __repr__(self):
        return "Semidirect32"


class TableGroup(FiniteGroup):
    """Group given by an explicit operation table, validated eagerly."""

    def __init__(self, table):
        try:
            t = np.asarray(table)
            square = t.ndim == 2 and t.shape[0] == t.shape[1] > 0
        except ValueError:  # ragged rows
            square = False
        if not square:
            raise ValueError("table must be a nonempty square matrix")
        t = _int_matrix(table, t, "table")
        n = t.shape[0]
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries must lie in 0..n-1")
        self.order = n
        self.arity = 1
        self.table = t
        self.identity = _find_identity(t)
        self._inv = _find_inverses(t, self.identity)
        _check_associativity(self)

    def op(self, a, b):
        return _scalar_or_array(self.table[self._check(a), self._check(b)])

    def neg(self, a):
        return _scalar_or_array(self._inv[self._check(a)])

    def descriptor(self):
        return {"type": "table", "n": self.order,
                "table": self.table.tolist()}


def _leaves(group: FiniteGroup, stride: int = 1):
    """(leaf, stride) for every non-product factor of a group, nested
    products flattened, most significant first: element a of the group has
    leaf element a // stride % leaf.order."""
    if isinstance(group, ProductGroup):
        for f, s in zip(group.factors, group.strides):
            yield from _leaves(f, stride * s)
    else:
        yield group, stride


class DifferencePlan:
    """Differences a - b in one group under one convention, tallied on leaf
    digits rather than through op and neg.

    Every leaf of the group (_leaves) is one axis of a padded grid.  A
    cyclic leaf of order r gets 2r - 1 cells: a has left code a + r - 1 and
    b right code -b, and their sum a - b + r - 1 needs no reduction.  Any
    other leaf gets |L| cells, and the digit of a - b is read from its
    |L| x |L| difference table.  The cell of a pair is therefore
    left[a] + right[b] plus one table read per non-cyclic leaf, and fold
    maps every cell to its group element.  A direct product's differences
    are its leaves' differences, under either convention.
    """

    def __init__(self, group: FiniteGroup, convention: DiffConvention):
        leaves = [(leaf, stride, isinstance(leaf, CyclicGroup))
                  for leaf, stride in _leaves(group)]
        sizes = [2 * leaf.order - 1 if cyclic else leaf.order
                 for leaf, _, cyclic in leaves]
        cell_strides = np.cumprod([1] + sizes[:0:-1])[::-1].tolist()
        self.order = group.order
        self.grid = int(np.prod(sizes))
        # per leaf: left and right codes of its digits, the element each of
        # its cells folds to; entry i of an outer sum over the leaves adds
        # up the parts at the digits of i
        left, right, fold = [], [], []
        # (row code, column code, flat table of cells) per non-cyclic leaf
        self.tables = []
        for (leaf, stride, cyclic), cs in zip(leaves, cell_strides):
            r = leaf.order
            own = np.arange(r)
            if cyclic:
                left.append((own + r - 1) * cs)
                right.append(-own * cs)
                # cell c holds a - b = c - (r - 1)
                fold.append((np.arange(2 * r - 1) + 1) % r * stride)
            else:
                left.append(0 * own)
                right.append(0 * own)
                fold.append(own * stride)
                table = leaf.difference(own[:, None], own[None, :],
                                        convention)
                digit = np.arange(group.order) // stride % r
                self.tables.append((digit * r, digit, (table * cs).ravel()))
        self.left = reduce(np.add.outer, left).ravel()
        self.right = reduce(np.add.outer, right).ravel()
        self.fold = reduce(np.add.outer, fold).ravel()

    def codes(self, x: np.ndarray) -> np.ndarray:
        """Entry [i, j, k]: the grid cell of x[i, j] - x[i, k], for a stack
        x of equal-length rows; the diagonal j = k is included."""
        code = self.left[x][:, :, None] + self.right[x][:, None, :]
        for row, col, table in self.tables:
            code += table[row[x][:, :, None] + col[x][:, None, :]]
        return code

    def to_elements(self, tally: np.ndarray) -> np.ndarray:
        """Per-cell counts summed onto group elements.  The weights are
        float64, exact for counts below 2**53."""
        return np.bincount(self.fold, weights=tally,
                           minlength=self.order).astype(np.int64)


def _scalar_or_array(x):
    """A numpy scalar as the Python int or bool it holds; an array as is."""
    return x if isinstance(x, np.ndarray) else x.item()


def _find_identity(t: np.ndarray) -> int:
    idx = np.arange(t.shape[0])
    found = np.flatnonzero((t == idx).all(axis=1) & (t.T == idx).all(axis=1))
    if not len(found):
        raise NoIdentityError("table has no two-sided identity")
    return int(found[0])


def _find_inverses(t: np.ndarray, e: int) -> np.ndarray:
    hits = (t == e) & (t.T == e)
    missing = np.flatnonzero(~hits.any(axis=1))
    if len(missing):
        raise NoInverseError(f"element {missing[0]} has no two-sided inverse")
    return hits.argmax(axis=1)


def _generating_set(group: FiniteGroup) -> list[int]:
    """Greedy generators: repeatedly add the least element outside the
    closure under op of the identity and the generators so far.

    The closure starts from the identity, the one element that needs no
    check in Light's associativity test; any other seed could stand in for
    an untested generator.  The closure is taken under op alone, so the
    walk also serves an operation table not yet known to be associative.
    """
    gens: list[int] = []
    closure = np.zeros(group.order, dtype=bool)
    closure[group.identity] = True
    while not closure.all():
        gens.append(int(closure.argmin()))
        closure[gens[-1]] = True
        size = 0
        while closure.sum() > size:  # until op of two members is a member
            size = closure.sum()
            s = np.flatnonzero(closure)
            closure[group.op(s[:, None], s[None, :])] = True
    return gens


def endomorphism_mask(group: FiniteGroup, tables) -> np.ndarray:
    """For each row of tables, the value table of a map e: G -> G as
    in-range element indices, whether e(a + b) = e(a) + e(b) for all a, b.

    Checked through a generating set, all rows at once: the b with
    e(a + b) = e(a) + e(b) for every a are closed under op, so they form a
    subgroup, and when it holds every generator it is all of G.  That is
    |G| checks per generator and row rather than |G|^2 per row.
    """
    tables = np.asarray(tables, dtype=np.int64)
    gens = np.array(_generating_set(group), dtype=np.int64)
    idx = np.arange(group.order)
    left = tables[:, group.op(idx[:, None], gens)]
    right = group.op(tables[:, :, None], tables[:, None, gens])
    return (left == right).all(axis=(1, 2))


def _check_associativity(group: "TableGroup") -> None:
    """Light's associativity test: check only through a generating set."""
    t = group.table
    for g in _generating_set(group):
        left = t[t[:, g], :]    # (x,y) -> (x+g)+y
        right = t[:, t[g, :]]   # (x,y) -> x+(g+y)
        if not np.array_equal(left, right):
            raise NonAssociativeError(
                f"associativity fails through generator {g}")


def make_group(descriptor: dict) -> FiniteGroup:
    """Build a group from its JSON descriptor."""
    if not isinstance(descriptor, dict):
        raise ValueError(f"group descriptor {descriptor!r} is not an object")
    kind = descriptor.get("type")
    if kind == "cyclic":
        return CyclicGroup(_int_field(descriptor, "n"))
    if kind == "product":
        return ProductGroup(make_group(d) for d in _factors(descriptor))
    if kind == "semidirect32":
        return Semidirect32()
    if kind == "table":
        g = TableGroup(_field(descriptor, "table", _int_rows,
                              "an array of integer arrays"))
        if "n" in descriptor and _int_field(descriptor, "n") != g.order:
            raise ValueError("declared order does not match table size")
        return g
    raise ValueError(f"unknown group descriptor type {kind!r}")


# -- integer guards for decoded JSON and element lists ------------------------

def _is_int(x) -> bool:
    """A Python or numpy integer; booleans and floats are not integers."""
    return type(x) is int or isinstance(x, np.integer)


def _int_matrix(raw, matrix: np.ndarray, what: str) -> np.ndarray:
    """matrix, the np.asarray of raw, as int64 when every entry of raw is
    an integer.  asarray reads a bool among integers as 0 or 1, so the
    entries that read 0 or 1 have their types checked; an integer ndarray
    needs no scan."""
    if matrix.dtype.kind not in "iu" or not (
            isinstance(raw, np.ndarray) or all(
                _is_int(raw[r][c])
                for r, c in np.argwhere(matrix <= 1).tolist())):
        raise ValueError(f"{what} entries must be integers")
    return matrix.astype(np.int64)


def _coordinate(c) -> int:
    """An element coordinate as a Python int; non-integers are refused."""
    if not _is_int(c):
        raise ValueError(f"coordinate {c!r} is not an integer")
    return int(c)


def _ints(x) -> bool:
    """A list of integers.  The usual all-int list costs one pass over the
    entry types in C."""
    return isinstance(x, list) and (set(map(type, x)) <= {int}
                                    or all(map(_is_int, x)))


def _int_rows(x) -> bool:
    """A list of lists of integers."""
    return isinstance(x, list) and all(map(_ints, x))


def _indices(group: FiniteGroup, elements: list) -> list[int]:
    """The elements as Python ints, checked in one pass over the list.

    Booleans and floats are refused (numpy integers pass), and the first
    element outside 0..order-1, in list order, is named by group._check.
    The usual all-int list costs a few passes in C and no Python per
    element.
    """
    if not set(map(type, elements)) <= {int}:
        for e in elements:
            if not _is_int(e):
                raise ValueError(f"element {e!r} is not an integer")
        elements = list(map(int, elements))
    if elements and (min(elements) < 0 or max(elements) >= group.order):
        group._check(next(e for e in elements
                          if not 0 <= e < group.order))
    return elements


_REQUIRED = object()


def _field(descriptor: dict, key: str, valid, what: str,
           default=_REQUIRED):
    """descriptor[key], or the default when one is given and the key is
    absent, if valid(value); otherwise a ValueError names the key, and the
    value when there is one."""
    if default is _REQUIRED and key not in descriptor:
        raise ValueError(f"missing key {key!r}")
    value = descriptor.get(key, default)
    if not valid(value):
        raise ValueError(f"{key} {reprlib.repr(value)} is not {what}")
    return value


def _int_field(descriptor: dict, key: str, default=_REQUIRED) -> int:
    """An integer field of a descriptor, as a Python int."""
    return int(_field(descriptor, key, _is_int, "an integer", default))


def _factors(descriptor: dict) -> list:
    """The factor descriptors of a product descriptor, which must be an
    array."""
    return _field(descriptor, "factors", lambda x: isinstance(x, list),
                  "an array")


def is_subgroup(group: FiniteGroup, subset) -> bool:
    """True when the subset is closed under the group operations."""
    s = np.array([int(x) for x in subset], dtype=np.int64)
    if group.identity not in s:
        return False
    group._check(s)
    member = np.zeros(group.order, dtype=bool)
    member[s] = True
    if group.order % member.sum():  # Lagrange: no difference is formed
        return False
    return bool(member[group.difference(s[:, None], s[None, :])].all())
