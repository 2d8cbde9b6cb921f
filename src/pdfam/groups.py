"""Finite additive groups with a canonical integer encoding of elements.

A group of order n has elements 0..n-1.  Each element also carries a
coordinate tuple (one integer per direct factor, a singleton for cyclic and
table groups); index and coordinates are two sides of a mixed-radix
bijection with the leftmost coordinate most significant, so index order is
lexicographic order on coordinates.  Groups are written additively but need
not be abelian; DiffConvention fixes what "a - b" means when order matters.
The left difference (-b) + a in G is the right difference a + (-b) in the
opposite group G^op, where a o b = b + a, so every difference is computed as
a right difference in the group that for_convention() returns.
"""

from __future__ import annotations

import json
import operator
from enum import Enum

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
        raise NotImplementedError

    def index_of(self, coords) -> int:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def difference(self, a: int, b: int,
                   convention: DiffConvention = DEFAULT_CONVENTION) -> int:
        """a - b under the given convention."""
        g = self.for_convention(convention)
        return g.op(a, g.neg(b))

    def opposite(self) -> "FiniteGroup":
        """G^op: same elements, identity, inverses and coordinates, with
        a o b = b + a.  An abelian group is its own opposite."""
        if self.is_abelian:
            return self
        cached = getattr(self, "_opposite", None)
        if cached is None:
            cached = self._opposite = _OppositeGroup(self)
        return cached

    def for_convention(self, convention: DiffConvention) -> "FiniteGroup":
        """The group whose right differences a + (-b) are this group's
        differences under the convention; for arithmetic only, never a
        family's group."""
        if convention is DiffConvention.RIGHT_INVERSE:
            return self
        return self.opposite()

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

    @property
    def is_abelian(self) -> bool:
        cached = getattr(self, "_abelian", None)
        if cached is None:
            idx = np.arange(self.order)
            table = self.op(idx[:, None], idx[None, :])
            cached = self._abelian = bool((table == table.T).all())
        return cached

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
        self._abelian = True

    def op(self, a, b):
        return (self._check(a) + self._check(b)) % self.order

    def neg(self, a):
        return (-self._check(a)) % self.order

    def coords(self, a):
        return (self._check(a),)

    def index_of(self, coords):
        (a,) = coords
        return self._check(int(a))

    def descriptor(self):
        return {"type": "cyclic", "n": self.order}

    def __repr__(self):
        return f"Z{self.order}"


class MixedRadix:
    """Direct-product encoding shared by product groups and product rings.

    An element index is the mixed-radix number of its per-factor indices,
    leftmost factor most significant; its coordinates are the factors'
    coordinates concatenated.  The host class (FiniteGroup or Ring)
    supplies the _check that guards split.
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

    def split(self, a: int) -> tuple[int, ...]:
        """Index -> per-factor indices."""
        self._check(a)
        out = []
        for s in self.strides:
            q, a = divmod(a, s)
            out.append(q)
        return tuple(out)

    def join(self, parts) -> int:
        return sum(p * s for p, s in zip(parts, self.strides))

    def coords(self, a):
        out = []
        for f, x in zip(self.factors, self.split(a)):
            out.extend(f.coords(x))
        return tuple(out)

    def index_of(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.arity:
            raise ValueError(
                f"expected {self.arity} coordinates, got {len(coords)}")
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


class ProductGroup(MixedRadix, FiniteGroup):
    """Direct product of groups; coordinates are concatenated."""

    def op(self, a, b):
        pa = self.split(a)
        pb = self.split(b)
        return self.join(f.op(x, y)
                         for f, x, y in zip(self.factors, pa, pb))

    def neg(self, a):
        return self.join(f.neg(x)
                         for f, x in zip(self.factors, self.split(a)))

    @property
    def is_abelian(self):
        return all(f.is_abelian for f in self.factors)


class Semidirect32(FiniteGroup):
    """Non-abelian order-32 group on Z4 x Z8 pairs.

    (x1,y1) + (x2,y2) = (x1+x2 mod 4, 5^x2 * y1 + y2 mod 8).  Since
    5^2 = 25 = 1 mod 8 the twist only depends on the parity of x2.
    """

    def __init__(self):
        self.order = 32
        self.arity = 2
        self._abelian = False

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
        x, y = (int(c) for c in coords)
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
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
            raise ValueError("table must be a nonempty square matrix")
        n = t.shape[0]
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries must lie in 0..n-1")
        self.order = n
        self.arity = 1
        self.table = t
        self.identity = _find_identity(t)
        self._inv = _find_inverses(t, self.identity)
        _check_associativity(t, self.identity)

    def op(self, a, b):
        return _int_or_array(self.table[self._check(a), self._check(b)])

    def neg(self, a):
        return _int_or_array(self._inv[self._check(a)])

    def coords(self, a):
        return (self._check(a),)

    def index_of(self, coords):
        (a,) = coords
        return self._check(int(a))

    def descriptor(self):
        return {"type": "table", "n": self.order,
                "table": self.table.tolist()}


class _OppositeGroup(FiniteGroup):
    """G^op for a non-abelian G: a o b = b + a on the same elements."""

    def __init__(self, base: FiniteGroup):
        self.base = base
        self.order = base.order
        self.arity = base.arity
        self.identity = base.identity
        self._abelian = False
        self._opposite = base

    def op(self, a, b):
        return self.base.op(b, a)

    def neg(self, a):
        return self.base.neg(a)

    def coords(self, a):
        return self.base.coords(a)

    def index_of(self, coords):
        return self.base.index_of(coords)

    def descriptor(self):
        return {"type": "opposite", "of": self.base.descriptor()}


def _int_or_array(x):
    return x if isinstance(x, np.ndarray) else int(x)


def _close(member: np.ndarray, combine) -> np.ndarray:
    """Grow the mask in place until combine of two members is a member."""
    size = 0
    while member.sum() > size:
        size = member.sum()
        s = np.flatnonzero(member)
        member[combine(s[:, None], s[None, :])] = True
    return member


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


def _check_associativity(t: np.ndarray, identity: int) -> None:
    """Light's associativity test: check only through a generating set.

    The closure starts from the identity, the one element whose
    associativity needs no check; any other seed could stand in for an
    untested generator.
    """
    gens: list[int] = []
    closure = np.zeros(t.shape[0], dtype=bool)
    closure[identity] = True
    while not closure.all():
        gens.append(int(closure.argmin()))  # least element outside
        closure[gens[-1]] = True
        _close(closure, lambda a, b: t[a, b])
    for g in gens:
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
        return CyclicGroup(int(descriptor["n"]))
    if kind == "product":
        return ProductGroup(make_group(d) for d in descriptor["factors"])
    if kind == "semidirect32":
        return Semidirect32()
    if kind == "table":
        g = TableGroup(descriptor["table"])
        if "n" in descriptor and int(descriptor["n"]) != g.order:
            raise ValueError("declared order does not match table size")
        return g
    raise ValueError(f"unknown group descriptor type {kind!r}")


def subgroup_closure(group: FiniteGroup, generators) -> frozenset[int]:
    """Smallest subgroup containing the generators: the smallest set that
    holds them and the identity and is closed under a + (-b)."""
    seeds = np.array([group.identity] + [int(g) for g in generators])
    member = np.zeros(group.order, dtype=bool)
    member[group._check(seeds)] = True
    return frozenset(np.flatnonzero(_close(member, group.difference)).tolist())


def is_subgroup(group: FiniteGroup, subset) -> bool:
    """True when the subset is closed under the group operations."""
    s = np.array([int(x) for x in subset], dtype=np.int64)
    if group.identity not in s:
        return False
    group._check(s)
    member = np.zeros(group.order, dtype=bool)
    member[s] = True
    return bool(member[group.difference(s[:, None], s[None, :])].all())
