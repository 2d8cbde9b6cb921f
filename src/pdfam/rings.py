"""Finite commutative rings: integers mod n, Galois fields, direct products.

Every ring is built on its additive group, a FiniteGroup, and ring
elements are that group's elements 0..order-1 under its encoding: a Zmod
element is its residue in Zn, a field element is its coefficient vector in
Zp^k (coords listed leading coefficient first, so the index is their base-p
value), and a product element is the tuple of its factor elements in the
product of the factors' additive groups.  Ring addition is that group's
operation.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from math import prod

import numpy as np

from .groups import (CyclicGroup, FiniteGroup, ProductGroup, _factors,
                     _indices, _instance, _int_field, _is_int,
                     _scalar_or_array)


# the largest ring order built: tables of order entries, sqrt(order) divisions
MAX_ORDER = 10**6


def _check_order(order: int, what: str) -> None:
    """Refuse a ring (named by what) of more than MAX_ORDER elements."""
    if order > MAX_ORDER:
        raise ValueError(f"{what} exceeds the bound {MAX_ORDER}")


class NotPrimeError(ValueError):
    """Characteristic argument is not a prime."""


class EvenOrderError(ValueError):
    """Operation needs a ring of odd order."""


def is_prime(n: int) -> bool:
    n = _int_field({"n": n}, "n")  # a bool or a float is refused
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}."""
    n = _int_field({"n": n}, "n")
    if n < 1:
        raise ValueError("positive integers only")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def maximal_prime_power_divisors(n: int) -> list[int]:
    """The p^a with p^a || n, sorted ascending."""
    return sorted(p ** a for p, a in factorize(n).items())


class Ring:
    """Base class for finite commutative rings on integer element indices.

    A ring builds its additive group R+ once, in __init__, and takes all of
    its additive arithmetic from it: add/neg/sub, coords/index_of and the
    range check are that group's op/neg/difference, coords/index_of and
    _check, so they take Python ints or int64 index arrays that broadcast
    against each other, and a scalar gives an int.  is_unit takes either
    and answers with a bool or a bool array.  mul stays scalar.
    """

    one: int

    def __init__(self, additive: FiniteGroup):
        self.additive = additive
        self.order = additive.order

    def add(self, a, b):
        return self.additive.op(a, b)

    def neg(self, a):
        return self.additive.neg(a)

    def sub(self, a, b):
        return self.additive.difference(a, b)

    def coords(self, a) -> tuple[int, ...]:
        return self.additive.coords(a)

    def index_of(self, coords) -> int:
        return self.additive.index_of(coords)

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def is_unit(self, a):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> list[int]:
        return np.flatnonzero(self.is_unit(np.arange(self.order))).tolist()

    def __eq__(self, other):
        return (isinstance(other, Ring)
                and self.descriptor() == other.descriptor())

    __hash__ = FiniteGroup.__hash__

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order})"


def _refuse(ring: Ring, a, b):
    """The cold path of mul's inline operand test: raise what _indices
    raises for [a, b], a ValueError for a non-integer or the additive
    group's ElementOutOfRangeError for an element outside 0..order-1.  mul
    tests inline because it runs once per entry of every starter
    table, where a call to _indices would cost more than the product."""
    _indices(ring.additive, [a, b])


class Zmod(Ring):
    """Integers modulo n."""

    def __init__(self, n: int):
        n = _int_field({"n": n}, "n")
        if n < 2:
            raise ValueError("modulus must be at least 2")
        _check_order(n, f"ring order {n}")
        super().__init__(CyclicGroup(n))
        self.one = 1

    def mul(self, a, b):
        a, b = _indices(self.additive, [a, b])
        return a * b % self.order

    def is_unit(self, a):
        unit = np.gcd(self.additive._check(a), self.order) == 1
        return _scalar_or_array(unit)

    def descriptor(self):
        return {"type": "zmod", "n": self.order}

    def __repr__(self):
        return f"Zmod({self.order})"


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by the monic den over Zp; coefficient lists
    ascending."""
    num = num[:]
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] % p
        if c:
            for i in range(dn + 1):
                num[k - dn + i] = (num[k - dn + i] - c * den[i]) % p
    return [c % p for c in num[:dn]]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for val in range(p ** d):
            den = _digits(val, p, d) + [1]
            rem = _poly_rem(poly, den, p)
            if not any(rem):
                return False
    return True


def _digits(val: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        val, r = divmod(val, p)
        out.append(r)
    return out


class GaloisField(Ring):
    """GF(p^k) with the lexicographically first monic irreducible modulus.

    Elements are polynomials of degree < k over Zp, and the additive group
    is Zp^k: an element's coords are its coefficients, leading one first,
    so its index is their base-p value and GF(p,1) looks exactly like Zp.
    The modulus is stored as ascending coefficients of the non-leading
    part (x^k + sum modulus[i] x^i).  Multiplication reads exp/log tables of
    the canonical primitive element, the smallest generator of the
    multiplicative group, which is stored as `primitive`.
    """

    def __init__(self, p: int, k: int = 1):
        p, k = _int_field({"p": p}, "p"), _int_field({"k": k}, "k")
        if p > 1 and k > 0:  # 2^k passes the bound at this k, so p^k does
            _check_order(p ** min(k, MAX_ORDER.bit_length()),
                         f"field order {p}^{k}")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be positive")
        super().__init__(CyclicGroup(p) if k == 1
                         else ProductGroup([CyclicGroup(p)] * k))
        self.p = p
        self.k = k
        self.one = 1
        self.modulus = self._find_modulus()
        # exp runs over two periods, so a sum of two logs needs no reduction,
        # and then over zeros, where the log of 0 points, so a product with
        # 0 reads 0 without a branch
        self.primitive, powers = self._primitive_powers()
        self._exp = powers + powers + [0] * (2 * self.order - 1)
        self._log = [2 * self.order - 2] * self.order
        for i, x in enumerate(powers):
            self._log[x] = i

    def _find_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        for val in range(p ** k):
            low = _digits(val, p, k)
            if _is_irreducible(low + [1], p):
                return tuple(low)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _primitive_powers(self) -> tuple[int, list[int]]:
        """The smallest a of multiplicative order q - 1, the canonical
        primitive element, and its powers 1, a, ..., a^(q-2).

        A prime field walks the powers as integers mod p, an extension
        field as polynomials."""
        if self.k == 1:
            p = self.p
            for a in range(1, p):
                powers, x = [1], a
                while x != 1:
                    powers.append(x)
                    x = x * a % p
                if len(powers) == p - 1:
                    return a, powers
        one = [1] + [0] * (self.k - 1)
        for a in range(1, self.order):
            va = list(self.coords(a))[::-1]  # ascending coefficients
            powers = [one]
            x = va
            while x != one:
                powers.append(x)
                x = self._poly_mul(x, va)
            if len(powers) == self.order - 1:
                return a, [self.index_of(x[::-1]) for x in powers]
        raise RuntimeError("no primitive element found")  # unreachable

    def _poly_mul(self, va: list[int], vb: list[int]) -> list[int]:
        """Schoolbook product of two ascending coefficient lists, reduced
        by the monic modulus."""
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return _poly_rem(prod, list(self.modulus) + [1], p)

    def mul(self, a, b):
        q = self.order
        if not (0 <= a < q and 0 <= b < q):
            _refuse(self, a, b)
        try:
            return self._exp[self._log[a] + self._log[b]]
        except TypeError:  # a list index that is not an integer
            _refuse(self, a, b)

    def is_unit(self, a):
        return self.additive._check(a) != 0

    def descriptor(self):
        return {"type": "gf", "p": self.p, "k": self.k}

    def __repr__(self):
        return f"GF({self.order})"


class ProductRing(Ring):
    """Direct product of rings: unitwise arithmetic, and the additive group
    is the product of the factors' additive groups, whose mixed-radix
    encoding the ring shares."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        for f in self.factors:
            if not isinstance(f, Ring):
                raise ValueError(f"product factor {reprlib.repr(f)} is not "
                                 "a ring")
        order = prod(f.order for f in self.factors)
        _check_order(order, f"ring order {order}")
        super().__init__(ProductGroup(f.additive for f in self.factors))
        self.one = self.additive.join(f.one for f in self.factors)

    def mul(self, a, b):
        q = self.order
        if not (_is_int(a) and _is_int(b) and 0 <= a < q and 0 <= b < q):
            _refuse(self, a, b)
        out = 0
        for f, s in zip(self.factors, self.additive.strides):
            out += f.mul(a // s % f.order, b // s % f.order) * s
        return out

    def is_unit(self, a):
        unit = True
        for f, x in zip(self.factors, self.additive.split(a)):
            unit = unit & f.is_unit(x)
        return unit

    # the product group's descriptor and name, over the factor rings
    descriptor = ProductGroup.descriptor
    __repr__ = ProductGroup.__repr__


def make_ring(descriptor: dict) -> Ring:
    """Build a ring from its JSON descriptor."""
    if not isinstance(descriptor, dict):
        raise ValueError(f"ring descriptor {descriptor!r} is not an object")
    kind = descriptor.get("type")
    if kind == "zmod":
        return Zmod(_int_field(descriptor, "n"))
    if kind == "gf":
        return GaloisField(_int_field(descriptor, "p"),
                           _int_field(descriptor, "k", 1))
    if kind == "product":
        return ProductRing(make_ring(d) for d in _factors(descriptor))
    raise ValueError(f"unknown ring descriptor type {kind!r}")


def starter_reps(ring: Ring) -> list[int]:
    """One representative per pair {h, -h} of nonzero elements.

    Needs odd order so no nonzero element is its own negative; picks the
    canonically smaller element of each pair, returned ascending.
    """
    _instance(ring, Ring, "ring", "a ring")
    if ring.order % 2 == 0:
        raise EvenOrderError("patterned starters need a ring of odd order")
    h = np.arange(1, ring.order)
    return h[h <= ring.neg(h)].tolist()


def _field_factors(ring: Ring) -> list[GaloisField]:
    if isinstance(ring, GaloisField):
        return [ring]
    if isinstance(ring, ProductRing):
        out = []
        for f in ring.factors:
            if not isinstance(f, GaloisField):
                raise TypeError("all factors must be fields")
            out.append(f)
        return out
    raise TypeError("need a field or a product of fields")


def build_y_powers(ring: Ring, m: int) -> list[int]:
    """Diagonal powers (rho_1^j, ..., rho_t^j) for j = 1..m.

    rho_i is the canonical primitive element of the i-th field factor.  The
    list is returned in power order, which downstream code uses as the
    canonical ordering of Y.
    """
    fields = _field_factors(ring)
    powers = [[f._exp[j % (f.order - 1)] for f in fields]
              for j in range(1, m + 1)]
    if isinstance(ring, ProductRing):
        return [ring.additive.join(vec) for vec in powers]
    return [vec[0] for vec in powers]


@dataclass(frozen=True)
class YCheck:
    ok: bool
    witness: tuple[int, int] | None = None  # offending pair (a, b), a-b bad
    reason: str | None = None


def check_y_condition(ring: Ring, y) -> YCheck:
    """Unit-difference test for a candidate Y.

    Requires: every element of Y is a unit, Y has no repeats, Y and -Y are
    disjoint, and every difference of distinct elements of Y union -Y is a
    unit.  Returns the first offending pair on failure: the first non-unit
    of Y, the least element of Y that meets -Y, or the first pair (a, b),
    a < b, of the sorted Y union -Y in row-major order whose difference
    a - b is not a unit.  All differences come from one broadcast of sub.
    """
    _instance(ring, Ring, "ring", "a ring")
    y = _indices(ring.additive, list(y))
    if len(set(y)) != len(y):
        return YCheck(False, None, "repeated element in Y")
    ya = np.array(y, dtype=np.int64)
    unit = ring.is_unit(ya)
    if not unit.all():
        e = y[int(unit.argmin())]
        return YCheck(False, (e, e), f"element {e} is not a unit")
    negs = ring.neg(ya).tolist()
    overlap = sorted(set(y) & set(negs))
    if overlap:
        o = overlap[0]
        return YCheck(False, (o, ring.neg(o)), "Y meets -Y")
    full = np.array(sorted(y + negs), dtype=np.int64)  # a disjoint union
    diff = ring.sub(full[:, None], full[None, :])
    bad = np.triu(~ring.is_unit(diff), k=1)
    if bad.any():
        i, j = np.unravel_index(int(bad.argmax()), bad.shape)
        return YCheck(False, (int(full[i]), int(full[j])),
                      f"difference {int(diff[i, j])} is not a unit")
    return YCheck(True)
