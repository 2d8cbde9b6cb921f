import json
import math
import re
import reprlib

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfam import rings
from pdfam.groups import CyclicGroup, ElementOutOfRangeError, ProductGroup
from pdfam.rings import (EvenOrderError, GaloisField, NotPrimeError,
                         ProductRing, Zmod, build_y_powers, check_y_condition,
                         factorize, is_prime, make_ring,
                         maximal_prime_power_divisors, starter_reps)


def ring_pow(ring, a, e):
    """a**e by binary exponentiation, e >= 0: an oracle built on mul."""
    result = ring.one
    while e:
        if e & 1:
            result = ring.mul(result, a)
        a = ring.mul(a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("build,error,says", [
    (lambda: GaloisField(7, 0), ValueError,
     "extension degree must be positive"),
    (lambda: factorize(0), ValueError, "positive integers only"),
    (lambda: build_y_powers(ProductRing([GaloisField(7), Zmod(9)]), 2),
     TypeError, "all factors must be fields"),
], ids=["GF7-degree-0", "factorize-0", "y-powers-zmod-factor"])
def test_rings_refuse_bad_input(build, error, says):
    with pytest.raises(error, match=f"^{says}$"):
        build()


@pytest.mark.parametrize("call", [is_prime, factorize,
                                  maximal_prime_power_divisors],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [7.5, True, np.float64(9.0)],
                         ids=["float", "bool", "numpy-float"])
def test_integer_functions_refuse_a_non_integer(call, n):
    # is_prime(7.5) read True, factorize(7.5) {7.5: 1} and factorize(True) {}
    with pytest.raises(ValueError, match=rf"^n {re.escape(reprlib.repr(n))} "
                                         "is not an integer$"):
        call(n)
    assert call(np.int64(45)) == call(45)


def test_factorize_and_divisors():
    assert factorize(45) == {3: 2, 5: 1}
    assert factorize(47) == {47: 1}
    assert maximal_prime_power_divisors(45) == [5, 9]
    assert maximal_prime_power_divisors(47) == [47]
    assert maximal_prime_power_divisors(1155) == [3, 5, 7, 11]


def test_is_prime_small():
    primes = {p for p in range(2, 200) if is_prime(p)}
    sieve = set()
    for p in range(2, 200):
        if all(p % q for q in range(2, p)):
            sieve.add(p)
    assert primes == sieve


@pytest.mark.parametrize("n", [0, 1, -7])
def test_is_prime_below_two_is_false(n):
    assert is_prime(n) is False


def test_zmod_units_and_arithmetic():
    r = Zmod(25)
    assert r.mul(7, 18) == 1
    assert not r.is_unit(5) and r.is_unit(7)
    assert len(r.units()) == 20
    assert r.sub(3, 9) == 19


def test_gf9_modulus_and_squares():
    f = GaloisField(3, 2)
    # lexicographically first irreducible: x^2 + 1
    assert f.modulus == (1, 0)
    x = f.index_of((1, 0))
    assert f.coords(f.mul(x, x)) == (0, 2)  # x^2 = -1 = 2


def test_gf_is_field():
    for p, k in [(2, 2), (3, 2), (5, 2), (3, 3), (7, 1)]:
        f = GaloisField(p, k)
        assert len(f.units()) == f.order - 1
        for a in f.units():
            inverses = [b for b in f.units() if f.mul(a, b) == f.one]
            assert len(inverses) == 1


def test_gf_rejects_composite_characteristic():
    with pytest.raises(NotPrimeError):
        GaloisField(6, 1)


def test_primitive_element_orders():
    for q, expected in [((5, 1), 2), ((7, 1), 3), ((3, 1), 2)]:
        f = GaloisField(*q)
        rho = f.primitive
        assert rho == expected
        seen = set()
        acc = f.one
        for _ in range(f.order - 1):
            acc = f.mul(acc, rho)
            seen.add(acc)
        assert len(seen) == f.order - 1


def test_primitive_element_generates_gf27():
    f = GaloisField(3, 3)
    rho = f.primitive
    acc, seen = f.one, set()
    for _ in range(26):
        acc = f.mul(acc, rho)
        seen.add(acc)
    assert len(seen) == 26


def _schoolbook(f, a, b):
    """a * b in f as polynomials over Zp (index = base-p coefficients,
    lowest degree least significant), reduced by the monic modulus."""
    p, k = f.p, f.k
    va = [a // p ** i % p for i in range(k)]
    vb = [b // p ** i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += va[i] * vb[j]
    monic = list(f.modulus) + [1]
    for e in range(2 * k - 2, k - 1, -1):
        c = prod[e] % p
        for i in range(k + 1):
            prod[e - k + i] -= c * monic[i]
    return sum(prod[i] % p * p ** i for i in range(k))


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 121, 125])
def test_gf_mul_matches_schoolbook_product(q):
    (p, k), = factorize(q).items()
    f = GaloisField(p, k)
    assert [[f.mul(a, b) for b in f.elements()] for a in f.elements()] == [
        [_schoolbook(f, a, b) for b in f.elements()] for a in f.elements()]


def test_primitive_element_is_sympy_primitive_root():
    sympy = pytest.importorskip("sympy")
    for p in sympy.primerange(2, 1000):
        assert GaloisField(p).primitive == sympy.primitive_root(p)


@pytest.mark.parametrize("p", [2, 3, 5, 47, 401, 499])
def test_prime_field_is_integers_mod_p(p):
    f = GaloisField(p)
    rho = f.primitive
    assert [ring_pow(f, rho, i) for i in range(p - 1)] == [
        pow(rho, i, p) for i in range(p - 1)]
    step = max(1, p // 23)
    assert all(f.mul(a, b) == a * b % p
               for a in range(p) for b in range(0, p, step))


def test_zmod_mul_refuses_non_integers_and_returns_ints():
    # 2.5 * 3 % 7 was 0.5, and a numpy operand gave a numpy result
    r = Zmod(7)
    for a, b, bad in ((2.5, 3, "2.5"), (3, 4.0, "4.0"), (True, 3, "True")):
        with pytest.raises(ValueError,
                           match=rf"^element {bad} is not an integer$"):
            r.mul(a, b)
    for a, b in ((np.int64(3), 4), (3, np.int32(4)), (3, 4)):
        assert type(r.mul(a, b)) is int and r.mul(a, b) == 5
    with pytest.raises(ElementOutOfRangeError, match="^element 7 outside"):
        r.mul(3, 7)


@pytest.mark.parametrize("ring", [
    GaloisField(7), GaloisField(3, 2),
    ProductRing([GaloisField(7), GaloisField(11)]),
    ProductRing([Zmod(9), GaloisField(5)]),
], ids=repr)
def test_mul_refuses_floats_with_the_zmod_message(ring):
    # GaloisField.mul read 0.0 as zero and 2.5 as a bad list index;
    # ProductRing.mul split 2.5 into float digits
    for a, b, bad in ((2.5, 3, "2.5"), (3, 4.0, "4.0"), (0.0, 3, "0.0"),
                      (3, np.float64(0.0), "np.float64(0.0)"),
                      (-1, 2.5, "2.5")):
        with pytest.raises(ValueError,
                           match=rf"^element {re.escape(bad)} is not an "
                                 rf"integer$"):
            ring.mul(a, b)
    with pytest.raises(ElementOutOfRangeError,
                       match=rf"^element {ring.order} outside"):
        ring.mul(3, ring.order)
    want = ring.mul(3, 4)
    for a, b in ((np.int64(3), 4), (3, np.int32(4))):
        assert type(ring.mul(a, b)) is int and ring.mul(a, b) == want
    assert ring.mul(0, 4) == ring.mul(4, 0) == 0


def test_product_ring_mul_is_unitwise_on_every_pair():
    r = ProductRing([GaloisField(7), GaloisField(13)])
    assert [[r.mul(a, b) for b in range(91)] for a in range(91)] == [
        [13 * (a // 13 * (b // 13) % 7) + a % 13 * (b % 13) % 13
         for b in range(91)] for a in range(91)]


def test_product_ring_componentwise():
    r = ProductRing([GaloisField(7, 1), GaloisField(11, 1)])
    a = r.additive.join((3, 5))
    b = r.additive.join((2, 9))
    assert r.additive.split(r.mul(a, b)) == (6, 45 % 11)
    assert r.is_unit(a)
    assert not r.is_unit(r.additive.join((0, 1)))


def _radices(ring):
    """The moduli of a ring's additive coordinates, leading one first."""
    if isinstance(ring, Zmod):
        return [ring.order]
    if isinstance(ring, GaloisField):
        return [ring.p] * ring.k
    return [r for f in ring.factors for r in _radices(f)]


def _digit_ref(ring):
    """Digit-wise reference: (coords, index_of, add, neg, sub) on ints."""
    radices = _radices(ring)

    def coords(a):
        out = []
        for r in reversed(radices):
            a, d = divmod(a, r)
            out.append(d)
        return tuple(reversed(out))

    def index_of(digits):
        a = 0
        for r, d in zip(radices, digits):
            a = a * r + d
        return a

    def add(a, b):
        return index_of([(x + y) % r for r, x, y
                         in zip(radices, coords(a), coords(b))])

    def neg(a):
        return index_of([-x % r for r, x in zip(radices, coords(a))])

    return coords, index_of, add, neg, lambda a, b: add(a, neg(b))


def test_additive_group_preserves_indices():
    cases = [
        (Zmod(9), CyclicGroup(9)),
        (GaloisField(5, 2), ProductGroup([CyclicGroup(5), CyclicGroup(5)])),
        (ProductRing([GaloisField(3, 1), GaloisField(7, 1)]),
         ProductGroup([CyclicGroup(3), CyclicGroup(7)])),
        (GaloisField(7), CyclicGroup(7)),
        (GaloisField(3, 3), ProductGroup([CyclicGroup(3)] * 3)),
        (Zmod(15), CyclicGroup(15)),
        (ProductRing([GaloisField(5, 2), GaloisField(7)]),
         ProductGroup([ProductGroup([CyclicGroup(5), CyclicGroup(5)]),
                       CyclicGroup(7)])),
    ]
    for ring, expected in cases:
        g = ring.additive
        assert g == expected
        assert g is ring.additive
        assert (json.dumps(g.descriptor(), sort_keys=True)
                == json.dumps(expected.descriptor(), sort_keys=True))
        for a in range(0, ring.order, max(1, ring.order // 7)):
            for b in range(0, ring.order, max(1, ring.order // 5)):
                assert g.op(a, b) == ring.add(a, b)
                assert g.neg(a) == ring.neg(a)

        coords, index_of, add, neg, sub = _digit_ref(ring)
        elems = list(ring.elements())
        col, row = np.arange(ring.order)[:, None], np.arange(ring.order)
        for name, ref in (("add", add), ("sub", sub)):
            table = getattr(ring, name)(col, row)
            assert table.tolist() == [[ref(a, b) for b in elems]
                                      for a in elems]
            for a, b in ((0, ring.order - 1), (ring.order // 2, 3)):
                got = getattr(ring, name)(a, b)
                assert type(got) is int and got == table[a, b]
        negs = ring.neg(np.arange(ring.order))
        assert negs.tolist() == [neg(a) for a in elems]
        assert all(type(ring.neg(a)) is int and ring.neg(a) == negs[a]
                   for a in elems)
        assert [ring.coords(a) for a in elems] == [coords(a) for a in elems]
        assert all(type(ring.index_of(coords(a))) is int
                   and ring.index_of(coords(a)) == index_of(coords(a)) == a
                   for a in elems)

        bad = np.array([1, ring.order + 2, -1])
        for call in (lambda: ring.add(bad, 0), lambda: ring.neg(bad),
                     lambda: ring.sub(0, bad)):
            with pytest.raises(ElementOutOfRangeError,
                               match=f"element {ring.order + 2} outside"):
                call()


def test_starter_reps_examples():
    assert starter_reps(Zmod(5)) == [1, 2]
    assert starter_reps(Zmod(7)) == [1, 2, 3]
    assert len(starter_reps(ProductRing([GaloisField(5, 1),
                                         GaloisField(5, 1)]))) == 12
    with pytest.raises(EvenOrderError):
        starter_reps(Zmod(8))


@pytest.mark.parametrize("order", [3, 9, 15, 21, 25, 27, 49, 75, 121, 199])
def test_starter_partition_property_zmod(order):
    r = Zmod(order)
    reps = starter_reps(r)
    assert len(reps) == (order - 1) // 2
    covered = set(reps) | {r.neg(h) for h in reps}
    assert covered == set(range(1, order))
    assert all(r.neg(h) not in reps or r.neg(h) == h for h in reps)


def test_starter_partition_all_odd_rings_to_200():
    rings = [Zmod(n) for n in range(3, 200, 2)]
    rings += [GaloisField(p, k) for p, k in
              [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]]
    rings += [ProductRing([GaloisField(3, 1), GaloisField(5, 1)]),
              ProductRing([GaloisField(5, 2), GaloisField(7, 1)])]
    for r in rings:
        if r.order > 200:
            continue
        reps = starter_reps(r)
        assert len(set(reps)) == (r.order - 1) // 2
        assert set(reps) | {r.neg(h) for h in reps} == set(range(1, r.order))


def test_build_y_powers_f7():
    assert build_y_powers(GaloisField(7, 1), 3) == [3, 2, 6]


def test_build_y_powers_product_diagonal():
    r = ProductRing([GaloisField(5, 1), GaloisField(5, 1)])
    ys = build_y_powers(r, 3)
    assert [r.additive.split(y) for y in ys] == [(2, 2), (4, 4), (3, 3)]


def test_build_y_powers_needs_fields():
    with pytest.raises(TypeError):
        build_y_powers(Zmod(9), 2)


def test_check_y_condition_good_f7():
    chk = check_y_condition(GaloisField(7, 1), [3, 2, 6])
    assert chk.ok


def test_check_y_condition_z25_witness():
    chk = check_y_condition(Zmod(25), [1, 2, 3, 4])
    assert not chk.ok
    assert chk.witness == (1, 21)
    assert "not a unit" in chk.reason


def test_check_y_condition_refuses_non_integers():
    for y in ([3.9, 2.2], [3, False], [np.float64(3.0)]):
        with pytest.raises(ValueError,
                           match=r"^element \S+ is not an integer$"):
            check_y_condition(GaloisField(7), y)
    assert check_y_condition(GaloisField(7), np.array([3, 2, 6])).ok


def test_check_y_condition_rejects_sign_collision():
    chk = check_y_condition(GaloisField(7, 1), [1, 6])  # 6 = -1
    assert not chk.ok and chk.reason == "Y meets -Y"


def test_check_y_condition_rejects_non_unit():
    chk = check_y_condition(Zmod(9), [3])
    assert not chk.ok


def test_ring_pow():
    r = Zmod(25)
    assert ring_pow(r, 7, 0) == 1
    assert ring_pow(r, 7, 4) == pow(7, 4, 25)


def test_make_ring_roundtrip():
    for r in [Zmod(9), GaloisField(3, 2), GaloisField(7, 1),
              ProductRing([GaloisField(5, 1), GaloisField(7, 1)])]:
        assert make_ring(r.descriptor()) == r


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2), (2, 4), (7, 1)]), st.data())
def test_gf_ring_axioms_random(pk, data):
    f = GaloisField(*pk)
    a = data.draw(st.integers(0, f.order - 1))
    b = data.draw(st.integers(0, f.order - 1))
    c = data.draw(st.integers(0, f.order - 1))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(a, f.neg(a)) == 0


# -- array predicates against a scalar reference ------------------------------

_PREDICATE_RINGS = (
    [Zmod(n) for n in (9, 15, 25, 45)]
    + [GaloisField(p, k) for p, k in ((2, 2), (3, 1), (3, 2), (3, 3), (5, 2),
                                      (7, 1), (7, 2))]
    + [ProductRing([GaloisField(3, 1), GaloisField(5, 1)]),
       ProductRing([GaloisField(3, 2), GaloisField(5, 1)]),
       ProductRing([GaloisField(5, 1), GaloisField(5, 1)]),
       ProductRing([GaloisField(3, 1), GaloisField(7, 1), GaloisField(2, 2)])])


def _ref_units(ring):
    """Scalar reference: the elements with a multiplicative inverse."""
    return [a for a in range(ring.order)
            if any(ring.mul(a, b) == ring.one for b in range(ring.order))]


def _ref_check_y(ring, y, units):
    """The pairwise scalar unit-difference test, as (ok, witness, reason)."""
    if len(set(y)) != len(y):
        return False, None, "repeated element in Y"
    for e in y:
        if e not in units:
            return False, (e, e), f"element {e} is not a unit"
    negs = {ring.neg(e) for e in y}
    overlap = sorted(set(y) & negs)
    if overlap:
        return False, (overlap[0], ring.neg(overlap[0])), "Y meets -Y"
    full = sorted(set(y) | negs)
    for i, a in enumerate(full):
        for b in full[i + 1:]:
            if ring.sub(a, b) not in units:
                return (False, (a, b),
                        f"difference {ring.sub(a, b)} is not a unit")
    return True, None, None


@pytest.mark.parametrize("ring", _PREDICATE_RINGS, ids=repr)
def test_units_and_starters_match_scalar_reference(ring):
    ref = _ref_units(ring)
    assert ring.units() == ref
    mask = ring.is_unit(np.arange(ring.order))
    assert mask.dtype == bool and np.flatnonzero(mask).tolist() == ref
    assert all(type(ring.is_unit(a)) is bool for a in range(ring.order))
    if ring.order % 2:
        want = [h for h in range(1, ring.order) if h <= ring.neg(h)]
        reps = starter_reps(ring)
        assert reps == want and all(type(h) is int for h in reps)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PREDICATE_RINGS), st.data())
def test_check_y_condition_matches_scalar_reference(ring, data):
    units = _ref_units(ring)
    element = st.one_of(st.integers(0, ring.order - 1), st.sampled_from(units))
    y = data.draw(st.lists(element, max_size=6))
    got = check_y_condition(ring, y)
    assert (got.ok, got.witness, got.reason) == _ref_check_y(ring, y,
                                                             set(units))


def test_is_unit_array_names_first_out_of_range_entry():
    for ring in (Zmod(9), GaloisField(3, 2),
                 ProductRing([GaloisField(3, 1), GaloisField(5, 1)])):
        with pytest.raises(IndexError, match=f"{ring.order + 2} outside"):
            ring.is_unit(np.array([1, ring.order + 2, -1]))


# a ring constructor refuses what make_ring refuses in the same field, with
# the same one-line message
def test_zmod_refuses_a_non_integer_modulus():
    with pytest.raises(ValueError, match=r"^n 7\.5 is not an integer$"):
        Zmod(7.5)
    with pytest.raises(ValueError, match=r"^n 7\.5 is not an integer$"):
        make_ring({"type": "zmod", "n": 7.5})


def test_gf_refuses_a_bool_degree():
    with pytest.raises(ValueError, match="^k True is not an integer$"):
        GaloisField(7, True)
    with pytest.raises(ValueError, match="^k True is not an integer$"):
        make_ring({"type": "gf", "p": 7, "k": True})


def test_gf_refuses_a_float_characteristic():
    with pytest.raises(ValueError, match=r"^p 7\.0 is not an integer$"):
        GaloisField(7.0)
    with pytest.raises(ValueError, match=r"^p 7\.0 is not an integer$"):
        make_ring({"type": "gf", "p": 7.0})


def test_product_ring_refuses_a_factor_that_is_not_a_ring():
    # a bare AttributeError on .additive before
    with pytest.raises(ValueError, match="^product factor 7 is not a ring$"):
        ProductRing([7])


def test_ring_constructors_store_numpy_integers_as_ints():
    f, z = GaloisField(np.int64(7), np.int64(2)), Zmod(np.int64(9))
    assert type(f.p) is int and type(f.k) is int and type(z.order) is int
    assert f.descriptor() == {"type": "gf", "p": 7, "k": 2}
    assert z.descriptor() == {"type": "zmod", "n": 9}


@pytest.mark.parametrize("build,says", [
    (lambda: Zmod(10**6 + 1), "ring order 1000001"),
    (lambda: make_ring({"type": "zmod", "n": 10**12}),
     "ring order 1000000000000"),
    (lambda: GaloisField(1_000_003), "field order 1000003^1"),
    (lambda: GaloisField(1009, 2), "field order 1009^2"),
    (lambda: GaloisField(2, 20), "field order 2^20"),
    # refused before is_prime, and without computing 4^(10^18)
    (lambda: GaloisField(4, 10**18), "field order 4^1000000000000000000"),
    (lambda: make_ring({"type": "gf", "p": 10**18 + 9, "k": 1}),
     "field order 1000000000000000009^1"),
    (lambda: ProductRing([Zmod(1000), Zmod(1001)]), "ring order 1001000"),
], ids=["zmod", "zmod-descriptor", "prime-field", "GF1009^2", "GF2^20",
        "huge-degree", "gf-descriptor", "product"])
def test_rings_above_the_order_bound_are_refused_at_once(build, says):
    with pytest.raises(ValueError,
                       match=f"^{re.escape(says)} exceeds the bound 1000000$"):
        build()


def test_rings_at_the_order_bound_are_built():
    assert rings.MAX_ORDER == 10**6
    assert Zmod(10**6).order == 10**6
    assert ProductRing([Zmod(1000), Zmod(1000)]).order == 10**6
