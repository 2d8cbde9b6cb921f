"""Test-side oracles shared by more than one test module."""

from collections import Counter
from functools import cache

import pytest

from pdfam.groups import DiffConvention


def lift_fiber_defects(pdf, ring, f_map) -> list[tuple[int, str]]:
    """(g, defect) for each fiber of the lifted blocks that breaks one of
    the expansion's three fiber conditions, counted by brute force.

    Block X of the Hadamard base pdf lifts to {(d, f(d)), (d, -f(d))}; the
    fiber at g holds the h of every difference (g, h) of two positions of
    one lifted block.  Each fiber must hold 4*lam entries (v = 2*lam), be
    closed under negation, and hold only units, a unit being an element
    whose multiples are all nonzero but its multiple by zero.
    """
    group, fibers = pdf.group, [Counter() for _ in range(pdf.group.order)]
    for block in pdf.blocks:
        lifted = [(d, h) for d in block.tolist()
                  for h in (f_map[d], ring.neg(f_map[d]))]
        for i, (a, ha) in enumerate(lifted):
            for j, (b, hb) in enumerate(lifted):
                if i != j:
                    nb = group.neg(b)
                    g = (group.op(a, nb)
                         if pdf.convention is DiffConvention.RIGHT_INVERSE
                         else group.op(nb, a))
                    fibers[g][ring.sub(ha, hb)] += 1

    @cache
    def is_unit(h):
        return all(ring.mul(h, x) != 0 for x in range(ring.order) if x != 0)

    lam = group.order // 2
    defects = []
    for g, fiber in enumerate(fibers):
        if sum(fiber.values()) != 4 * lam:
            defects.append((g, "size"))
        if fiber != Counter({ring.neg(h): c for h, c in fiber.items()}):
            defects.append((g, "negation"))
        if not all(map(is_unit, fiber)):
            defects.append((g, "units"))
    return defects


@pytest.fixture(name="lift_fiber_defects")
def _lift_fiber_defects():
    return lift_fiber_defects
