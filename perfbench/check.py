"""Independent checks of pdfam outputs, with arithmetic of the benchmark's own.

Nothing here calls a pdfam group or ring.  Every group is rebuilt from the
JSON descriptor that pdfam writes, as vectorised numpy arithmetic on element
indices, and difference counts are tallied with ``bincount``.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np


class RefGroup:
    """Group arithmetic on numpy index arrays, built from a descriptor.

    Descriptors are the ones ``FiniteGroup.descriptor()`` writes: cyclic
    groups, direct products (leftmost factor most significant), the twisted
    order-32 group (x1,y1)+(x2,y2) = (x1+x2 mod 4, 5^x2*y1 + y2 mod 8), and
    explicit Cayley tables.
    """

    def __init__(self, desc: dict):
        kind = desc["type"]
        if kind == "cyclic":
            n = int(desc["n"])
            self.order, self.identity = n, 0
            self._op = lambda a, b: (a + b) % n
            self._neg = lambda a: (-a) % n
        elif kind == "semidirect32":
            self.order, self.identity = 32, 0
            self._op, self._neg = _twisted_op, _twisted_neg
        elif kind == "table":
            t = np.asarray(desc["table"], dtype=np.int64)
            idx = np.arange(len(t))
            e = next(int(a) for a in idx
                     if np.array_equal(t[a], idx) and np.array_equal(t[:, a], idx))
            inv = np.argmax(t == e, axis=1)
            self.order, self.identity = len(t), e
            self._op = lambda a, b: t[a, b]
            self._neg = lambda a: inv[a]
        elif kind == "product":
            factors = [RefGroup(d) for d in desc["factors"]]
            strides, acc = [], 1
            for f in reversed(factors):
                strides.append(acc)
                acc *= f.order
            strides.reverse()
            self.order = acc
            self.identity = sum(f.identity * s for f, s in zip(factors, strides))

            def split(a):
                return [(a // s) % f.order for f, s in zip(factors, strides)]

            def op(a, b):
                return sum(f.op(x, y) * s for f, x, y, s
                           in zip(factors, split(a), split(b), strides))

            def neg(a):
                return sum(f.neg(x) * s
                           for f, x, s in zip(factors, split(a), strides))

            self._op, self._neg = op, neg
        else:
            raise ValueError(f"unknown group descriptor {kind!r}")

    def op(self, a, b):
        return self._op(np.asarray(a, dtype=np.int64),
                        np.asarray(b, dtype=np.int64))

    def neg(self, a):
        return self._neg(np.asarray(a, dtype=np.int64))

    def diff(self, a, b, convention: str):
        """a - b: a + (-b) under "right", (-b) + a under "left"."""
        if convention == "right":
            return self.op(a, self.neg(b))
        return self.op(self.neg(b), a)

    def table(self) -> np.ndarray:
        idx = np.arange(self.order)
        return self.op(idx[:, None], idx[None, :])


def _twisted_op(a, b):
    x1, y1, x2, y2 = a >> 3, a & 7, b >> 3, b & 7
    y = np.where(x2 & 1, 5 * y1, y1) + y2
    return (((x1 + x2) & 3) << 3) | (y & 7)


def _twisted_neg(a):
    # -(x, y) = (-x, -5^x * y); 5^2 = 1 mod 8, so only the parity of x counts
    x, y = a >> 3, a & 7
    return (((-x) & 3) << 3) | ((-np.where(x & 1, 5 * y, y)) & 7)


def difference_counts(group: RefGroup, blocks, convention: str) -> np.ndarray:
    """Tally a - b over ordered pairs of distinct positions of every block."""
    counts = np.zeros(group.order, dtype=np.int64)
    by_size: dict[int, list] = {}
    for b in blocks:
        by_size.setdefault(len(b), []).append(b)
    for size, same in by_size.items():
        if size < 2:
            continue
        x = np.asarray(same, dtype=np.int64)
        d = group.diff(x[:, :, None], x[:, None, :], convention)
        off = ~np.eye(size, dtype=bool)
        counts += np.bincount(d[:, off].ravel(), minlength=group.order)
    return counts


def cover_counts(group: RefGroup, blocks) -> np.ndarray:
    flat = [e for b in blocks for e in b]
    return np.bincount(np.asarray(flat, dtype=np.int64), minlength=group.order)


def hadamard_base(u: int) -> tuple[int, tuple[int, ...], int]:
    """(v, K, lambda) of the complement PDF of a (4u^2, 2u^2-u, u^2-u) set."""
    return 4 * u * u, (2 * u * u - u, 2 * u * u + u), 2 * u * u


ORDER32_BASE = (32, (2, 2, 6, 22), 16)


def check_expansion(out: bytes, base, m: int, completion: str) -> list[str]:
    """Check one expansion output against the closed forms for (base, m).

    Expanding a Hadamard (v0, K0, lam0)-PDF by a ring of order m = 2n+1
    gives blocks 2k (n copies of each k in K0) plus the completion, on a
    group of order v0*m.  The single completion is a PDF of index 2*lam0.
    The per-block completion leaves every nonzero zero-fiber element at
    lam0, so it must come back Invalid with the element of index m (the
    zero-fiber element (1, 0)) as witness: README caveat 1.
    """
    v0, k0, lam0 = base
    n = (m - 1) // 2
    data = json.loads(out)
    fam = data["family"]
    group = RefGroup(fam["group"])
    blocks = fam["blocks"]
    v = v0 * m
    tail = [v0] if completion == "single" else list(k0)
    sizes = sorted([2 * k for k in k0] * n + tail)
    problems = []
    if group.order != v:
        problems.append(f"group order {group.order}, expected {v}")
        return problems
    if sorted(len(b) for b in blocks) != sizes:
        problems.append("block sizes differ from the closed form")
    if fam["forbidden"] is not None:
        problems.append("final family has a forbidden subgroup")
    declared = data["declared"]
    if (declared["kind"], declared["v"], declared["K"],
            declared["lambda_or_mu"]) != ("PDF", v, sizes, 2 * lam0):
        problems.append(f"declared parameters {declared} off the closed form")
    cover = cover_counts(group, blocks)
    if not np.all(cover == 1):
        problems.append("blocks do not partition the group")
    counts = difference_counts(group, blocks, data["convention"])
    zero_fiber = np.arange(v) % m == 0
    want = np.full(v, 2 * lam0, dtype=np.int64)
    if completion != "single":
        want[zero_fiber] = lam0
    want[group.identity] = 0
    if not np.array_equal(counts, want):
        bad = int(np.flatnonzero(counts != want)[0])
        problems.append(f"difference count {counts[bad]} at {bad}, "
                        f"expected {want[bad]}")
    rep = data["report"]
    if completion == "single":
        if not (data["certified"] and rep["kind"] == "PDF"
                and rep["lambda_or_mu"] == 2 * lam0):
            problems.append(f"single completion reported {rep['kind']}")
    else:
        wit = rep["witness"] or {}
        if (data["certified"] or rep["kind"] != "Invalid"
                or (wit.get("element"), wit.get("expected"), wit.get("actual"))
                != (m, 2 * lam0, lam0)):
            problems.append(f"per-block completion reported {rep['kind']} "
                            f"with witness {rep['witness']}, expected Invalid "
                            f"at {m} ({2 * lam0} expected, {lam0} actual)")
    return problems


def expected_verify_exit(data: dict, convention: str) -> int:
    """Exit code `pdfam verify` owes a wrapped file: 0 iff it is the PDF it
    declares under the convention, else 2."""
    fam = data["family"]
    group = RefGroup(fam["group"])
    blocks = fam["blocks"]
    dec = data["declared"]
    counts = difference_counts(group, blocks, convention)
    off =np.ones(group.order, dtype=bool)
    off[group.identity] = False
    is_pdf = (dec["kind"] == "PDF" and fam["forbidden"] is None
              and dec["v"] == group.order
              and sorted(len(b) for b in blocks) == dec["K"]
              and np.all(cover_counts(group, blocks) == 1)
              and counts[group.identity] == 0
              and np.all(counts[off] == dec["lambda_or_mu"]))
    return 0 if is_pdf else 2


def check_verify_report(data: dict, convention: str, code: int,
                        expected_code: int, report_text: str) -> list[str]:
    """Compare a `pdfam verify` run with the benchmark's own count."""
    problems = []
    if code != expected_code:
        problems.append(f"exit {code}, expected {expected_code}")
    rep = json.loads(report_text)
    fam = data["family"]
    group = RefGroup(fam["group"])
    if rep["v"] != group.order:
        problems.append(f"report v = {rep['v']}")
    if code == 0 and (rep["kind"], rep["lambda_or_mu"]) != (
            "PDF", data["declared"]["lambda_or_mu"]):
        problems.append(f"certified as {rep['kind']} {rep['lambda_or_mu']}")
    wit = rep["witness"]
    if wit is not None:
        if wit["context"] == "partition":
            tally = cover_counts(group, fam["blocks"])
        else:
            tally = difference_counts(group, fam["blocks"], convention)
        if tally[wit["element"]] != wit["actual"]:
            problems.append(f"witness {wit['element']} says {wit['actual']}, "
                            f"recount gives {tally[wit['element']]}")
    return problems


def difference_sets(group: RefGroup, k: int, lam: int,
                    convention: str) -> set[tuple[int, ...]]:
    """Every k-subset holding the identity whose differences cover each
    non-identity element exactly lam times, by exhaustive enumeration."""
    e = group.identity
    others = [a for a in range(group.order) if a != e]
    subsets = np.array([sorted((e,) + c) for c in combinations(others, k - 1)],
                       dtype=np.int64)
    d = group.diff(subsets[:, :, None], subsets[:, None, :], convention)
    off = ~np.eye(k, dtype=bool)
    rows = np.repeat(np.arange(len(subsets)), k * (k - 1))
    tally = np.bincount(rows * group.order + d[:, off].ravel(),
                        minlength=len(subsets) * group.order)
    tally = tally.reshape(len(subsets), group.order)
    want = np.full(group.order, lam)
    want[e] = 0
    hits = np.all(tally == want, axis=1)
    return {tuple(int(x) for x in s) for s in subsets[hits]}


def translation_classes(sets: set, k: int) -> int:
    """Each difference set has exactly k translates holding the identity."""
    if len(sets) % k:
        raise ValueError("identity-holding difference sets not a multiple of k")
    return len(sets) // k
