"""The four seeded workloads, as job lists with an independent check per job.

A job's ``run`` is the timed call into pdfam and returns the output bytes;
its ``check`` is untimed and returns ``(problems, known_defect)``.  The seed
picks every input; pdfam only sees the generated inputs.  Library calls go
through module attributes at call time, so the tracer's wrappers see them.

Seeded moduli are primes, so that every seed runs about the same amount of
work while the inputs differ; composite and prime-power rings are covered
by fixed jobs (the AC4 sweep holds 49, 77 and 91).  The large u=1 moduli
and the order-32 moduli come as mirror pairs about the middle of their
range, balanced in m**2 (the sdf_lift work) and in m (verify).  The u=1
pair is drawn from [401, 487]: the cost grows faster than m**2 there, and
a narrow band keeps the pair's cost even across seeds.  m = 499, the
order-1996 expansion, is a fixed job.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Callable

import numpy as np

from check import (ORDER32_BASE, RefGroup, check_expansion,
                   check_verify_report, difference_sets, expected_verify_exit,
                   hadamard_base, translation_classes)

AC4_MODULI = tuple(m for m in range(7, 101, 2) if gcd(m, 15) == 1)
CONVENTIONS = ("right", "left")


@dataclass
class Job:
    name: str
    run: Callable[[], list[bytes]]
    check: Callable[[list[bytes]], tuple[list[str], bool]]
    outputs: int = 1  # results the job hands back, for verify_per_output
    probe: bool = False  # known-defect probe, not counted as a failure


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict = field(default_factory=dict)  # what the seed picked
    # cross-job check on the first pass: outputs by job name -> problems
    check_pass: Callable[[dict], list[str]] = lambda outputs: []


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def mirror_pair(rng: random.Random, lo: int, hi: int, power: int = 1,
                exclude=()) -> tuple[int, int]:
    """A prime p below the middle of [lo, hi] and the prime q above it
    whose q**power best makes up p**power + q**power = 2 * middle**power,
    so the pair costs the same for work growing as m**power."""
    pool = [p for p in _primes(lo, hi) if p not in exclude]
    mid = (lo + hi) / 2
    low = rng.choice([p for p in pool if p < mid])
    target = 2 * mid ** power - low ** power
    high = min((p for p in pool if p > mid),
               key=lambda p: (abs(p ** power - target), p))
    return low, high


def _serialized(pair) -> list[bytes]:
    from pdfam import serialize
    return [serialize.canonical_dumps(serialize.result_to_json(r)).encode()
            for r in pair]


def _expansion_job(label: str, build, base, m: int) -> Job:
    def check(outs):
        problems = []
        for completion, out in zip(("single", "per-block"), outs):
            problems += [f"{completion}: {p}"
                         for p in check_expansion(out, base, m, completion)]
        return problems, False

    return Job(label, lambda: _serialized(build()), check, outputs=2)


def _hds_job(u: int, m: int) -> Job:
    from pdfam import constructions
    return _expansion_job(f"expand_from_hds(u={u},m={m})",
                          lambda: constructions.expand_from_hds(u, m),
                          hadamard_base(u), m)


def _sporadic_job(m: int) -> Job:
    from pdfam import constructions
    return _expansion_job(f"expand_nonabelian32(m={m})",
                          lambda: constructions.expand_nonabelian32(m),
                          ORDER32_BASE, m)


def expand_u1(seed: int, work: Path) -> Workload:
    large = mirror_pair(random.Random(seed), 401, 487, power=2)
    jobs = [_hds_job(1, m) for m in AC4_MODULI + large + (499,)]
    return Workload(jobs, {"large_moduli": large})


def expand_sporadic(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    sporadic = mirror_pair(rng, 45, 80, exclude=(47,))
    hds2 = rng.choice(_primes(21, 50))
    # five jobs, so the median job is the fixed order-1504 expansion rather
    # than a point between the cheap u=2 and the costly order-32 jobs
    jobs = ([_hds_job(2, 25), _hds_job(2, hds2), _sporadic_job(47)]
            + [_sporadic_job(m) for m in sporadic])
    return Workload(jobs, {"sporadic_moduli": sporadic, "u2_modulus": hds2})


# -- recertify -------------------------------------------------------------

def _near_misses(rng: random.Random, data: dict) -> dict[str, dict]:
    """An element moved to another block, and one replaced by a non-member."""
    blocks = data["family"]["blocks"]
    order = RefGroup(data["family"]["group"]).order
    out = {}

    moved = [list(b) for b in blocks]
    src = rng.choice([i for i, b in enumerate(moved) if len(b) > 1])
    dst = rng.choice([i for i in range(len(moved)) if i != src])
    x = moved[src].pop(rng.randrange(len(moved[src])))
    moved[dst] = sorted(moved[dst] + [x])
    out["moved"] = moved

    replaced = [list(b) for b in blocks]
    i = rng.randrange(len(replaced))
    members = set(replaced[i])
    y = rng.choice([e for e in range(order) if e not in members])
    replaced[i][rng.randrange(len(replaced[i]))] = y
    replaced[i].sort()
    out["replaced"] = replaced

    return {kind: {**data, "family": {**data["family"], "blocks": b}}
            for kind, b in out.items()}


def _verify_job(path: Path, data: dict, convention: str) -> Job:
    from pdfam import cli
    expected = expected_verify_exit(data, convention)
    argv = ["verify", str(path), "--convention", convention]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return [f"exit {code}\n{buf.getvalue()}".encode()]

    def check(outs):
        head, _, report = outs[0].decode().partition("\n")
        code = int(head.split()[1])
        return check_verify_report(data, convention, code, expected,
                                   report), False

    return Job(f"verify({path.name},{convention})", run, check)


def recertify(seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(Path(__file__).with_name("gen_outputs.py")),
                    str(work)], check=True)
    rng = random.Random(seed)
    files = {}
    for path in sorted(work.glob("order*-*.json")):
        files[path] = json.loads(path.read_text())
    for name in ("order1504-single", "order400-single"):
        for kind, data in _near_misses(rng, files[work / f"{name}.json"]).items():
            path = work / f"near-{name}-{kind}.json"
            path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
            files[path] = data
    jobs = [_verify_job(p, d, c) for p, d in files.items() for c in CONVENTIONS]
    return Workload(jobs, {"files": [p.name for p in files]})


# -- hds-search ------------------------------------------------------------

def dihedral16() -> np.ndarray:
    """r^a s^b at index 8b + a; (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b+d)."""
    t = np.empty((16, 16), dtype=np.int64)
    for x in range(16):
        b, a = divmod(x, 8)
        for y in range(16):
            d, c = divmod(y, 8)
            t[x, y] = 8 * ((b + d) % 2) + (a + (-c if b else c)) % 8
    return t


def q8_by_z2() -> np.ndarray:
    """Quaternion group times Z2; (q, z) at index 2q + z.

    q = 4s + u is the unit u in (1, i, j, k) with sign (-1)^s.
    """
    # unit products as (sign flip, unit): i*j = k, j*i = -k, i*i = -1, ...
    mult = {(0, a): (0, a) for a in range(4)} | {(a, 0): (0, a) for a in range(4)}
    for a in (1, 2, 3):
        mult[(a, a)] = (1, 0)
        b, c = a % 3 + 1, (a + 1) % 3 + 1
        mult[(a, b)] = (0, c)
        mult[(b, a)] = (1, c)
    t = np.empty((16, 16), dtype=np.int64)
    for x in range(16):
        q1, z1 = divmod(x, 2)
        s1, u1 = divmod(q1, 4)
        for y in range(16):
            q2, z2 = divmod(y, 2)
            s2, u2 = divmod(q2, 4)
            flip, u = mult[(u1, u2)]
            t[x, y] = 2 * (4 * ((s1 + s2 + flip) % 2) + u) + (z1 + z2) % 2
    return t


def relabel(table: np.ndarray, perm) -> np.ndarray:
    """Cayley table after renaming element a to perm[a]."""
    perm = np.asarray(perm)
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _fix_zero(rng: random.Random, n: int) -> list[int]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


# identity moved off label 0: search_hds starts from label 0 regardless
PROBE_PERM = [5, 0, 1, 2, 3, 4] + list(range(6, 16))


def _search_job(label: str, group, convention: str, expected: set,
                probe: bool = False) -> Job:
    from pdfam import groups, search
    conv = groups.convention_from_name(convention)
    classes = translation_classes(expected, 6)

    def run():
        res = search.search_hds(group, 2, convention=conv)
        return [json.dumps({"complete": res.complete, "nodes": res.nodes,
                            "results": res.results}, sort_keys=True).encode()]

    def check(outs):
        res = json.loads(outs[0])
        hits = [tuple(h) for h in res["results"]]
        if probe and res["complete"] and not hits and classes:
            return [], True
        problems = []
        if not res["complete"]:
            problems.append("search reported incomplete")
        if len(hits) != classes:
            problems.append(f"{len(hits)} hits, independent count {classes}")
        if any(h not in expected for h in hits):
            problems.append("a hit fails the independent difference count")
        return problems, False

    return Job(label, run, check, probe=probe)


def hds_search(seed: int, work: Path) -> Workload:
    from pdfam import groups, search
    rng = random.Random(seed)
    jobs, family = [], {}

    def add(name, group, probe=False):
        ref = RefGroup(group.descriptor())
        for conv in CONVENTIONS:
            expected = difference_sets(ref, 6, 2, conv)
            label = f"search({name},{conv})"
            family[label] = (name.split("@")[0], conv)
            jobs.append(_search_job(label, group, conv, expected, probe))

    abelian = search.abelian_groups_order16()
    for name, g in abelian:
        add(name, g)
    tables = [(name, RefGroup(g.descriptor()).table()) for name, g in abelian]
    tables += [("Q8xZ2", q8_by_z2()), ("D16", dihedral16())]
    for name, t in tables:
        tg = groups.TableGroup(relabel(t, _fix_zero(rng, 16)))
        add(f"{name}@table", tg)
    z4z4 = dict(tables)["Z4xZ4"]
    probe = groups.TableGroup(relabel(z4z4, PROBE_PERM))
    add("Z4xZ4@probe", probe, probe=True)

    def check_pass(outputs):
        hits: dict = {}
        for label, outs in outputs.items():
            if label.startswith("search(Z4xZ4@probe"):
                continue
            hits.setdefault(family[label], set()).add(
                len(json.loads(outs[0])["results"]))
        problems = [f"{key}: hit counts {sorted(v)} differ across labelings"
                    for key, v in hits.items() if len(v) != 1]
        for name in ("Z16", "D16"):
            for conv in CONVENTIONS:
                if hits.get((name, conv), {0}) != {0}:
                    problems.append(f"{name} ({conv}) should have no hits")
        return problems

    return Workload(jobs, {"relabelings": len(tables)}, check_pass)


WORKLOADS = {
    "expand-u1": expand_u1,
    "expand-sporadic": expand_sporadic,
    "recertify": recertify,
    "hds-search": hds_search,
}
