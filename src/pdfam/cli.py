"""Command-line front end.

Exit codes: 0 when the requested object certifies, 1 on bad input or a
construction-level error, 2 when an object was built but failed its
certification check.  The scripts under scripts/ build their parsers from
Parser and run under run_guarded, so they share this policy.

The difference convention is settled in _conv (--convention, else the input
file's, else right) and given to a family as _load_family decodes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .catalog import catalog_family, certify_catalog
from .constructions import (COMPLETION_SINGLE, COMPLETIONS, complement_pdf,
                            double_sdf, expand_from_hds, expand_hadamard_pdf,
                            expand_nonabelian32, hadamard_pdf_from_hds,
                            make_recipe, paley_double_sdf, ring_for_modulus)
from .groups import (DEFAULT_CONVENTION, CyclicGroup, ElementOutOfRangeError,
                     ProductGroup, Semidirect32, _ints, convention_from_name,
                     make_group)
from .multisets import verify
from .rings import (GaloisField, ProductRing, Ring, Zmod, _check_order,
                    factorize, make_ring)
from .search import SearchBounds, max_unit_y_search, search_hds
from .serialize import (canonical_dumps, family_from_json,
                        family_to_json, prediction_from_json,
                        recipe_from_json, recipe_to_json, report_to_json,
                        result_to_json)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """The parser of pdfam and of every script: a bad argument raises
    UsageError, so run_guarded turns it into exit 1, not argparse's 2.  A
    flag is never read from a prefix (allow_abbrev=False, inherited by every
    sub-parser), so a misspelt or foreign flag is refused rather than taken
    for another."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def run_guarded(entry, argv=None) -> int:
    """Exit code of entry(argv), the body of pdfam or of a script; bad input
    and construction errors become exit 1 with one 'error:' line on
    stderr."""
    try:
        return entry(argv) or 0
    # construction, search and ring errors are all ValueErrors
    except (UsageError, ValueError, ElementOutOfRangeError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # Python's own has no message, numpy's has
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def peak_rss_mb() -> str:
    """This process's own peak RSS in whole MB, from VmHWM, or 'n/a'
    without /proc.  A script reports it rather than ru_maxrss, which on
    Linux an exec'd process inherits from the process that spawned it."""
    try:
        with open("/proc/self/status") as status:
            kb = next(line.split()[1] for line in status
                      if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return "n/a"
    return f"{int(kb) / 1024:.0f}"


def parse_group_spec(text: str):
    """'Z4', 'Z2xZ8', 'semidirect32', or a JSON group descriptor."""
    t = text.strip()
    if t.startswith("{"):
        return make_group(json.loads(t))
    name = t.lower()
    if name == "semidirect32":
        return Semidirect32()
    factors = []
    for part in name.split("x"):
        if not (part.startswith("z") and part[1:].isdigit()):
            raise UsageError(f"cannot parse group spec {text!r}")
        factors.append(CyclicGroup(int(part[1:])))
    return factors[0] if len(factors) == 1 else ProductGroup(factors)


def parse_ring_spec(text: str) -> Ring:
    """'Z25', 'F49', 'GF27', 'F7xF11', or a JSON ring descriptor."""
    t = text.strip()
    if t.startswith("{"):
        return make_ring(json.loads(t))
    factors = []
    for part in t.lower().split("x"):
        if part.startswith("gf"):
            body, field = part[2:], True
        elif part.startswith("f"):
            body, field = part[1:], True
        elif part.startswith("z"):
            body, field = part[1:], False
        else:
            raise UsageError(f"cannot parse ring spec {text!r}")
        if not body.isdigit():
            raise UsageError(f"cannot parse ring spec {text!r}")
        q = int(body)
        _check_order(q, f"{'field' if field else 'ring'} order {q}")
        if field:
            fact = factorize(q)
            if len(fact) != 1:
                raise UsageError(f"field order {q} is not a prime power")
            (p, k), = fact.items()
            factors.append(GaloisField(p, k))
        else:
            factors.append(Zmod(q))
    return factors[0] if len(factors) == 1 else ProductRing(factors)


def _parse_block(text: str) -> list[int]:
    t = text.strip()
    if t.startswith("["):
        block = json.loads(t)
        if not _ints(block):
            raise UsageError(f"block {text!r} is not an array of integers")
        return block
    for x in t.split(","):
        if not x.strip().removeprefix("-").isdecimal():
            raise UsageError(f"block item {x.strip()!r} is not an integer")
    return [int(x) for x in t.split(",")]


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_family(path: str, args):
    """Family file, either bare or the construct-command wrapper, read under
    the convention _conv settles, and the wrapper's declaration or None;
    both are decoded before anything is verified."""
    data = _read_json(path)
    if isinstance(data, dict) and "family" in data:
        declared = data.get("declared")
        return (family_from_json(data["family"],
                                 _conv(args, data.get("convention"))),
                None if declared is None else prediction_from_json(declared))
    return family_from_json(data, _conv(args)), None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _conv(args, file_conv: str | None = None):
    """Explicit flag wins, then the input file's convention, then default;
    a file's convention is checked even when the flag wins."""
    if file_conv is not None:
        file_conv = convention_from_name(file_conv)
    if args.convention is not None:
        return convention_from_name(args.convention)
    return file_conv or DEFAULT_CONVENTION


def _ring(args) -> Ring:
    """The ring of --ring or of the modulus --m; the parser allows one."""
    if args.ring is not None:
        return parse_ring_spec(args.ring)
    if args.m is None:
        raise UsageError("one of the arguments --ring --m is required")
    return ring_for_modulus(args.m)


def _expand(args):
    """Expand the --recipe file, else --family or --u by --ring or --m."""
    if args.recipe is not None:
        fixed = [name for name in ("ring", "m", "completion", "convention")
                 if getattr(args, name) is not None]
        if fixed:  # the recipe file records all four
            raise UsageError(
                f"argument --{fixed[0]}: not allowed with argument --recipe")
        return expand_hadamard_pdf(recipe_from_json(_read_json(args.recipe)))
    fam = (_load_family(args.family, args)[0] if args.family is not None
           else hadamard_pdf_from_hds(args.u, convention=_conv(args)).family)
    return expand_hadamard_pdf(make_recipe(
        fam, _ring(args), args.completion or COMPLETION_SINGLE))


# construct kind: (builder, the flags it needs, the other flags it reads);
# expand also reads --recipe | --family | --u, --ring | --m and a
# --completion with no default, so that --recipe can refuse it
_KINDS = {
    "complement": (lambda a: complement_pdf(
        parse_group_spec(a.group), _parse_block(a.block), _conv(a)),
        ["--group", "--block"], []),
    "double-sdf": (lambda a: double_sdf(_load_family(a.family, a)[0]),
                   ["--family"], []),
    "paley": (lambda a: paley_double_sdf(a.q, _conv(a)), ["--q"], []),
    "expand": (_expand, [], []),
    "corollary-hds": (lambda a: expand_from_hds(
        a.u, a.m, None if a.group is None else parse_group_spec(a.group),
        _conv(a)), ["--u", "--m"], ["--group", "--completion"]),
    "corollary-sporadic": (lambda a: expand_nonabelian32(a.m, _conv(a)),
                           ["--m"], ["--completion"]),
}
# add_argument keywords of each flag that a sub-parser declares by flags()
_FLAGS = {
    "--group": {}, "--ring": {}, "--q": {"type": int}, "--u": {"type": int},
    "--block": {"help": "difference-set elements, comma separated"},
    "--family": {"help": "input family JSON file"},
    "--recipe": {"help": "expansion recipe file"},
    "--m": {"type": int, "help": "odd modulus 2n+1"},
    "--completion": {"choices": COMPLETIONS, "default": COMPLETION_SINGLE},
    "--convention": {"choices": ["right", "left"]}, "--out": {},
}


def cmd_construct(args) -> int:
    result = args.build(args)
    if isinstance(result, tuple):  # the corollaries build both completions
        result = result[COMPLETIONS.index(args.completion)]
    _emit(canonical_dumps(result_to_json(result)), args.out)
    return 0 if result.certified else 2


def cmd_verify(args) -> int:
    fam, declared = _load_family(args.file, args)
    rep = verify(fam)
    _emit(canonical_dumps(report_to_json(rep)), args.out)
    if declared is not None:
        return 0 if declared.matches(rep) else 2
    return 0 if rep.ok else 2


def cmd_search_hds(args) -> int:
    group = parse_group_spec(args.group)
    bounds = SearchBounds(max_results=args.max_results,
                          time_budget_s=args.time_budget)
    found = search_hds(group, args.u, bounds, _conv(args))
    _emit(canonical_dumps({
        "group": group.descriptor(),
        "u": args.u,
        "results": [list(d) for d in found.results],
        "complete": found.complete,
        "nodes": found.nodes,
        "reports": [report_to_json(r) for r in found.reports],
    }), args.out)
    return 0


def cmd_search_y(args) -> int:
    ring = parse_ring_spec(args.ring)
    bounds = SearchBounds(time_budget_s=args.time_budget)
    res = max_unit_y_search(ring, bounds)
    _emit(canonical_dumps({
        "ring": ring.descriptor(),
        "max_size": res.max_size,
        "witness": list(res.witness),
        "exhaustive": res.exhaustive,
        "nodes": res.nodes,
    }), args.out)
    return 0


def cmd_catalog_list(args) -> int:
    lines = []
    for cert in certify_catalog():
        r = cert.report
        params = f"({r.v},{list(r.K)},{r.lambda_or_mu})" if r.ok else "invalid"
        lines.append(f"{cert.name} [{cert.convention.value}]: {r.kind} "
                     f"{params}{' Hadamard' if r.hadamard else ''}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_catalog_emit(args) -> int:
    try:
        fam = catalog_family(args.name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc
    _emit(canonical_dumps(family_to_json(fam)), args.out)
    return 0


def cmd_recipe(args) -> int:
    fam, _ = _load_family(args.family, args)
    rec = make_recipe(fam, _ring(args), args.completion)
    _emit(canonical_dumps(recipe_to_json(rec)), args.out)
    return 0


@cache  # parse_args leaves the parser as it was
def build_parser() -> Parser:
    """One sub-parser per command, construct kind and catalog action, each
    declaring only the flags it reads."""
    parser = Parser(prog="pdfam",
                    description="Construct, verify, and search partitioned "
                                "difference families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names, required=False):
        for name in names:
            p.add_argument(name, required=required, **_FLAGS[name])

    kinds = sub.add_parser("construct", help="build a family and certify it"
                           ).add_subparsers(dest="kind", required=True)
    for kind, (build, needs, reads) in _KINDS.items():
        p = kinds.add_parser(kind)
        flags(p, *needs, required=True)
        flags(p, *reads, "--convention", "--out")
        p.set_defaults(func=cmd_construct, build=build)
    expand = kinds.choices["expand"]
    flags(expand.add_mutually_exclusive_group(required=True),
          "--recipe", "--family", "--u")
    flags(expand.add_mutually_exclusive_group(), "--ring", "--m")
    expand.add_argument("--completion", choices=COMPLETIONS)

    p = sub.add_parser("verify", help="re-certify a family file")
    p.add_argument("file")
    flags(p, "--convention", "--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-hds", help="exhaustive difference-set search")
    flags(p, "--group", "--u", required=True)
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    flags(p, "--convention", "--out")
    p.set_defaults(func=cmd_search_hds)

    p = sub.add_parser("search-y", help="maximum unit-set search")
    flags(p, "--ring", required=True)
    p.add_argument("--time-budget", type=float, default=None)
    flags(p, "--out")
    p.set_defaults(func=cmd_search_y)

    actions = sub.add_parser("catalog", help="list or emit built-in families"
                             ).add_subparsers(dest="action", required=True)
    p = actions.add_parser("list")
    flags(p, "--out")
    p.set_defaults(func=cmd_catalog_list)
    p = actions.add_parser("emit")
    p.add_argument("name")
    flags(p, "--out")
    p.set_defaults(func=cmd_catalog_emit)

    p = sub.add_parser("recipe", help="build a canonical expansion recipe")
    flags(p, "--family", required=True)
    flags(p.add_mutually_exclusive_group(required=True), "--ring", "--m")
    flags(p, "--completion", "--convention", "--out")
    p.set_defaults(func=cmd_recipe)
    return parser


def _dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main(argv=None) -> int:
    return run_guarded(_dispatch, argv)


if __name__ == "__main__":
    sys.exit(main())
