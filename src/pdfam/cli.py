"""Command-line front end.

Exit codes: 0 when the requested object certifies, 1 on bad input or a
construction-level error, 2 when an object was built but failed its
certification check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import catalog_family, catalog_names, certify_catalog
from .constructions import (COMPLETION_SINGLE, COMPLETIONS,
                            ConstructionError, complement_pdf, double_sdf,
                            expand_from_hds, expand_hadamard_pdf,
                            expand_nonabelian32, hadamard_pdf_from_hds,
                            make_recipe, paley_double_sdf, ring_for_modulus)
from .groups import (DEFAULT_CONVENTION, CyclicGroup, ElementOutOfRangeError,
                     ProductGroup, Semidirect32, convention_from_name,
                     make_group)
from .multisets import make_family, verify
from .rings import (EvenOrderError, GaloisField, NotPrimeError, ProductRing,
                    Ring, Zmod, factorize, make_ring)
from .search import OrderMismatchError, SearchBounds, max_unit_y_search, search_hds
from .serialize import (canonical_dumps, family_from_json, family_to_json,
                        prediction_from_json, recipe_from_json,
                        recipe_to_json, report_to_json, result_to_json)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input is exit 1, not argparse's 2
        raise UsageError(message)


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
        return [int(x) for x in json.loads(t)]
    return [int(x) for x in t.split(",") if x.strip() != ""]


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_family(path: str):
    """Family file, either bare or the construct-command wrapper; the
    wrapper's declaration is decoded before anything is verified."""
    data = _read_json(path)
    if isinstance(data, dict) and "family" in data:
        conv, declared = data.get("convention"), data.get("declared")
        return (family_from_json(data["family"]),
                None if conv is None else convention_from_name(conv),
                None if declared is None else prediction_from_json(declared))
    return family_from_json(data), None, None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(result, out: str | None) -> int:
    _emit(canonical_dumps(result_to_json(result)), out)
    return 0 if result.certified else 2


def _conv(args, file_conv=None):
    """Explicit flag wins, then the input file's convention, then default."""
    if args.convention is not None:
        return convention_from_name(args.convention)
    return file_conv or DEFAULT_CONVENTION


def cmd_construct(args) -> int:
    completion = args.completion or COMPLETION_SINGLE
    kind = args.kind
    if kind == "complement":
        if not args.group or args.block is None:
            raise UsageError("complement needs --group and --block")
        return _finish(
            complement_pdf(parse_group_spec(args.group),
                           _parse_block(args.block), _conv(args)), args.out)
    if kind == "double-sdf":
        if not args.family:
            raise UsageError("double-sdf needs --family FILE")
        fam, file_conv, _ = _load_family(args.family)
        return _finish(double_sdf(fam, _conv(args, file_conv)), args.out)
    if kind == "paley":
        if args.q is None:
            raise UsageError("paley needs --q PRIME")
        return _finish(paley_double_sdf(args.q, _conv(args)), args.out)
    if kind == "expand":
        if args.recipe:
            return _finish(expand_hadamard_pdf(recipe_from_json(
                _read_json(args.recipe))), args.out)
        if args.family:
            fam, file_conv, _ = _load_family(args.family)
        elif args.u is not None:
            fam = hadamard_pdf_from_hds(args.u, convention=_conv(args)).family
            file_conv = None
        else:
            raise UsageError("expand needs --recipe, --family, or --u")
        if args.ring:
            ring = parse_ring_spec(args.ring)
        elif args.m is not None:
            ring = ring_for_modulus(args.m)
        else:
            raise UsageError("expand needs --ring or --m")
        rec = make_recipe(fam, ring, completion,
                          convention=_conv(args, file_conv))
        return _finish(expand_hadamard_pdf(rec), args.out)
    if kind == "corollary-hds":
        if args.u is None or args.m is None:
            raise UsageError("corollary-hds needs --u and --m")
        group = parse_group_spec(args.group) if args.group else None
        pair = expand_from_hds(args.u, args.m, group, _conv(args))
        return _finish(pair[COMPLETIONS.index(completion)], args.out)
    if kind == "corollary-sporadic":
        if args.m is None:
            raise UsageError("corollary-sporadic needs --m")
        pair = expand_nonabelian32(args.m, _conv(args))
        return _finish(pair[COMPLETIONS.index(completion)], args.out)
    raise UsageError(f"unknown construct kind {kind!r}")


def cmd_verify(args) -> int:
    fam, file_conv, declared = _load_family(args.file)
    rep = verify(fam, _conv(args, file_conv))
    _emit(canonical_dumps(report_to_json(rep)), args.out)
    if declared is not None:
        return 0 if declared.matches(rep) else 2
    return 0 if rep.ok else 2


def cmd_search_hds(args) -> int:
    group = parse_group_spec(args.group)
    bounds = SearchBounds(max_results=args.max_results,
                          time_budget_s=args.time_budget)
    conv = _conv(args)
    found = search_hds(group, args.u, bounds, conv)
    reports = [report_to_json(verify(make_family(group, [list(d)]), conv))
               for d in found.results]
    _emit(canonical_dumps({
        "group": group.descriptor(),
        "u": args.u,
        "results": [list(d) for d in found.results],
        "complete": found.complete,
        "nodes": found.nodes,
        "reports": reports,
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


def cmd_catalog(args) -> int:
    if args.action == "list":
        lines = []
        for cert in certify_catalog():
            r = cert.report
            params = (f"({r.v},{list(r.K)},{r.lambda_or_mu})"
                      if r.ok else "invalid")
            lines.append(f"{cert.name} [{cert.convention.value}]: "
                         f"{r.kind} {params}"
                         f"{' Hadamard' if cert.hadamard else ''}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if not args.name:
        raise UsageError("catalog emit needs a NAME")
    try:
        fam = catalog_family(args.name)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    _emit(canonical_dumps(family_to_json(fam)), args.out)
    return 0


def cmd_recipe(args) -> int:
    fam, file_conv, _ = _load_family(args.family)
    if args.ring:
        ring = parse_ring_spec(args.ring)
    elif args.m is not None:
        ring = ring_for_modulus(args.m)
    else:
        raise UsageError("recipe needs --ring or --m")
    rec = make_recipe(fam, ring, args.completion or COMPLETION_SINGLE,
                      convention=_conv(args, file_conv))
    _emit(canonical_dumps(recipe_to_json(rec)), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pdfam",
                     description="Construct, verify, and search partitioned "
                                 "difference families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--convention", choices=["right", "left"],
                       default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="build a family and certify it")
    p.add_argument("kind", choices=["complement", "double-sdf", "paley",
                                    "expand", "corollary-hds",
                                    "corollary-sporadic"])
    p.add_argument("--group", default=None)
    p.add_argument("--ring", default=None)
    p.add_argument("--block", default=None,
                   help="difference-set elements, comma separated")
    p.add_argument("--family", default=None, help="input family JSON file")
    p.add_argument("--recipe", default=None, help="expansion recipe file")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="odd modulus 2n+1")
    p.add_argument("--completion", choices=list(COMPLETIONS), default=None)
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-certify a family file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-hds", help="exhaustive difference-set search")
    p.add_argument("--group", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_search_hds)

    p = sub.add_parser("search-y", help="maximum unit-set search")
    p.add_argument("--ring", required=True)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search_y)

    p = sub.add_parser("catalog", help="list or emit built-in families")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("recipe", help="build a canonical expansion recipe")
    p.add_argument("--family", required=True)
    p.add_argument("--ring", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--completion", choices=list(COMPLETIONS), default=None)
    common(p)
    p.set_defaults(func=cmd_recipe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConstructionError, OrderMismatchError, NotPrimeError,
            EvenOrderError, ElementOutOfRangeError, ValueError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
