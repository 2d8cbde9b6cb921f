"""JSON codecs for groups, rings, families, reports, and recipes.

Files are emitted through canonical_dumps, whose text is byte-identical to
json.dumps(obj, sort_keys=True, indent=2) plus a newline, so identical
inputs produce byte-identical output; it joins an array of ints in one pass
where the stdlib's indented encoder steps once per entry in Python.  A
family's own JSON has no convention; the construction and recipe wrappers
record the family's convention, and decoding hands it back to the family.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii

from .constructions import ConstructionResult, ExpansionRecipe, Prediction
from .groups import (DEFAULT_CONVENTION, DiffConvention, _field, _int_field,
                     _ints, convention_from_name, make_group)
from .multisets import DesignFamily, VerificationReport, Witness, _checked
from .rings import make_ring


def canonical_dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for
    byte, with the same exception where it raises one.  null, true and
    false are written here, an array of ints is joined in one pass instead
    of one encoder step per entry, and an array of non-empty int arrays (a
    family's blocks) as one joined string per inner array."""
    try:
        return _write(obj, "") + "\n"
    except RecursionError:  # circular or very deep: the stdlib's answer
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(x, pad: str) -> str:
    """x as the stdlib's sort_keys=True, indent=2 text at indentation pad.

    Exact ints and strs, None, True, False, arrays and str-keyed objects
    are written here; any other value goes to the stdlib, re-indented,
    which is exact because JSON text holds no raw newline inside a string.
    """
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    inner = pad + "  "
    sep = ",\n" + inner
    if (t is list or t is tuple) and x:
        types = set(map(type, x))
        if types == {int}:
            body = sep.join(map(int.__repr__, x))
        elif (types <= {list, tuple} and all(x)
              and set(map(type, chain.from_iterable(x))) == {int}):
            # one joined string per row, and the rows joined in one pass
            deeper = inner + "  "
            body = f"\n{inner}]{sep}[\n{deeper}".join(
                [f",\n{deeper}".join(map(int.__repr__, row)) for row in x])
            return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{pad}]"
        else:
            body = sep.join([_write(v, inner) for v in x])
        return f"[\n{inner}{body}\n{pad}]"
    if t is dict and set(map(type, x)) == {str}:
        body = sep.join([f"{encode_basestring_ascii(k)}: {_write(x[k], inner)}"
                         for k in sorted(x)])
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _decoder(fn):
    """Decode a JSON object; a missing key is named in a ValueError."""
    @functools.wraps(fn)
    def decode(data, *args):
        if not isinstance(data, dict):
            raise ValueError(f"a {type(data).__name__} is not a JSON object")
        try:
            return fn(data, *args)
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
    return decode


def _int_array(data: dict, key: str) -> list[int]:
    return _field(data, key, _ints, "an array of integers")


@functools.lru_cache(maxsize=64)
def _group_of(text: str):
    """One group per canonical descriptor text, sharing its plans."""
    return make_group(json.loads(text))


def family_to_json(family: DesignFamily) -> dict:
    flat = family.positions.tolist()
    return {
        "group": family.group.descriptor(),
        "blocks": [flat[a:b] for a, b in pairwise(family.offsets.tolist())],
        "forbidden": (sorted(family.forbidden)
                      if family.forbidden is not None else None),
    }


@_decoder
def family_from_json(data: dict,
                     convention: DiffConvention = DEFAULT_CONVENTION
                     ) -> DesignFamily:
    """A family read under the given convention, which its JSON does not
    hold; the types of all its positions are checked here in one pass."""
    try:
        text = json.dumps(data["group"], sort_keys=True)
    except TypeError:  # numpy integers from Python have no JSON text
        group = make_group(data["group"])
    else:
        group = _group_of(text)
    blocks, forbidden = data["blocks"], data.get("forbidden")
    if not (type(blocks) is list and set(map(type, blocks)) <= {list, tuple}
            and _ints(flat := list(chain.from_iterable(blocks)))):
        raise ValueError("blocks must be arrays of integers")
    if not (forbidden is None or _ints(forbidden)):
        raise ValueError("forbidden must be null or an array of integers")
    return _checked(group, flat, list(map(len, blocks)), forbidden,
                    convention)


def witness_to_json(w: Witness | None) -> dict | None:
    if w is None:
        return None
    return {
        "element": w.element,
        "coords": list(w.coords),
        "expected": w.expected,
        "actual": w.actual,
        "context": w.context,
    }


def report_to_json(report: VerificationReport) -> dict:
    return {
        "kind": report.kind,
        "v": report.v,
        "h": report.h,
        "K": None if report.K is None else list(report.K),
        "lambda_or_mu": report.lambda_or_mu,
        "partition_target": report.partition_target,
        "witness": witness_to_json(report.witness),
    }


def prediction_to_json(pred: Prediction) -> dict:
    return {
        "kind": pred.kind,
        "v": pred.v,
        "K": list(pred.K),
        "lambda_or_mu": pred.lambda_or_mu,
        "h": pred.h,
    }


@_decoder
def prediction_from_json(data: dict) -> Prediction:
    return Prediction(data["kind"], _int_field(data, "v"),
                      tuple(_int_array(data, "K")),
                      _int_field(data, "lambda_or_mu"),
                      _int_field(data, "h", 1))


def result_to_json(result: ConstructionResult) -> dict:
    return {
        "family": family_to_json(result.family),
        "declared": prediction_to_json(result.predicted),
        "report": report_to_json(result.report),
        "certified": result.certified,
        "convention": result.family.convention.value,
    }


def recipe_to_json(recipe: ExpansionRecipe) -> dict:
    return {
        "pdf": family_to_json(recipe.pdf),
        "ring": recipe.ring.descriptor(),
        "y": list(recipe.y),
        "f_map": list(recipe.f_map),
        "starters": list(recipe.starters),
        "completion": recipe.completion,
        "convention": recipe.pdf.convention.value,
    }


@_decoder
def recipe_from_json(data: dict) -> ExpansionRecipe:
    return ExpansionRecipe(
        pdf=family_from_json(data["pdf"],
                             convention_from_name(data["convention"])),
        ring=make_ring(data["ring"]),
        y=tuple(_int_array(data, "y")),
        f_map=tuple(_int_array(data, "f_map")),
        starters=tuple(_int_array(data, "starters")),
        completion=data["completion"],
    )
