"""JSON codecs for groups, rings, families, reports, and recipes.

Files are emitted through canonical_dumps (sorted keys, two-space indent,
trailing newline) so identical inputs produce byte-identical output.  A
family's own JSON has no convention; the construction and recipe wrappers
record the family's convention, and decoding hands it back to the family.
"""

from __future__ import annotations

import functools
import json

from .constructions import ConstructionResult, ExpansionRecipe, Prediction
from .groups import (DEFAULT_CONVENTION, DiffConvention, _field, _int_field,
                     _ints, convention_from_name, make_group)
from .multisets import (DesignFamily, VerificationReport, Witness,
                        make_family)
from .rings import make_ring


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def family_to_json(family: DesignFamily) -> dict:
    return {
        "group": family.group.descriptor(),
        "blocks": [b.positions() for b in family.blocks],
        "forbidden": (sorted(family.forbidden)
                      if family.forbidden is not None else None),
    }


@_decoder
def family_from_json(data: dict,
                     convention: DiffConvention = DEFAULT_CONVENTION
                     ) -> DesignFamily:
    """A family read under the given convention, which its JSON does not
    hold."""
    group = make_group(data["group"])
    blocks, forbidden = data["blocks"], data.get("forbidden")
    if not (isinstance(blocks, list) and all(map(_ints, blocks))):
        raise ValueError("blocks must be arrays of integers")
    if not (forbidden is None or _ints(forbidden)):
        raise ValueError("forbidden must be null or an array of integers")
    return make_family(group, blocks, forbidden=forbidden,
                       convention=convention)


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
