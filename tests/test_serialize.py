import json

import numpy as np
import pytest

from pdfam.catalog import order32_family
from pdfam.constructions import (Prediction, expand_hadamard_pdf, make_recipe)
from pdfam.groups import CyclicGroup, ProductGroup, Semidirect32, make_group
from pdfam.multisets import PDF, RELATIVE_PDF, Multiset, make_family, verify
from pdfam.rings import GaloisField, make_ring
from pdfam.serialize import (canonical_dumps, family_from_json,
                             family_to_json, prediction_from_json,
                             prediction_to_json, recipe_from_json,
                             recipe_to_json, report_to_json, result_to_json)


def test_family_round_trip_plain():
    fam = make_family(CyclicGroup(4), [[0], [1, 2, 3]])
    doc = family_to_json(fam)
    back = family_from_json(doc)
    assert back == fam
    assert back.group == fam.group


def test_family_round_trip_forbidden_and_multiset_blocks():
    g = ProductGroup([CyclicGroup(4), CyclicGroup(7)])
    block = Multiset(g, [5, 5, 9])  # repeated element survives the trip
    fam = make_family(g, [block], forbidden=[0, 7, 14, 21])
    back = family_from_json(family_to_json(fam))
    assert back == fam
    assert back.blocks[0].mult(5) == 2
    assert back.forbidden == frozenset({0, 7, 14, 21})


def test_family_round_trip_semidirect():
    fam = order32_family()
    assert isinstance(fam.group, Semidirect32)
    back = family_from_json(family_to_json(fam))
    assert back == fam
    assert verify(back).kind == PDF


def test_group_descriptor_round_trip():
    for g in (CyclicGroup(6), ProductGroup([CyclicGroup(2), CyclicGroup(8)]),
              Semidirect32()):
        assert make_group(g.descriptor()) == g


def test_canonical_dumps_is_stable():
    doc = {"b": 1, "a": [2, 3], "c": {"y": None, "x": "s"}}
    one = canonical_dumps(doc)
    two = canonical_dumps(json.loads(one))
    assert one == two
    assert one.endswith("\n")
    assert one == canonical_dumps({"c": {"x": "s", "y": None}, "a": [2, 3],
                                   "b": 1})


def test_prediction_round_trip():
    p = Prediction(PDF, 32, (2, 2, 6, 22), 16)
    assert prediction_from_json(prediction_to_json(p)) == p
    q = Prediction(RELATIVE_PDF, 28, (2, 2, 2, 6, 6, 6), 4, h=4)
    assert prediction_from_json(prediction_to_json(q)) == q


def test_report_to_json_shape():
    rep = verify(order32_family())
    doc = report_to_json(rep)
    assert doc["kind"] == PDF
    assert doc["v"] == 32 and doc["lambda_or_mu"] == 16
    assert doc["K"] == [2, 2, 6, 22]
    assert doc["witness"] is None
    json.dumps(doc)  # plain-JSON serializable


def test_report_witness_serialized():
    rep = verify(make_family(CyclicGroup(5), [[0, 1]]))
    doc = report_to_json(rep)
    assert doc["kind"] == "Invalid"
    assert doc["witness"]["element"] == rep.witness.element
    assert doc["witness"]["context"] in ("difference-count", "partition")


def test_recipe_round_trip():
    fam = make_family(CyclicGroup(4), [[0], [1, 2, 3]])
    recipe = make_recipe(fam, GaloisField(7, 1))
    doc = recipe_to_json(recipe)
    back = recipe_from_json(doc)
    assert back == recipe
    assert make_ring(doc["ring"]) == recipe.ring
    # and the round-tripped recipe drives the construction identically
    a = expand_hadamard_pdf(recipe)
    b = expand_hadamard_pdf(back)
    assert canonical_dumps(result_to_json(a)) == canonical_dumps(
        result_to_json(b))


def test_result_to_json_carries_certification():
    fam = make_family(CyclicGroup(4), [[0], [1, 2, 3]])
    res = expand_hadamard_pdf(make_recipe(fam, GaloisField(7, 1)))
    doc = result_to_json(res)
    assert doc["certified"] is True
    assert doc["declared"]["kind"] == PDF
    assert doc["report"]["kind"] == PDF
    assert doc["convention"] in ("right", "left")
    assert doc["family"]["group"]["type"] == "product"


def test_family_from_json_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError)):
        family_from_json({"group": {"type": "nope"}, "blocks": []})


def test_family_decode_shares_one_group_per_descriptor():
    data = {"group": {"type": "table", "n": 2, "table": [[0, 1], [1, 0]]},
            "blocks": [[1]], "forbidden": None}
    first = family_from_json(data)
    again = family_from_json(json.loads(json.dumps(data, indent=2)))
    assert again.group is first.group
    assert not first.group.table.flags.writeable  # shared, so read-only
    # numpy integers have no JSON text: built afresh, not a crash
    numpy_n = family_from_json({"group": {"type": "cyclic", "n": np.int64(5)},
                                "blocks": [[1]], "forbidden": None})
    assert numpy_n.group == CyclicGroup(5)
