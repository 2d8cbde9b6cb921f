import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pdfam.catalog import order32_family, trivial_hds_family
from pdfam.constructions import (Prediction, complement_pdf, expand_from_hds,
                                 expand_hadamard_pdf, expand_nonabelian32,
                                 make_recipe)
from pdfam.groups import (CyclicGroup, ElementOutOfRangeError, ProductGroup,
                          Semidirect32, make_group)
from pdfam.multisets import PDF, RELATIVE_PDF, make_family, verify
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
    block = np.array([9, 5, 5])  # repeated element survives the trip
    fam = make_family(g, [block], forbidden=[0, 7, 14, 21])
    back = family_from_json(family_to_json(fam))
    assert back == fam
    assert back.blocks[0].tolist().count(5) == 2
    assert back.forbidden == frozenset({0, 7, 14, 21})


def test_family_round_trip_semidirect():
    fam = order32_family()
    assert isinstance(fam.group, Semidirect32)
    back = family_from_json(family_to_json(fam))
    assert back == fam
    assert verify(back).kind == PDF


def _moved(text):
    """The family text with the second element of its first block moved
    to its last block: a near miss that fails certification."""
    doc = json.loads(text)
    blocks = doc["blocks"]
    blocks[-1] = sorted(blocks[-1] + [blocks[0].pop(1)])
    return canonical_dumps(doc)


# sha256 of each single-completion output's family text, taken before
# families were stored flat
_ROUND_TRIPS = {
    "order-1504": (lambda: expand_nonabelian32(47)[0].family, None,
                   "e8f80ab8ffb9aaacf996828e2d6e31bd"
                   "a15587939b4f8dbfda62b5dbf7c56fe0"),
    "order-1504 near miss": (lambda: expand_nonabelian32(47)[0].family,
                             _moved,
                             "ec9269ecb1d16e5ea0f70844046f70c3"
                             "43488f3a6fc379d1229e059146c03b19"),
    "order-400": (lambda: expand_from_hds(2, 25)[0].family, None,
                  "db3c090dbb7bccb86b625c44f6a68391"
                  "ff9f9ff68a8fbd3973dff6f47898643e"),
    "u=1 m=499": (lambda: expand_from_hds(1, 499)[0].family, None,
                  "8738f9224be748be8db03be476bd275e"
                  "47cde434cf85847956068c2d81de65c7"),
}


@pytest.mark.parametrize("name", list(_ROUND_TRIPS))
def test_family_text_round_trips_byte_for_byte(name):
    build, edit, digest = _ROUND_TRIPS[name]
    text = canonical_dumps(family_to_json(build()))
    if edit is not None:
        text = edit(text)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    back = family_from_json(json.loads(text))
    assert canonical_dumps(family_to_json(back)) == text


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


def test_a_numpy_order_certifies_and_encodes():
    # the order used to stay an np.int64 and fail to encode after certifying
    res = complement_pdf(CyclicGroup(np.int64(4)), [0])
    assert res.certified
    doc = json.loads(canonical_dumps(result_to_json(res)))
    assert doc["family"]["group"] == {"type": "cyclic", "n": 4}
    assert doc["declared"]["v"] == 4


def test_prediction_refuses_non_integers_as_its_decoder_does():
    with pytest.raises(ValueError, match=r"^v 28\.0 is not an integer$"):
        Prediction(PDF, 28.0, (2.0, 6.0, 4.0), 4.0)
    with pytest.raises(ValueError, match=r"^v 28\.0 is not an integer$"):
        prediction_from_json({"kind": PDF, "v": 28.0, "K": [2, 6],
                              "lambda_or_mu": 4})
    with pytest.raises(ValueError, match=r"^K \(2\.0, 6\.0, 4\.0\) is not "
                                         "an array of integers$"):
        Prediction(PDF, 28, (2.0, 6.0, 4.0), 4)
    with pytest.raises(ValueError, match="^h True is not an integer$"):
        Prediction(RELATIVE_PDF, 28, (2, 6), 4, h=True)


def test_recipe_refuses_a_float_f_map_as_its_decoder_does():
    rec = make_recipe(trivial_hds_family(), GaloisField(7))
    assert rec.f_map == (3, 3, 2, 6)
    floats = (3.0, 3.0, 2.0, 6.0)
    with pytest.raises(ValueError, match=r"^f_map \(3\.0, 3\.0, 2\.0, 6\.0\) "
                                         "is not an array of integers$"):
        replace(rec, f_map=floats)
    doc = recipe_to_json(rec)
    doc["f_map"] = list(floats)
    with pytest.raises(ValueError, match=r"^f_map \[3\.0, 3\.0, 2\.0, 6\.0\] "
                                         "is not an array of integers$"):
        recipe_from_json(doc)


@pytest.mark.parametrize("field", ["v", "K", "lambda_or_mu", "h"])
def test_prediction_stores_numpy_integers_as_ints(field):
    # a numpy field used to be kept and fail to encode
    ints = Prediction(RELATIVE_PDF, 28, (2, 2, 2, 6, 6, 6), 4, h=4)
    value = getattr(ints, field)
    numpy = replace(ints, **{field: tuple(map(np.int64, value))
                             if field == "K" else np.int64(value)})
    assert canonical_dumps(prediction_to_json(numpy)) == canonical_dumps(
        prediction_to_json(ints))


@pytest.mark.parametrize("field", ["y", "f_map", "starters"])
def test_recipe_stores_numpy_integers_as_ints(field):
    # numpy entries passed every recipe check and then failed to encode
    ints = make_recipe(trivial_hds_family(), GaloisField(7))
    entries = tuple(map(np.int64, getattr(ints, field)))
    numpy = replace(ints, **{field: entries})
    assert canonical_dumps(recipe_to_json(numpy)) == canonical_dumps(
        recipe_to_json(ints))


def _text_or_error(encode, value):
    """The text encode writes for value, or the type and message of what
    it raises."""
    try:
        return encode(value)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _stdlib(value):
    # the reference: canonical_dumps must write exactly this
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


_KEYS = st.one_of(st.integers(), st.booleans(), st.none(), st.floats())
# arrays of int arrays, as a family's blocks, whose rows may be empty,
# tuples, or hold a bool, a numpy integer or an int beyond int64
_INT_ROWS = st.lists(st.one_of(
    st.lists(st.integers(), min_size=1, max_size=5),
    st.lists(st.integers(), max_size=3).map(tuple),
    st.lists(st.one_of(st.integers(), st.booleans(),
                       st.integers(-9, 9).map(np.int64),
                       st.integers(2**63, 2**70)), max_size=4)),
    min_size=1, max_size=4)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(-2**63, 2**63 - 1), st.integers(),
              st.floats(), st.sampled_from([math.nan, math.inf, -math.inf,
                                            -0.0]),
              st.text(),
              st.sampled_from(["\u00e9\u4e2d\n", "\x00\x1f\t\"\\"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=6), _INT_ROWS,
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=12)


@seed(1504)
@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_canonical_dumps_matches_the_stdlib(value):
    assert _text_or_error(canonical_dumps, value) == _text_or_error(
        _stdlib, value)


_circular = []
_circular.append(_circular)


def test_canonical_dumps_raises_the_stdlib_error_on_a_circular_list():
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        canonical_dumps(_circular)


def test_a_position_beyond_int64_is_named_out_of_range():
    doc = {"group": {"type": "cyclic", "n": 7}, "blocks": [[0, 2 ** 64]]}
    with pytest.raises(ElementOutOfRangeError,
                       match=rf"^element {2 ** 64} outside 0\.\.6$"):
        family_from_json(doc)


def test_a_recipe_without_a_ring_names_the_missing_key():
    doc = recipe_to_json(make_recipe(trivial_hds_family(), GaloisField(7, 1)))
    del doc["ring"]
    with pytest.raises(ValueError, match="^missing key 'ring'$"):
        recipe_from_json(doc)


@pytest.mark.parametrize("value", [
    np.int64(3), [1, np.int64(2), 3], {"a": [1, 2], "b": np.int64(4)},
    set(), [[], {}, ()], {"a": {"b": []}, "c": [{}]}, _circular,
], ids=["numpy-top", "numpy-in-int-list", "numpy-in-dict", "set",
        "empty-in-list", "empty-in-dict", "circular"])
def test_canonical_dumps_matches_the_stdlib_on(value):
    assert _text_or_error(canonical_dumps, value) == _text_or_error(
        _stdlib, value)
