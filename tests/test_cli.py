import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pdfam
from pdfam import groups, serialize
from pdfam.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(pdfam.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_complement_trivial(capsys):
    code, doc = run_json(capsys, "construct", "complement",
                         "--group", "Z4", "--block", "0")
    assert code == 0
    assert doc["certified"] is True
    assert doc["report"]["kind"] == "PDF"
    assert (doc["report"]["v"], doc["report"]["K"],
            doc["report"]["lambda_or_mu"]) == (4, [1, 3], 2)


def test_construct_complement_rejects_non_difference_set(capsys):
    code, out = run(capsys, "construct", "complement",
                    "--group", "Z7", "--block", "0,1")
    assert code == 1


@pytest.mark.parametrize("group,block,v,K", [
    ("semidirect32", "0", 32, [1, 31]), ("Z3", "[0, 1]", 3, [1, 2]),
], ids=["semidirect32", "json-block"])
def test_construct_complement_reads_text_specs(capsys, group, block, v, K):
    code, doc = run_json(capsys, "construct", "complement",
                         "--group", group, "--block", block)
    assert code == 0 and doc["certified"] is True
    assert (doc["report"]["kind"], doc["report"]["v"],
            doc["report"]["K"]) == ("PDF", v, K)


def test_construct_missing_required_flag(capsys):
    assert main(["construct", "complement", "--group", "Z4"]) == 1


def test_construct_unknown_group_spec(capsys):
    assert main(["construct", "complement",
                 "--group", "Q8", "--block", "0"]) == 1


def test_construct_paley(capsys):
    code, doc = run_json(capsys, "construct", "paley", "--q", "7")
    assert code == 0
    assert doc["report"]["kind"] == "DifferenceMultiset"
    assert (doc["report"]["v"], doc["report"]["K"],
            doc["report"]["lambda_or_mu"]) == (7, [8], 8)


def test_construct_paley_bad_residue(capsys):
    assert main(["construct", "paley", "--q", "13"]) == 1
    assert main(["construct", "paley", "--q", "15"]) == 1


def test_double_sdf_from_file(tmp_path, capsys):
    code, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    assert code == 0
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, doc = run_json(capsys, "construct", "double-sdf",
                         "--family", str(path))
    assert code == 0
    assert doc["report"]["kind"] == "SDF"
    assert doc["report"]["lambda_or_mu"] == 8


def test_expand_single_certifies(tmp_path, capsys):
    code, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, doc = run_json(capsys, "construct", "expand",
                         "--family", str(path), "--m", "7")
    assert code == 0
    assert doc["certified"] is True
    assert doc["report"]["v"] == 28
    assert doc["report"]["K"] == [2, 2, 2, 4, 6, 6, 6]


def test_expand_per_block_fails_certification(tmp_path, capsys):
    code, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, doc = run_json(capsys, "construct", "expand",
                         "--family", str(path), "--m", "7",
                         "--completion", "per-block")
    assert code == 2
    assert doc["certified"] is False
    assert doc["report"]["kind"] == "Invalid"
    assert doc["report"]["witness"] is not None


def test_corollary_hds_small_divisor_rejected(capsys):
    code, out = run(capsys, "construct", "corollary-hds",
                    "--u", "2", "--m", "9")
    assert code == 1


@pytest.mark.parametrize("m", ["1000000000000000003",
                               "99999999999999999999"])
def test_corollary_hds_oversized_modulus_exits_1_at_once(capsys, m):
    # the prime hung in factorize's trial division, and the other exited
    # with numpy's "Maximum allowed size exceeded"
    started = time.monotonic()
    _exits_1_with_one_line(
        capsys, ["construct", "corollary-hds", "--u", "1", "--m", m],
        f"modulus {m} exceeds the bound 1000000")
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("argv,says", [
    # hung in factorize's trial division
    (["search-y", "--ring", "F1000000000000000003"],
     "field order 1000000000000000003 exceeds the bound 1000000"),
    # hung in GaloisField's orbit walk
    (["construct", "expand", "--u", "1", "--ring", "F1000000007"],
     "field order 1000000007 exceeds the bound 1000000"),
    # exited with numpy's "Unable to allocate 7.28 TiB"
    (["search-y", "--ring", "Z1000000000000"],
     "ring order 1000000000000 exceeds the bound 1000000"),
], ids=["search-y-field", "expand-field", "search-y-zmod"])
def test_an_oversized_ring_exits_1_at_once(capsys, argv, says):
    started = time.monotonic()
    _exits_1_with_one_line(capsys, argv, says)
    assert time.monotonic() - started < 1


def test_corollary_hds_u1(capsys):
    code, doc = run_json(capsys, "construct", "corollary-hds",
                         "--u", "1", "--m", "11")
    assert code == 0
    assert doc["report"]["v"] == 44
    assert doc["report"]["kind"] == "PDF"


def test_corollary_sporadic(capsys):
    code, doc = run_json(capsys, "construct", "corollary-sporadic",
                         "--m", "47")
    assert code == 0
    assert doc["report"]["v"] == 1504
    assert doc["report"]["lambda_or_mu"] == 32


def test_corollary_sporadic_small_m(capsys):
    assert main(["construct", "corollary-sporadic", "--m", "45"]) == 1


# sha256 of the stdout of construct corollary-sporadic --m 47 --convention
# left, taken while the convention was still passed alongside each family
_SPORADIC_LEFT_SHA256 = {
    "single":
        "c9901f0c8a8fe6dccc24cce1516e093204673fb8e7bc89139cd2f143f7e91a73",
    "per-block":
        "60a9bd04845c3e49f49f7e959242e4fe53cab4b8ba8b3c7b327aa97e4523063d",
}


@pytest.mark.parametrize("completion", sorted(_SPORADIC_LEFT_SHA256))
def test_corollary_sporadic_left_output_bytes_are_pinned(capsys, completion):
    code, out = run(capsys, "construct", "corollary-sporadic", "--m", "47",
                    "--convention", "left", "--completion", completion)
    assert code == (0 if completion == "single" else 2)
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _SPORADIC_LEFT_SHA256[completion])


# sha256 of the stdout of `recipe --family FILE --m M --completion C
# --convention V`, FILE the output of `catalog emit NAME`, taken while
# make_recipe and validate_recipe each still checked every recipe invariant
_RECIPE_SHA256 = {
    ("trivial-hds", 7, "single", "right"):
        "17272cc3f94b977dd2a4bd735d1d705267de15557a7be2f63d0f3a07fa9c08eb",
    ("trivial-hds", 7, "single", "left"):
        "5e52bc3cdb78f0ce7989fd02cbdd86a9a285d340984a53579ad402055739aff7",
    ("trivial-hds", 7, "per-block", "right"):
        "474454fe3215aa4a03af31a571d7c4f842eab5edfe78b8a32e4e7ee5e2e0663d",
    ("hds16", 121, "single", "right"):
        "b9d0f7844260443ba08380bc7784e3c1b1167570578801d5c434f27b3b56fa5d",
    ("hds16", 121, "single", "left"):
        "65ac1035b2dfdb8c4bec46a2fb8479bc27f90fb448731f6c2ccd60ebd91be753",
    ("hds16", 121, "per-block", "right"):
        "1c8b91c0f05d794a3f82a0ca5bba1cf58454c66ad5ca1589a02459be7bfb88ba",
    ("order-32", 47, "single", "right"):
        "fb67ac1488b91c2b847adbd1f0c25d4a28523c775459b87d90f0b666413f290a",
    ("order-32", 47, "single", "left"):
        "b4d787c50d0068688d20f4844b5028cd00e72b6fa87b9212c98ea447b80b04c9",
    ("order-32", 47, "per-block", "right"):
        "6ca15d86fa1d0dfd6e4dfca0f4903623cf91413704089c734c96133dea2facaa",
}


@pytest.mark.parametrize(
    "name,m,completion,convention", sorted(_RECIPE_SHA256),
    ids=["-".join(map(str, key)) for key in sorted(_RECIPE_SHA256)])
def test_recipe_output_bytes_are_pinned(tmp_path, capsys, name, m,
                                        completion, convention):
    fpath = tmp_path / "family.json"
    assert main(["catalog", "emit", name, "--out", str(fpath)]) == 0
    code, out = run(capsys, "recipe", "--family", str(fpath), "--m", str(m),
                    "--completion", completion, "--convention", convention)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _RECIPE_SHA256[name, m, completion, convention])


def test_left_recipe_replays_to_the_direct_bytes(tmp_path, capsys):
    fpath = tmp_path / "order32.json"
    assert main(["catalog", "emit", "order-32", "--out", str(fpath)]) == 0
    rpath = tmp_path / "recipe.json"
    assert main(["recipe", "--family", str(fpath), "--m", "47",
                 "--convention", "left", "--out", str(rpath)]) == 0
    assert json.loads(rpath.read_text())["convention"] == "left"
    _, via_recipe = run(capsys, "construct", "expand", "--recipe", str(rpath))
    _, direct = run(capsys, "construct", "corollary-sporadic", "--m", "47",
                    "--convention", "left")
    assert json.loads(via_recipe)["convention"] == "left"
    assert via_recipe == direct


def test_verify_reads_flag_then_file_convention_then_right(tmp_path, capsys):
    """Over Semidirect32 this family's first failing count differs by
    convention: 2 under the right one, 1 under the left."""
    family = {"group": {"type": "semidirect32"},
              "blocks": [[1, 10], [3, 12, 21]], "forbidden": None}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(family))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"family": family, "convention": "left"}))
    actual = {"right": 2, "left": 1}
    for path, flag, conv in ((bare, None, "right"), (bare, "left", "left"),
                             (wrapped, None, "left"),
                             (wrapped, "right", "right"),
                             (wrapped, "left", "left")):
        argv = ["verify", str(path)] + (["--convention", flag] if flag else [])
        code, rep = run_json(capsys, *argv)
        assert code == 2 and rep["kind"] == "Invalid"
        assert (rep["witness"]["element"], rep["witness"]["actual"]) == (
            9, actual[conv])


def test_library_paths_read_no_block_views(tmp_path, capsys, monkeypatch):
    """The catalog, the expansions and verify read a family's flat
    positions and offsets; certify_catalog once built every order-32
    block view through dataclasses.replace."""
    def refuse(family):
        raise AssertionError("family.blocks was read")

    monkeypatch.setattr(pdfam.DesignFamily, "blocks", property(refuse))
    assert len(pdfam.certify_catalog()) == 4
    for single, _ in (pdfam.expand_from_hds(1, 7),
                      pdfam.expand_nonabelian32(47)):
        assert single.certified
    code, doc = run_json(capsys, "construct", "corollary-hds",
                         "--u", "1", "--m", "7")
    assert code == 0
    path = tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    for conv in ("right", "left"):
        code, rep = run_json(capsys, "verify", str(path),
                             "--convention", conv)
        assert code == 0 and rep["kind"] == "PDF"


def test_verify_builds_one_plan_per_group_descriptor(tmp_path, capsys,
                                                     monkeypatch):
    planned, real_plan = [], groups.DifferencePlan

    def plan(group, convention):
        planned.append(group.order)
        return real_plan(group, convention)

    monkeypatch.setattr(groups, "DifferencePlan", plan)
    serialize._group_of.cache_clear()
    group = {"type": "product",
             "factors": [{"type": "cyclic", "n": 5}, {"type": "semidirect32"}]}
    for i, blocks in enumerate(([[1, 10]], [[3, 12, 21], [0, 7]])):
        path = tmp_path / f"family{i}.json"
        path.write_text(json.dumps({"group": group, "blocks": blocks,
                                    "forbidden": None}))
        code, rep = run_json(capsys, "verify", str(path))
        assert code == 2 and rep["kind"] == "Invalid"
    assert planned == [160]


def test_verify_round_trip(tmp_path, capsys):
    code, doc = run_json(capsys, "construct", "complement",
                         "--group", "Z4", "--block", "0")
    path = tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "verify", str(path))
    assert code == 0
    assert rep["kind"] == "PDF"


def test_verify_tampered_family(tmp_path, capsys):
    code, doc = run_json(capsys, "catalog", "emit", "order-32")
    doc["blocks"][2][0] = 9  # corrupt one block element
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "verify", str(path))
    assert code == 2
    assert rep["kind"] in ("Invalid", "PDF") and rep["kind"] == "Invalid"


def test_verify_wrapper_mismatched_declaration(tmp_path, capsys):
    code, doc = run_json(capsys, "construct", "complement",
                         "--group", "Z4", "--block", "0")
    doc["declared"]["lambda_or_mu"] = 3
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    code, _ = run_json(capsys, "verify", str(path))
    assert code == 2


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/file.json"]) == 1


def test_catalog_list(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) >= 3
    assert any("order-32" in l for l in lines)
    assert all("Hadamard" in l for l in lines)


def test_catalog_emit_unknown_name(capsys):
    assert main(["catalog", "emit", "no-such-family"]) == 1


def test_catalog_emit_unknown_name_message_is_unquoted(capsys):
    assert main(["catalog", "emit", "nope"]) == 1
    assert capsys.readouterr() == ("", (
        "error: unknown catalog entry 'nope'; "
        "choose from ['hds16', 'order-32', 'trivial-hds']\n"))


# sha256 of the stdout of `catalog list` and `catalog emit NAME`, taken while
# the catalog still built its Hadamard entries by hand
_CATALOG_SHA256 = {
    "list":
        "8d47360947551e03671b4bb8c1cb9136085499a2e8637be5f822c4ce3229d5b3",
    "trivial-hds":
        "231e589e9ac9783b619bb4eb4f1a697554f7f1a485064a5bf2b1c5b475324de9",
    "hds16":
        "d341af1c1709fcb13a800e4d312768148bb7be7c44ab401801dde3c9c7233512",
    "order-32":
        "fc58ce590d01efb593230bb76dd93f88207260ec309d3dd74c67df0a75be7943",
}


@pytest.mark.parametrize("name", sorted(_CATALOG_SHA256))
def test_catalog_output_bytes_are_pinned(capsys, name):
    argv = ["catalog", "list"] if name == "list" else ["catalog", "emit", name]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CATALOG_SHA256[name]


def test_search_hds_cli(capsys):
    code, doc = run_json(capsys, "search-hds", "--group", "Z16", "--u", "2")
    assert code == 0
    assert doc["results"] == [] and doc["complete"] is True
    code, doc = run_json(capsys, "search-hds", "--group", "Z4xZ4",
                         "--u", "2", "--max-results", "1")
    assert code == 0
    assert len(doc["results"]) == 1 and doc["complete"] is False
    assert doc["reports"][0]["kind"] == "DS"


@pytest.mark.parametrize("u", ["-1", "0"])
def test_search_hds_non_positive_u_exits_1(capsys, u):
    # u = -1 reported the (4,3,2) set [0, 1, 2] as a Hadamard set, exit 0
    _exits_1_with_one_line(capsys, ["search-hds", "--group", "Z4",
                                    "--u", u], "u must be positive")


@pytest.mark.parametrize("argv,says", [
    (["search-hds", "--group", "Z4xZ4", "--u", "2", "--max-results", "0"],
     "max results 0"),
    (["search-hds", "--group", "Z4xZ4", "--u", "2", "--time-budget", "-1"],
     "time budget -1.0"),
    (["search-y", "--ring", "Z25", "--time-budget", "-1"],
     "time budget -1.0"),
], ids=["hds-max-results-0", "hds-negative-budget", "y-negative-budget"])
def test_search_refuses_empty_bounds_exits_1(capsys, argv, says):
    # --max-results 0 exited 0 with one result and "complete": false
    _exits_1_with_one_line(capsys, argv, says)


@pytest.mark.parametrize("block,says", [
    ("0,,1", "block item '' is not an integer"),  # read as [0, 1]
    ("0,x", "block item 'x' is not an integer"),  # int()'s own message
], ids=["empty-item", "word-item"])
def test_construct_malformed_block_item_exits_1(capsys, block, says):
    _exits_1_with_one_line(capsys, ["construct", "complement", "--group",
                                    "Z4", "--block", block], says)


def test_construct_complement_repeated_element_exits_1(capsys):
    # the repeat used to be dropped, and {0} certified with exit 0
    _exits_1_with_one_line(capsys, ["construct", "complement", "--group",
                                    "Z4", "--block", "0,0"],
                           "element 0 is repeated")


def test_parser_is_built_once_and_left_unchanged(capsys):
    assert build_parser() is build_parser()
    code, doc = run_json(capsys, "construct", "paley", "--q", "7",
                         "--convention", "left")
    assert code == 0 and doc["convention"] == "left"
    code, doc = run_json(capsys, "construct", "paley", "--q", "7")
    assert code == 0 and doc["convention"] == "right"


def test_search_y_cli(capsys):
    code, doc = run_json(capsys, "search-y", "--ring", "Z25")
    assert code == 0
    assert doc["max_size"] == 2
    assert doc["exhaustive"] is True
    assert len(doc["witness"]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["construct", "paley", "--q", "7", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["report"]["v"] == 7


def test_output_is_deterministic(capsys):
    _, a = run(capsys, "construct", "corollary-hds", "--u", "1", "--m", "7")
    _, b = run(capsys, "construct", "corollary-hds", "--u", "1", "--m", "7")
    assert a == b


def test_recipe_then_expand_matches_direct(tmp_path, capsys):
    _, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    fpath = tmp_path / "fam.json"
    fpath.write_text(json.dumps(fam))
    code, out_recipe = run(capsys, "recipe", "--family", str(fpath),
                           "--m", "7")
    assert code == 0
    rpath = tmp_path / "recipe.json"
    rpath.write_text(out_recipe)
    _, via_recipe = run(capsys, "construct", "expand", "--recipe", str(rpath))
    _, direct = run(capsys, "construct", "expand",
                    "--family", str(fpath), "--m", "7")
    assert via_recipe == direct


def test_convention_flag_round_trip(capsys):
    code, doc = run_json(capsys, "construct", "complement", "--group", "Z4",
                         "--block", "0", "--convention", "left")
    assert code == 0
    assert doc["convention"] == "left"


@pytest.mark.parametrize("ring", ["F9", "GF13", "F3xF5"])
def test_ring_specs_parse(ring, capsys):
    code, doc = run_json(capsys, "search-y", "--ring", ring)
    assert code == 0
    assert doc["max_size"] >= 1


def test_search_y_rejects_convention(capsys):
    assert main(["search-y", "--ring", "Z25", "--convention", "left"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ring_spec_rejects_non_prime_power(capsys):
    assert main(["search-y", "--ring", "F6"]) == 1


_Z7 = {"type": "cyclic", "n": 7}


@pytest.mark.parametrize("doc,says", [
    ({"group": _Z7, "blocks": 5}, "blocks"),
    ([[0, 1], [2]], "JSON object"),
    ({"group": _Z7, "blocks": [[0, 0.5], [1, 2]]}, "integers"),
    ({"group": {"type": "cyclic"}, "blocks": [[0], [1, 2, 3]]}, "'n'"),
    ({"family": {"group": {"type": "cyclic", "n": 4},
                 "blocks": [[0], [1, 2, 3]]},
      "declared": {"kind": "Bogus", "v": 4, "K": [1, 3], "lambda_or_mu": 2}},
     "'Bogus'"),
    ({"group": _Z7, "blocks": [[0, 99], [1, 2]]}, "99"),
    ({"group": _Z7, "blocks": [[0], [1, 2]], "forbidden": [0.5]},
     "forbidden must be null or an array of integers"),
], ids=["blocks-not-list", "top-level-array", "float-element",
        "descriptor-without-n", "unknown-declared-kind", "out-of-range",
        "forbidden-not-integers"])
def test_verify_malformed_family_exits_1_with_one_line(tmp_path, capsys,
                                                       doc, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err


_Z4 = {"type": "cyclic", "n": 4}


# each message, and which of two faults is named, as pdfam verify gave
# them before families were stored flat
@pytest.mark.parametrize("doc,line", [
    ({"group": _Z7, "blocks": [[1, 2.5]]},
     "blocks must be arrays of integers"),
    ({"group": _Z7, "blocks": [[True, 1]]},
     "blocks must be arrays of integers"),
    ({"group": _Z7, "blocks": [[]]}, "empty block"),
    ({"group": _Z7, "blocks": []}, "family needs at least one block"),
    ({"group": _Z7, "blocks": [1, 2]}, "blocks must be arrays of integers"),
    ({"group": _Z7, "blocks": [[1, 99]]}, "element 99 outside 0..6"),
    ({"group": _Z7, "blocks": [[-1]]}, "element -1 outside 0..6"),
    ({"group": _Z4, "blocks": [[1], [3]], "forbidden": [0, 1]},
     "forbidden set is not a subgroup"),
    ({"group": _Z7, "blocks": [[], [1, 99]]}, "element 99 outside 0..6"),
    ({"group": _Z7, "blocks": [[99], [1.5]]},
     "blocks must be arrays of integers"),
    ({"group": _Z7, "blocks": [[1.5]], "forbidden": [0.5]},
     "blocks must be arrays of integers"),
    ({"group": _Z7, "blocks": [[99]], "forbidden": [0.5]},
     "forbidden must be null or an array of integers"),
    ({"group": _Z7, "blocks": [[1]], "forbidden": [0, 9]},
     "element 9 outside 0..6"),
    ({"group": _Z4, "blocks": [[]], "forbidden": [0, 1]}, "empty block"),
], ids=["float", "bool", "empty-block", "no-blocks", "flat-ints",
        "out-of-range", "negative", "forbidden-not-subgroup",
        "range-before-empty", "type-before-range", "block-type-first",
        "forbidden-type-before-range", "forbidden-out-of-range",
        "empty-before-subgroup"])
def test_verify_malformed_blocks_pinned(tmp_path, capsys, doc, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_construct_out_of_range_block_exits_1(capsys):
    assert main(["construct", "complement", "--group", "Z7",
                 "--block", "0,9"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _exits_1_with_one_line(capsys, argv, says):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err


def _table(table, **extra):
    return json.dumps({"type": "table", "table": table, **extra})


@pytest.mark.parametrize("argv,says", [
    (["construct", "double-sdf"],
     "the following arguments are required: --family"),
    (["construct", "paley"], "the following arguments are required: --q"),
    (["construct", "expand"],
     "one of the arguments --recipe --family --u is required"),
    (["construct", "expand", "--u", "1"],
     "one of the arguments --ring --m is required"),
    (["construct", "corollary-hds", "--u", "1"],
     "the following arguments are required: --m"),
    (["construct", "corollary-sporadic"],
     "the following arguments are required: --m"),
    (["catalog", "emit"], "the following arguments are required: name"),
    (["construct", "expand", "--u", "1", "--ring", "Q7"],
     "cannot parse ring spec 'Q7'"),
    (["construct", "expand", "--u", "1", "--ring", "Fx"],
     "cannot parse ring spec 'Fx'"),
    (["construct", "complement", "--block", "0", "--group",
      '{"type": "product", "factors": [5]}'],
     "group descriptor 5 is not an object"),
    (["construct", "expand", "--u", "1", "--ring",
      '{"type": "product", "factors": [5]}'],
     "ring descriptor 5 is not an object"),
    (["construct", "expand", "--u", "1", "--ring", '{"type": "foo"}'],
     "unknown ring descriptor type 'foo'"),
    (["construct", "complement", "--block", "0", "--group",
      _table([[0, 2], [2, 0]])], "table entries must lie in 0..n-1"),
    (["construct", "complement", "--block", "0", "--group",
      _table([[0, 1], [1, 1]])], "element 1 has no two-sided inverse"),
    (["construct", "complement", "--block", "0", "--group",
      _table([[0, 1], [1, 0]], n=3)],
     "declared order does not match table size"),
], ids=["double-sdf-no-family", "paley-no-q", "expand-no-source",
        "expand-no-ring", "corollary-hds-no-m", "corollary-sporadic-no-m",
        "catalog-emit-no-name", "ring-spec-Q7", "ring-spec-Fx",
        "group-factor-not-object", "ring-factor-not-object",
        "ring-type-foo", "table-entry-out-of-range", "table-no-inverse",
        "table-n-mismatch"])
def test_refused_input_exits_1_with_one_line(capsys, argv, says):
    _exits_1_with_one_line(capsys, argv, says)


@pytest.mark.parametrize("command", ["recipe", "construct expand"])
@pytest.mark.parametrize("m", ["1", "2", "0"])
def test_even_or_small_modulus_exits_1_with_one_line(tmp_path, capsys,
                                                     command, m):
    # --m 1 said "product needs at least one factor", --m 2 "patterned
    # starters need a ring of odd order", --m 0 "positive integers only"
    _, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    assert main([*command.split(), "--family", str(path), "--m", m]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: modulus must be odd and at least 3\n"


def test_verify_group_factors_not_array_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"type": "product", "factors": 5},
                                "blocks": [[0]]}))
    _exits_1_with_one_line(capsys, ["verify", str(path)], "factors")


def test_verify_declared_k_not_array_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "family": {"group": {"type": "cyclic", "n": 4},
                   "blocks": [[0], [1, 2, 3]]},
        "declared": {"kind": "PDF", "v": 4, "K": 5, "lambda_or_mu": 2}}))
    _exits_1_with_one_line(capsys, ["verify", str(path)], "K")


def test_expand_recipe_ring_factors_not_array_exits_1(tmp_path, capsys):
    code, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    code, rec = run_json(capsys, "recipe", "--family", str(fam_path),
                         "--m", "7")
    assert code == 0
    rec["ring"] = {"type": "product", "factors": 5}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(rec))
    _exits_1_with_one_line(capsys, ["construct", "expand", "--recipe",
                                    str(path)], "factors")


def test_construct_float_block_element_exits_1(capsys):
    _exits_1_with_one_line(capsys, ["construct", "complement", "--group",
                                    "Z4", "--block", "[0.5]"], "integers")


@pytest.mark.parametrize("n", [4.7, True, None], ids=["float", "bool", "null"])
def test_verify_cyclic_order_not_integer_exits_1(tmp_path, capsys, n):
    # int() truncated 4.7 to Z4, which certified with exit 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"type": "cyclic", "n": n},
                                "blocks": [[0], [1, 2, 3]]}))
    _exits_1_with_one_line(capsys, ["verify", str(path)], "n ")


@pytest.mark.parametrize("key,value", [
    ("v", None), ("v", 4.0), ("lambda_or_mu", True), ("h", 1.5),
    ("K", [1.0, 3]), ("K", [True, 3]),
])
def test_verify_declared_field_not_integer_exits_1(tmp_path, capsys, key,
                                                   value):
    declared = {"kind": "PDF", "v": 4, "K": [1, 3], "lambda_or_mu": 2}
    declared[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "family": {"group": {"type": "cyclic", "n": 4},
                   "blocks": [[0], [1, 2, 3]]},
        "declared": declared}))
    _exits_1_with_one_line(capsys, ["verify", str(path)], key)


@pytest.mark.parametrize("spec", [
    '{"type": "zmod", "n": 9.5}', '{"type": "gf", "p": 7, "k": null}',
    '{"type": "gf", "p": true}',
])
def test_ring_descriptor_field_not_integer_exits_1(capsys, spec):
    _exits_1_with_one_line(capsys, ["construct", "expand", "--u", "1",
                                    "--ring", spec], "is not an integer")


@pytest.mark.parametrize("argv,key", [
    (["construct", "complement", "--group", '{"type": "cyclic"}',
      "--block", "0"], "n"),
    (["construct", "complement", "--group", '{"type": "table"}',
      "--block", "0"], "table"),
    (["construct", "expand", "--u", "1", "--ring", '{"type": "gf"}'], "p"),
    (["construct", "expand", "--u", "1", "--ring", '{"type": "zmod"}'], "n"),
], ids=["cyclic-n", "table-table", "gf-p", "zmod-n"])
def test_descriptor_spec_missing_key_is_named(capsys, argv, key):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: missing key {key!r}\n")


@pytest.mark.parametrize("key,bad", [
    ("y", lambda v: [float(v[0])] + v[1:]),
    ("f_map", lambda v: [True] + v[1:]),
    ("starters", lambda v: None),
])
def test_expand_recipe_field_not_integers_exits_1(tmp_path, capsys, key, bad):
    path = _trivial_recipe_with(tmp_path, capsys, key, bad)
    _exits_1_with_one_line(capsys, ["construct", "expand", "--recipe",
                                    str(path)], key)


def _trivial_recipe_with(tmp_path, capsys, key, bad):
    """The canonical recipe of the trivial Hadamard PDF over F7, written to
    a file with recipe[key] replaced by bad(recipe[key])."""
    code, fam = run_json(capsys, "catalog", "emit", "trivial-hds")
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    code, rec = run_json(capsys, "recipe", "--family", str(fam_path),
                         "--m", "7")
    assert code == 0
    rec[key] = bad(rec[key])
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(rec))
    return path


@pytest.mark.parametrize("key,value", [
    ("starters", [1, 2, 99]), ("starters", [1, 2, -3]),
    ("y", [3, 2, 99]), ("y", [3, 2, -1]),
])
def test_expand_recipe_element_out_of_range_exits_1(tmp_path, capsys, key,
                                                    value):
    path = _trivial_recipe_with(tmp_path, capsys, key, lambda v: value)
    _exits_1_with_one_line(capsys, ["construct", "expand", "--recipe",
                                    str(path)],
                           f"element {value[-1]} outside 0..6")


def test_verify_table_group_entries_not_integers_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "group": {"type": "table", "table": [[0, 1], [1, 0.0]]},
        "blocks": [[0], [1]]}))
    _exits_1_with_one_line(capsys, ["verify", str(path)], "table")


def test_verify_ragged_table_group_exits_1(tmp_path, capsys):
    # numpy's "inhomogeneous shape" message used to reach the user
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "group": {"type": "table", "table": [[0, 1], [1]]},
        "blocks": [[0], [1]]}))
    _exits_1_with_one_line(capsys, ["verify", str(path)],
                           "table must be a nonempty square matrix")


def test_out_of_memory_exits_1_with_one_line():
    """A group too large to tally exhausts a 2 GiB address space, which
    used to end in numpy's traceback."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "pdfam", "construct", "complement",
         "--group", "Z100000000000", "--block", "0"],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


def _capped_pdfam(*argv) -> tuple[subprocess.CompletedProcess, float]:
    """pdfam argv run in a child capped at the 2 GiB address space of
    test_out_of_memory_exits_1_with_one_line, and its wall time."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pdfam", *argv], capture_output=True,
        text=True, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    return done, time.monotonic() - started


def _one_error_line(done: subprocess.CompletedProcess) -> str:
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    return done.stderr


def test_out_of_memory_below_the_grid_bound_exits_1_with_one_line(tmp_path):
    """A forbidden set over Z100000000000 is checked with an order-sized
    membership array before any tally: numpy's MemoryError, in one line."""
    path = tmp_path / "forbidden.json"
    path.write_text(json.dumps({"group": {"type": "cyclic",
                                          "n": 100000000000},
                                "blocks": [[0, 1]], "forbidden": [0]}))
    err = _one_error_line(_capped_pdfam("verify", str(path))[0])
    assert "difference grid" not in err


def test_oversized_tally_grid_exits_1_at_once(tmp_path):
    """[[0, 1]] over Z2^15 peaked at 360 MB, and each further Z2 factor
    triples the grid: Z2^30 is refused before any array is built."""
    path = tmp_path / "z2-30.json"
    path.write_text(json.dumps({"group": {"type": "product", "factors": [
        {"type": "cyclic", "n": 2}] * 30}, "blocks": [[0, 1]]}))
    done, elapsed = _capped_pdfam("verify", str(path))
    assert _one_error_line(done) == (
        f"error: difference grid of {3 ** 30} cells exceeds the bound "
        f"{groups.MAX_GRID_CELLS}\n")
    assert elapsed < 1


def test_oversized_hds_search_exits_1_at_once():
    """Z1600 (u = 20) would need 4 GB of pair counts, past int8, before
    its first node; it is refused before any table is built."""
    done, elapsed = _capped_pdfam("search-hds", "--group", "Z1600", "--u",
                                  "20", "--time-budget", "0")
    assert _one_error_line(done) == (
        "error: u = 20 is above 11, the largest u whose search counts fit "
        "int8\n")
    assert elapsed < 1


def test_paley_6007_certifies_under_100_mb():
    """One block of 6008 positions: its 36M pairs used to be tallied as
    one int64 stack, a 305 MB peak; chunks keep the peak flat.

    The child reads its peak from VmHWM: on Linux an exec'd child's
    ru_maxrss starts at the peak of the process that spawned it, here
    pytest's."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    child = ("import sys\n"
             "from pdfam.cli import main, peak_rss_mb\n"
             "code = main(['construct', 'paley', '--q', '6007'])\n"
             "print(peak_rss_mb())\n"
             "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    *out, peak_mb = done.stdout.splitlines()
    assert json.loads("\n".join(out))["certified"] is True
    assert int(peak_mb) < 100


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["catalog", "list"]) == 0
    want = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "pdfam", "catalog", "list"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0 and done.stdout == want


# every construct flag, and the ones each kind reads; the rest are stray
_CONSTRUCT_FLAGS = ("--group", "--ring", "--block", "--family", "--recipe",
                    "--q", "--u", "--m", "--completion", "--convention",
                    "--out")
_KIND_READS = {
    "complement": {"--group", "--block", "--convention", "--out"},
    "double-sdf": {"--family", "--convention", "--out"},
    "paley": {"--q", "--convention", "--out"},
    "expand": {"--recipe", "--family", "--u", "--ring", "--m",
               "--completion", "--convention", "--out"},
    "corollary-hds": {"--u", "--m", "--group", "--completion",
                      "--convention", "--out"},
    "corollary-sporadic": {"--m", "--completion", "--convention", "--out"},
}
# a valid invocation of each kind, FAMILY and RECIPE standing for files
_KIND_BASE = {
    "complement": ["--group", "Z4", "--block", "0"],
    "double-sdf": ["--family", "FAMILY"],
    "paley": ["--q", "7"],
    "expand": ["--family", "FAMILY", "--m", "7"],
    "corollary-hds": ["--u", "1", "--m", "7"],
    "corollary-sporadic": ["--m", "47"],
}
_FLAG_VALUE = {"--group": "Z4", "--ring": "F7", "--block": "0",
               "--family": "FAMILY", "--recipe": "RECIPE", "--q": "7",
               "--u": "1", "--m": "7", "--completion": "single",
               "--convention": "right", "--out": "OUT"}


@pytest.fixture
def files(tmp_path):
    """argv with FAMILY, RECIPE and OUT replaced by the trivial Hadamard
    PDF's family file, its recipe over F7 and an output path."""
    family, recipe = tmp_path / "family.json", tmp_path / "recipe.json"
    assert main(["catalog", "emit", "trivial-hds", "--out", str(family)]) == 0
    assert main(["recipe", "--family", str(family), "--m", "7",
                 "--out", str(recipe)]) == 0
    names = {"FAMILY": str(family), "RECIPE": str(recipe),
             "OUT": str(tmp_path / "out.json")}
    return lambda *argv: [names.get(a, a) for a in argv]


@pytest.mark.parametrize("kind", sorted(_KIND_BASE))
def test_each_kind_base_invocation_certifies(files, capsys, kind):
    assert main(files("construct", kind, *_KIND_BASE[kind])) == 0


@pytest.mark.parametrize("kind,flag", [
    (kind, flag) for kind in sorted(_KIND_READS)
    for flag in _CONSTRUCT_FLAGS if flag not in _KIND_READS[kind]])
def test_construct_refuses_a_flag_its_kind_does_not_read(files, capsys,
                                                          kind, flag):
    # each kind used to drop the flags it did not read and exit 0
    argv = files("construct", kind, *_KIND_BASE[kind], flag,
                 _FLAG_VALUE[flag])
    _exits_1_with_one_line(capsys, argv, f"unrecognized arguments: {flag}")


def test_catalog_list_refuses_a_name(capsys):
    _exits_1_with_one_line(capsys, ["catalog", "list", "order-32"],
                           "unrecognized arguments: order-32")


_CONFLICTS = [
    *[(["construct", "expand", "--recipe", "RECIPE", flag, _FLAG_VALUE[flag]],
       f"argument {flag}: not allowed with argument --recipe")
      for flag in ("--ring", "--m", "--completion", "--convention",
                   "--family", "--u")],
    (["construct", "expand", "--family", "FAMILY", "--u", "1", "--m", "7"],
     "argument --u: not allowed with argument --family"),
    (["construct", "expand", "--u", "1", "--ring", "F7", "--m", "7"],
     "argument --m: not allowed with argument --ring"),
    (["recipe", "--family", "FAMILY", "--ring", "F7", "--m", "7"],
     "argument --m: not allowed with argument --ring"),
]


@pytest.mark.parametrize("argv,says", _CONFLICTS,
                         ids=[" ".join(argv) for argv, _ in _CONFLICTS])
def test_conflicting_flags_exit_1(files, capsys, argv, says):
    # the recipe's own ring, completion and convention used to win silently
    _exits_1_with_one_line(capsys, files(*argv), says)


_ABBREVIATED = [
    # --m used to be read as --max-results 1: exit 0, "complete": false
    (["search-hds", "--group", "Z4xZ4", "--u", "2", "--m", "1"], "--m 1"),
    (["verify", "FAMILY", "--conv", "left"], "--conv left"),
    (["construct", "expand", "--family", "FAMILY", "--m", "7",
      "--comp", "per-block"], "--comp per-block"),
]


@pytest.mark.parametrize("argv,flag", _ABBREVIATED,
                         ids=[" ".join(argv) for argv, _ in _ABBREVIATED])
def test_abbreviated_flag_exits_1(files, capsys, argv, flag):
    _exits_1_with_one_line(capsys, files(*argv),
                           f"unrecognized arguments: {flag}")


def _readme_cli_commands() -> list[list[str]]:
    """The pdfam command lines of the README's CLI example block."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line)[1:] for line in block.split("```", 1)[0]
            .splitlines() if line.startswith("pdfam ")]


def test_readme_cli_examples_run(tmp_path):
    commands = _readme_cli_commands()
    assert len(commands) >= 10
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "pdfam", *argv],
                              cwd=tmp_path, capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, (argv, done.stderr)
