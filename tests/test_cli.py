import json

import pytest

from pdfam.cli import main


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


def test_search_hds_cli(capsys):
    code, doc = run_json(capsys, "search-hds", "--group", "Z16", "--u", "2")
    assert code == 0
    assert doc["results"] == [] and doc["complete"] is True
    code, doc = run_json(capsys, "search-hds", "--group", "Z4xZ4",
                         "--u", "2", "--max-results", "1")
    assert code == 0
    assert len(doc["results"]) == 1 and doc["complete"] is False
    assert doc["reports"][0]["kind"] == "DS"


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
], ids=["blocks-not-list", "top-level-array", "float-element",
        "descriptor-without-n", "unknown-declared-kind", "out-of-range"])
def test_verify_malformed_family_exits_1_with_one_line(tmp_path, capsys,
                                                       doc, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err


def test_construct_out_of_range_block_exits_1(capsys):
    assert main(["construct", "complement", "--group", "Z7",
                 "--block", "0,9"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
