"""File formats: round-trip stability, precise errors, spec grammar."""

import json
import sys

import pytest

import altstar as st
from altstar.formats import (FormatError, algebra_from_dict, algebra_to_dict,
                             canonical_json, load_map_file, map_from_dict,
                             map_to_dict, resolve_algebra)
from altstar.scalars import MINUS_ONE, ONE, TWO, ZERO

BUILTINS = ["zorn", "matrix:2", "matrix:3", "cd:-1,-1",
            "dsum:matrix:2,matrix:2"]


@pytest.mark.parametrize("spec", BUILTINS)
def test_emit_parse_emit_is_stable(spec):
    a, idem = resolve_algebra(spec)
    emitted = canonical_json(algebra_to_dict(a, idem))
    b, idem2 = algebra_from_dict(json.loads(emitted))
    again = canonical_json(algebra_to_dict(b, idem2))
    assert again == emitted
    assert b.name == a.name and b.dim == a.dim
    assert b.basis_labels == a.basis_labels
    assert list(b.structure_entries()) == list(a.structure_entries())
    assert st.check_axioms(b).ok


def test_reparsed_builtin_multiplies_identically():
    a, idem = resolve_algebra("zorn")
    b, _ = algebra_from_dict(json.loads(canonical_json(
        algebra_to_dict(a, idem))))
    for i in range(8):
        for j in range(8):
            prod_a = a.basis_element(i) * a.basis_element(j)
            prod_b = b.basis_element(i) * b.basis_element(j)
            assert prod_a.coords == prod_b.coords


def test_matrix2_file_contents():
    a, idem = resolve_algebra("matrix:2")
    doc = algebra_to_dict(a, idem)
    assert doc["basis_labels"] == ["E11", "E12", "E21", "E22"]
    # E12 E21 = E11 appears as an explicit structure record
    assert {"i": 1, "j": 2, "k": 0, "c": "1"} in doc["structure"]
    assert doc["unit"] == ["1", "0", "0", "1"]
    assert doc["idempotents"]["e1"] == ["1", "0", "0", "0"]
    assert doc["idempotents"]["e2"] == ["0", "0", "0", "1"]


def test_structure_records_sorted():
    a, _ = resolve_algebra("zorn")
    doc = algebra_to_dict(a)
    keys = [(r["i"], r["j"], r["k"]) for r in doc["structure"]]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_malformed_scalar_error_names_field():
    a, idem = resolve_algebra("matrix:2")
    doc = algebra_to_dict(a, idem)
    doc["unit"][0] = "1/0"
    with pytest.raises((FormatError, st.ScalarError)) as exc:
        algebra_from_dict(doc)
    assert "unit[0]" in str(exc.value)


def test_duplicate_structure_key_rejected():
    a, _ = resolve_algebra("matrix:2")
    doc = algebra_to_dict(a)
    doc["structure"].append(dict(doc["structure"][0]))
    with pytest.raises(FormatError) as exc:
        algebra_from_dict(doc)
    assert "duplicate" in str(exc.value)


def test_missing_and_mistyped_fields_rejected():
    a, _ = resolve_algebra("matrix:2")
    base = algebra_to_dict(a)
    for key in ("name", "dim", "basis_labels", "unit", "star", "structure"):
        doc = {k: v for k, v in base.items() if k != key}
        with pytest.raises(FormatError) as exc:
            algebra_from_dict(doc)
        assert key in str(exc.value)
    doc = dict(base)
    doc["dim"] = "four"
    with pytest.raises(FormatError):
        algebra_from_dict(doc)
    doc = dict(base)
    doc["structure"] = [{"i": 0, "j": 0, "c": "1"}]  # k missing
    with pytest.raises(FormatError) as exc:
        algebra_from_dict(doc)
    assert "structure[0]" in str(exc.value)


def test_out_of_range_index_rejected():
    a, _ = resolve_algebra("matrix:2")
    doc = algebra_to_dict(a)
    doc["structure"][0] = {"i": 0, "j": 0, "k": 99, "c": "1"}
    with pytest.raises(FormatError):
        algebra_from_dict(doc)


# -- spec grammar --------------------------------------------------------------


def test_builtin_specs_resolve():
    a, idem = resolve_algebra("zorn")
    assert a.name == "zorn" and set(idem) == {"e1", "e2"}
    a, idem = resolve_algebra("matrix:3")
    assert a.dim == 9 and set(idem) == {"e1", "e2"}
    a, idem = resolve_algebra("matrix:1")
    assert a.dim == 1 and idem == {}
    a, idem = resolve_algebra("cd:-1,-1,-1")
    assert a.dim == 8 and idem == {}
    a, idem = resolve_algebra("dsum:matrix:2,zorn")
    assert a.dim == 12 and set(idem) == {"e1", "e2"}


def test_named_idempotents_are_symmetric_idempotents():
    for spec in BUILTINS:
        a, idem = resolve_algebra(spec)
        for name, coords in idem.items():
            info = st.classify_idempotent(a, a.element(coords))
            assert info.is_idempotent and info.is_symmetric, (spec, name)


def test_dsum_idempotents_are_block_units(dsum_m2_m2):
    _, idem = resolve_algebra("dsum:matrix:2,matrix:2")
    e1 = dsum_m2_m2.element(idem["e1"])
    e2 = dsum_m2_m2.element(idem["e2"])
    assert e1 + e2 == dsum_m2_m2.unit
    assert e1.coords[:4] == dsum_m2_m2.unit.coords[:4]
    assert all(c.is_zero() for c in e1.coords[4:])


def test_bad_specs_rejected(tmp_path):
    for bad in ("", "matrix:x", "matrix:", "cd:", "cd:0", "cd:0+1i",
                "dsum:matrix:2", "dsum:,matrix:2",
                "dsum:cd:-1,matrix:2", "dsum:dsum:zorn,zorn,zorn"):
        with pytest.raises((FormatError, st.ScalarError)):
            resolve_algebra(bad)
    with pytest.raises(FormatError):
        resolve_algebra(str(tmp_path / "missing.alg"))
    junk = tmp_path / "junk.alg"
    junk.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        resolve_algebra(str(junk))


def test_spec_falls_back_to_file(tmp_path):
    a, idem = resolve_algebra("zorn")
    path = tmp_path / "z.alg"
    path.write_text(canonical_json(algebra_to_dict(a, idem)),
                    encoding="utf-8")
    b, idem2 = resolve_algebra(str(path))
    assert b.name == "zorn" and set(idem2) == {"e1", "e2"}


# -- map files -----------------------------------------------------------------


def test_map_round_trip(tmp_path, zorn):
    phi = st.zorn_rotation_map(zorn)
    u1 = zorn.basis_element(2)
    phi = st.patched_map(phi, {u1: u1.scale(TWO)}, name="rot-patched")
    doc = map_to_dict(phi, "zorn", "zorn")
    psi, dom_idem = map_from_dict(json.loads(canonical_json(doc)))
    assert psi.name == "rot-patched"
    assert psi.linear_part == phi.linear_part
    assert psi.conjugates_scalars == phi.conjugates_scalars
    assert {x.coords for x in psi.patches} == {u1.coords}
    assert set(dom_idem) == {"e1", "e2"}
    assert map_to_dict(psi, "zorn", "zorn") == doc


def test_map_file_load(tmp_path, m2):
    phi = st.matrix_swap_conjugation(m2)
    path = tmp_path / "swap.map"
    path.write_text(canonical_json(map_to_dict(phi, "matrix:2", "matrix:2")),
                    encoding="utf-8")
    psi, _ = load_map_file(str(path))
    assert psi.linear_part == phi.linear_part
    probe = [ONE, TWO, MINUS_ONE, ZERO]
    assert psi(psi.domain.element(probe)).coords \
        == phi(m2.element(probe)).coords


def test_equal_map_specs_share_one_algebra(tmp_path, m2):
    path = tmp_path / "swap.map"
    doc = map_to_dict(st.matrix_swap_conjugation(m2), "matrix:2", "matrix:2")
    path.write_text(canonical_json(doc), encoding="utf-8")
    psi, _ = load_map_file(str(path))
    assert psi.domain is psi.codomain


def _deep(depth):
    return "[" * depth


LONG_INT = f"a number has more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("load,text,detail", [
    (st.load_algebra_file, _deep(200_000), "recursion"),
    (st.load_algebra_file, '{"dim": ' + "1" * 5000 + "}", LONG_INT),
    (st.load_algebra_file, '{"dim": ', "Expecting value: line 1 column 9"),
    (load_map_file, '{"name": "m", "domain": "zorn", "codomain": "zorn", '
                    '"matrix": ' + _deep(200_000), "recursion"),
    (load_map_file, '{"name": "m", "domain": "zorn", "codomain": "zorn", '
                    '"matrix": [[' + "1" * 5000 + "]]}", LONG_INT),
], ids=["algebra-nested", "algebra-long-int", "algebra-truncated",
        "map-nested", "map-long-int"])
def test_json_past_the_decoder_limits_is_a_format_error(tmp_path, load,
                                                          text, detail):
    # nesting past the recursion limit raises RecursionError, and an
    # integer past the digit limit a ValueError, from json.load itself; the
    # latter is reported in the file's terms, not as an interpreter setting
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load(str(path))
    assert "is not valid JSON" in str(exc.value)
    assert detail in str(exc.value)
    assert "set_int_max_str_digits" not in str(exc.value)


def test_map_file_errors(m2):
    good = map_to_dict(st.identity_map(m2), "matrix:2", "matrix:2")
    for key in ("domain", "codomain", "matrix"):
        doc = {k: v for k, v in good.items() if k != key}
        with pytest.raises(FormatError) as exc:
            map_from_dict(doc)
        assert key in str(exc.value)
    doc = dict(good)
    doc["matrix"] = doc["matrix"][:2]
    with pytest.raises(FormatError):
        map_from_dict(doc)
    doc = dict(good)
    doc["conjugates_scalars"] = "yes"
    with pytest.raises(FormatError):
        map_from_dict(doc)
    doc = dict(good)
    doc["patches"] = [{"in": ["1", "0", "0", "0"]}]
    with pytest.raises(FormatError) as exc:
        map_from_dict(doc)
    assert "out" in str(exc.value)


def test_canonical_json_is_byte_stable():
    a, idem = resolve_algebra("matrix:2")
    one = canonical_json(algebra_to_dict(a, idem))
    two = canonical_json(algebra_to_dict(*resolve_algebra("matrix:2")))
    assert one == two
    assert one.endswith("\n")
