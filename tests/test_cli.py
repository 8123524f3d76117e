"""Command-line surface: exit codes, report shapes, byte determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as hst

import altstar as st
from altstar import algebra, linalg
from altstar.cli import main as cli_main
from altstar.formats import canonical_json, map_to_dict
from altstar.jordan import MAX_ARITY
from altstar.sampling import derive_rng
from altstar.scalars import Scalar


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(args))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(args):
    code, out, err = run(args)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


# -- gen / check ---------------------------------------------------------------


def _gen_file(tmp_path, spec, name):
    """The document gen prints for spec, saved as an algebra file."""
    code, out, err = run(["gen", spec])
    assert code == 0 and err == ""
    path = tmp_path / name
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_gen_then_check_round_trip(tmp_path):
    path = _gen_file(tmp_path, "zorn", "z.alg")
    code, doc = run_json(["check", path])
    assert code == 0
    assert doc["ok"] is True
    assert doc["algebra"] == "zorn" and doc["dim"] == 8


def test_gen_to_stdout_is_loadable_and_stable():
    code1, out1, _ = run(["gen", "matrix:2"])
    code2, out2, _ = run(["gen", "matrix:2"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["idempotents"]["e1"] == ["1", "0", "0", "0"]


def test_gen_writes_no_file(tmp_path):
    # every command prints its document; redirect stdout to save it
    code, out, err = run(["gen", "zorn", "-o", str(tmp_path / "z.alg")])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        "altstar: error: unrecognized arguments: -o")
    assert list(tmp_path.iterdir()) == []


def test_check_detects_violation_with_exit_1():
    code, doc = run_json(["check", "cd:-1,-1,-1,-1"])
    assert code == 1
    assert doc["ok"] is False
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert failing
    assert all(c["witness"] is not None for c in failing)


def test_check_accepts_builtin_spec():
    code, doc = run_json(["check", "dsum:matrix:2,zorn"])
    assert code == 0 and doc["ok"] is True


# -- peirce / spade --------------------------------------------------------------


def test_peirce_report_on_zorn():
    code, doc = run_json(["peirce", "zorn", "--samples", "40",
                          "--seed", "3"])
    assert code == 0 and doc["ok"] is True
    assert doc["component_dims"] == {"11": 1, "12": 3, "21": 3, "22": 1}
    assert doc["offdiag_product_witness"] is not None


def test_peirce_accepts_inline_coordinates():
    code, doc = run_json(["peirce", "matrix:2",
                          "--e1", "1,0,0,0", "--samples", "10",
                          "--seed", "1"])
    assert code == 0
    assert doc["component_dims"] == {"11": 1, "12": 1, "21": 1, "22": 1}


def test_peirce_unknown_idempotent_name_is_input_error():
    code, out, err = run(["peirce", "cd:-1,-1", "--e1", "e1"])
    assert code == 2
    assert "unknown idempotent name" in err


def test_spade_report_shape():
    code, doc = run_json(["spade", "zorn", "--e", "e1"])
    assert code == 0
    assert doc["spade"] == {"e1": True, "e2": True}
    assert doc["witnesses"] == {"e1": None, "e2": None}


def test_spade_failure_carries_witness(tmp_path):
    path = _gen_file(tmp_path, "dsum:matrix:2,matrix:2", "ds.alg")
    code, doc = run_json(["spade", path, "--e", "e1"])
    assert code == 1
    assert doc["spade"] == {"e1": False, "e2": False}
    assert doc["witnesses"]["e1"] is not None


# -- qprod -----------------------------------------------------------------------


def test_qprod_frozen_value():
    code, doc = run_json(["qprod", "matrix:2", "--args", "0,1,0,0;0,1,0,0"])
    assert code == 0
    assert doc["n"] == 2  # the arity is the number of --args vectors
    assert doc["result"] == ["1", "0", "0", "0"]  # {E12, E12} = E11


def test_qprod_takes_no_arity_option():
    code, out, err = run(["qprod", "matrix:2", "--n", "2",
                          "--args", "0,1,0,0;0,1,0,0"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == ("altstar: error: unrecognized "
                                    "arguments: --n 2")


def test_qprod_wrong_vector_length_is_input_error():
    code, out, err = run(["qprod", "matrix:2", "--args", "1,0"])
    assert code == 2 and "expected 4" in err


def test_qprod_arity_is_bounded_before_the_algebra_and_the_vectors():
    code, doc = run_json(["qprod", "matrix:1", "--args",
                          ";".join(["1"] * MAX_ARITY)])
    assert code == 0 and doc["n"] == MAX_ARITY
    # q_m(1, ..., 1) = 2^(m-1)
    assert doc["result"] == [str(2 ** (MAX_ARITY - 1))]
    for spec, vector in (("matrix:1", "1"), ("no-such-algebra", "x,y")):
        code, out, err = run(["qprod", spec, "--args",
                              ";".join([vector] * (MAX_ARITY + 1))])
        assert code == 2 and out == ""
        assert err == (f"error: --args: at most {MAX_ARITY} vectors, "
                       f"got {MAX_ARITY + 1}\n")


# -- lemmas ----------------------------------------------------------------------


def test_lemmas_reports_and_is_deterministic():
    args = ["lemmas", "zorn", "--e1", "e1", "--n-min", "2", "--n-max", "3",
            "--samples", "10", "--seed", "42"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["derived_all_ok"] is True
    ids = [e["id"] for e in doc["entries"]]
    assert ids[0] == "ID-B" and "ID-L" in ids
    idl = next(e for e in doc["entries"] if e["id"] == "ID-L")
    n3 = next(r for r in idl["runs"] if r["n"] == 3)
    assert n3["derived_ok"] is True
    assert n3["verbatim_match"] is False
    assert n3["display_counterexample"] is not None


def test_lemmas_range_validation():
    code, out, err = run(["lemmas", "zorn", "--n-min", "1", "--n-max", "3"])
    assert code == 2


# -- mapcheck --------------------------------------------------------------------


def _write_map(tmp_path, phi, name):
    path = tmp_path / name
    path.write_text(canonical_json(map_to_dict(phi, "zorn", "zorn")),
                    encoding="utf-8")
    return str(path)


def test_mapcheck_positive(tmp_path, zorn):
    path = _write_map(tmp_path, st.zorn_rotation_map(zorn), "rot.map")
    code, doc = run_json(["mapcheck", path, "--n", "3",
                          "--samples", "60", "--seed", "2"])
    assert code == 0
    assert doc["refuted"] is False
    assert doc["unital"] is True
    assert doc["jordan_condition"]["refuted"] is False
    assert all(c["refuted"] is False for c in doc["isomorphism_checks"])


def test_a_map_that_fixes_e1_builds_one_peirce_system(tmp_path, zorn, m2,
                                                      monkeypatch):
    # the rotation fixes e1, so its image system is the domain system; the
    # swap sends E11 to E22 and needs a second one
    built = []
    init = st.PeirceSystem.__init__

    def counted(self, algebra, e1):
        built.append(e1)
        init(self, algebra, e1)

    monkeypatch.setattr(st.PeirceSystem, "__init__", counted)
    rot = _write_map(tmp_path, st.zorn_rotation_map(zorn), "rot.map")
    swap = tmp_path / "swap.map"
    swap.write_text(canonical_json(map_to_dict(
        st.matrix_swap_conjugation(m2), "matrix:2", "matrix:2")),
        encoding="utf-8")
    counts = []
    for path in (rot, str(swap)):
        built.clear()
        code, _ = run_json(["mapcheck", path, "--samples", "20"])
        assert code == 0
        counts.append(len(built))
    assert counts == [1, 2]


def test_mapcheck_decides_the_load_time_laws_once(tmp_path, m2,
                                                 monkeypatch):
    # the swap sends E11 to E22, so its image system is a second build on
    # matrix:2, and both map checkers gate matrix:2 as their codomain; the
    # laws are decided at the first build alone
    decided = []
    for name in ("check_unit", "check_involution"):
        def counted(a, check=getattr(algebra, name), name=name):
            decided.append((name, a.name))
            return check(a)
        monkeypatch.setattr(algebra, name, counted)
    swap = tmp_path / "swap.map"
    swap.write_text(canonical_json(map_to_dict(
        st.matrix_swap_conjugation(m2), "matrix:2", "matrix:2")),
        encoding="utf-8")
    code, _ = run_json(["mapcheck", str(swap), "--samples", "20"])
    assert code == 0
    assert decided == [("check_unit", "matrix:2"),
                       ("check_involution", "matrix:2")]


def test_mapcheck_negative_and_deterministic(tmp_path, zorn):
    u1 = zorn.basis_element(2)
    bad = st.patched_map(st.identity_map(zorn), {u1: u1.scale(st.TWO)},
                         name="patched-double")
    path = _write_map(tmp_path, bad, "bad.map")
    args = ["mapcheck", path, "--n", "3", "--samples", "200", "--seed", "2"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 1
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["refuted"] is True
    assert doc["jordan_condition"]["witness"] is not None


def test_mapcheck_rejects_nonunital(tmp_path, zorn):
    path = _write_map(tmp_path, st.scale_map(zorn, st.TWO), "double.map")
    code, out, err = run(["mapcheck", path])
    assert code == 2 and "unital" in err


# -- usage errors ----------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    code, out, err = run(["frobnicate"])
    assert code == 2
    assert "usage" in err


def test_unknown_flag_exits_2():
    code, out, err = run(["check", "zorn", "--bogus"])
    assert code == 2


def test_missing_file_exits_2():
    code, out, err = run(["check", "/nonexistent/path.alg"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command", ["check", "mapcheck"])
def test_file_that_is_not_utf8_exits_2(tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    code, out, err = run([command, str(path)])
    assert code == 2
    assert err.startswith("error:") and "not valid JSON" in err
    assert out == ""


@pytest.mark.parametrize("command,text", [
    ("check", "[" * 200_000),
    ("check", '{"dim": ' + "1" * 5000 + "}"),
    ("mapcheck", '{"domain": "zorn", "codomain": "zorn", "matrix": '
                 + "[" * 200_000),
], ids=["algebra-nested", "algebra-long-int", "map-nested"])
def test_file_past_the_json_decoder_limits_exits_2(tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run([command, str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not valid JSON" in err


def test_scalar_past_the_digit_limit_exits_2(tmp_path):
    long = "1" * 5000
    code, out, err = run(["check", "cd:" + long])
    assert (code, out) == (2, "")
    assert err.startswith("error: cd gamma[0]: ") and "digits" in err
    _, doc = run_json(["gen", "matrix:2"])
    doc["structure"][0]["c"] = long
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["check", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: structure[0].c: ") and "digits" in err
    assert err.count("\n") == 1 and long not in err


def test_bad_builtin_parameter_exits_2():
    code, out, err = run(["gen", "matrix:0"])
    assert code == 2


@pytest.mark.parametrize("command", [["gen", "matrix:9"],
                                     ["check", "dsum:zorn,matrix:9"]],
                         ids=["alone", "dsum-part"])
def test_matrix_size_is_bounded(command):
    code, out, err = run(command)
    assert code == 2
    assert "K <= 8" in err
    assert out == ""


@pytest.mark.parametrize("source", ["dsum", "file"])
def test_dimension_is_bounded(tmp_path, source):
    # each dsum part is within the bound; their sum, 128, is not
    command = (["gen", "dsum:matrix:8,matrix:8"] if source == "dsum"
               else ["check", _matrix2_file(tmp_path, "big.alg", dim=65)])
    code, out, err = run(command)
    assert code == 2
    assert "at most 64" in err
    assert out == ""


@pytest.mark.parametrize("dim", [-3, 0])
def test_dimension_below_one_gets_one_message(tmp_path, dim):
    code, out, err = run(["check", _matrix2_file(tmp_path, "neg.alg",
                                                 dim=dim)])
    assert code == 2 and out == ""
    assert "dim must be positive" in err


def test_duplicate_patch_inputs_exit_2(tmp_path, zorn):
    u1 = zorn.basis_element(2)
    phi = st.patched_map(st.identity_map(zorn), {u1: u1.scale(st.TWO)})
    doc = map_to_dict(phi, "zorn", "zorn")
    # the same input again, with another output
    doc["patches"].append({"in": doc["patches"][0]["in"],
                           "out": ["0", "0", "3", "0", "0", "0", "0", "0"]})
    path = tmp_path / "dup.map"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, err = run(["mapcheck", str(path)])
    assert code == 2
    assert "duplicate" in err and "patches[0]" in err and "patches[1]" in err
    assert out == ""


@pytest.mark.parametrize("patches", [5, "none", {"in": [], "out": []}],
                         ids=["int", "str", "object"])
def test_patches_that_are_not_a_list_exit_2(tmp_path, zorn, patches):
    doc = map_to_dict(st.zorn_rotation_map(zorn), "zorn", "zorn")
    doc["patches"] = patches
    path = tmp_path / "bad-patches.map"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, err = run(["mapcheck", str(path)])
    assert code == 2
    assert err.startswith("error:") and "'patches' must be a list" in err
    assert out == ""


def _matrix2_file(tmp_path, name, **overrides):
    """The matrix:2 algebra file with some top-level fields replaced."""
    doc = json.loads(run(["gen", "matrix:2"])[1])
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(canonical_json(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("source", ["spec", "file"])
def test_malformed_scalar_literal_exits_2(tmp_path, source):
    target = "cd:1/0" if source == "spec" else _matrix2_file(
        tmp_path, "m2.alg", unit=["1/0", "0", "0", "1"])
    code, out, err = run(["check", target])
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def _identity_map_file(tmp_path, a, domain, codomain):
    """The identity map of a, written with the given domain and codomain."""
    path = tmp_path / "id.map"
    path.write_text(canonical_json(map_to_dict(st.identity_map(a), domain,
                                               codomain)), encoding="utf-8")
    return str(path)


def _run_on_algebra_file(tmp_path, command, path):
    """(exit code, stdout, stderr) of command on the algebra file at path,
    and the source its load-time errors name: the file, or for mapcheck the
    identity map's domain."""
    if command != "mapcheck":
        return run([command, path]), path
    map_path = _identity_map_file(tmp_path, st.resolve_algebra(path)[0], path,
                                  path)
    return run(["mapcheck", map_path]), f"{map_path}: domain"


UNIT_LAW_COMMANDS = ["peirce", "spade", "lemmas", "mapcheck"]
# the laws that every command but check validates at load, in check's order
LOAD_LAWS = ("two_sided_unit", "involutive", "unit_fixed",
             "anti_automorphism")


def _failed_load_laws(path):
    """The load-time laws that check fails on the algebra file at path, in
    check's order; none where check cannot load it."""
    code, out, _ = run(["check", path])
    if code == 2:
        return []
    return [c["name"] for c in json.loads(out)["checks"]
            if not c["passed"] and c["name"] in LOAD_LAWS]


def _assert_refused_at_load(directory, path, sound="matrix:2"):
    """The contract for an algebra file that check refutes at a load-time
    law: peirce, spade and lemmas on it, and mapcheck with it as the
    domain, the codomain or both (the other side the algebra *sound*),
    each exit 2 with an empty stdout and one error line.  The line names
    the file, for mapcheck its side, and the first law check fails."""
    failed = _failed_load_laws(path)
    assert failed, path
    runs = [(run([command, path]), path)
            for command in ("peirce", "spade", "lemmas")]
    a, _ = st.resolve_algebra(path)
    for domain, codomain, side in ((path, sound, "domain"),
                                   (sound, path, "codomain"),
                                   (path, path, "domain")):
        map_path = _identity_map_file(directory, a, domain, codomain)
        runs.append((run(["mapcheck", map_path]), f"{map_path}: {side}"))
    for (code, out, err), source in runs:
        assert code == 2 and out == "", (source, code, err)
        (line,) = err.splitlines()
        assert line.startswith(
            f"error: {source}: the algebra fails {failed[0]} at ("), line


@pytest.mark.parametrize("command", UNIT_LAW_COMMANDS)
def test_unit_that_does_not_recombine_exits_2(tmp_path, command):
    # e1 = E11 is still a symmetric idempotent and every Peirce component
    # stays 1-dimensional, but the four projections of b sum to u (b u);
    # the unit law rejects the file first and names its witness pair.  The
    # defect is the file's, so the error names the file, not --e1 or --e
    path = _matrix2_file(tmp_path, "m2.alg", unit=["1", "0", "0", "2"])
    (code, out, err), source = _run_on_algebra_file(tmp_path, command, path)
    assert code == 2
    assert err.splitlines() == [f"error: {source}: the algebra fails "
                                "two_sided_unit at (1*E12, 1*E11 + 2*E22)"]
    assert out == ""


def _algebra_file(tmp_path, a, e1):
    path = tmp_path / f"{a.name}.alg"
    path.write_text(canonical_json(st.algebra_to_dict(
        a, {"e1": list(e1.coords)})), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", UNIT_LAW_COMMANDS)
def test_unit_that_star_moves_exits_2(tmp_path, star_moved_unit, command):
    # e1 = f1 is a symmetric idempotent, yet e2 = 1 - e1 is not symmetric:
    # a malformed file, not a refutation.  The first law it fails in
    # check's order is involutive
    a = star_moved_unit
    path = _algebra_file(tmp_path, a, a.basis_element(0))
    (code, out, err), source = _run_on_algebra_file(tmp_path, command, path)
    assert code == 2
    assert err.splitlines() == [f"error: {source}: the algebra fails "
                                "involutive at (1*f2)"]
    assert out == ""
    if command == "mapcheck":
        # and as either side of a map against a sound algebra of dim 2
        _assert_refused_at_load(tmp_path, path, "dsum:matrix:1,matrix:1")


# each matrix:2 file whose unit differs from (1, 0, 0, 1) in one coordinate
# by one of -1, 0, 2, i: 4 values at each diagonal 1, 3 at each 0
MOVED_UNITS = [(k, value) for k in range(4)
               for value in ("-1", "0", "2", "0+1i")
               if value != ("1" if k in (0, 3) else "0")]


def _moved_unit_file(tmp_path, k, value):
    unit = ["1", "0", "0", "1"]
    unit[k] = value
    return _matrix2_file(tmp_path, f"unit{k}.alg", unit=unit)


@pytest.mark.parametrize("k,value", MOVED_UNITS)
def test_moved_unit_coordinate_is_an_input_error_everywhere(tmp_path, k,
                                                            value):
    # check reports the failing unit law; every command that builds a
    # Peirce system or checks a map exits 2 on it, naming the law and the
    # file, and for mapcheck which side of the map the file is
    path = _moved_unit_file(tmp_path, k, value)
    assert set(_failed_load_laws(path)) & {"two_sided_unit", "unit_fixed"}
    _assert_refused_at_load(tmp_path, path)


M2_STAR = [[st.format_scalar(c) for c in row]
           for row in st.matrix_algebra(2).star_matrix()]
# each matrix:2 file whose star matrix differs in one entry, by one of -1, 0,
# 1, 2, i: 4 values at each of the 16 entries
STAR_ENTRIES = [(r, c, value) for r in range(4) for c in range(4)
                for value in ("-1", "0", "1", "2", "0+1i")
                if value != M2_STAR[r][c]]


@pytest.mark.parametrize("r,c,value", STAR_ENTRIES)
def test_star_entry_that_check_refutes_is_an_input_error_everywhere(
        tmp_path, r, c, value):
    # each fails involutive or unit_fixed; 32 of the 64 fix the unit and
    # fail only involutive and anti_automorphism
    star = [list(row) for row in M2_STAR]
    star[r][c] = value
    _assert_refused_at_load(tmp_path,
                            _matrix2_file(tmp_path, "star.alg", star=star))


def test_codomain_unit_that_fails_its_laws_is_not_blamed_on_the_map(
        tmp_path, m2):
    # the identity linear part is unital only against the declared unit,
    # so without the codomain's unit laws this read "jordan condition
    # requires a unital map"
    path = _moved_unit_file(tmp_path, 1, "1")
    map_path = _identity_map_file(tmp_path, m2, "matrix:2", path)
    code, out, err = run(["mapcheck", map_path])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {map_path}: codomain: the algebra "
                                "fails two_sided_unit at (1*E11, "
                                "1*E11 + 1*E12 + 1*E22)"]


def test_codomain_unit_that_is_only_a_left_unit_exits_2(tmp_path):
    # the domain is sound: orthogonal symmetric idempotents p, q with unit
    # p + q.  In the codomain u f = f u = f and u g = g, but g u = 0, so u
    # is only a left unit.  phi sends p to f and q to u - f: it is unital,
    # and f and u - f are symmetric idempotents, so the image Peirce system
    # is built on the codomain, whose unit law fails
    def eye(n):
        return [[st.ONE if r == c else st.ZERO for c in range(n)]
                for r in range(n)]

    dom = st.Algebra("pq", 2, ["p", "q"],
                     {(0, 0, 0): st.ONE, (1, 1, 1): st.ONE},
                     [st.ONE, st.ONE], eye(2))
    cod = st.Algebra("left-unit", 3, ["u", "f", "g"],
                     {(0, 0, 0): st.ONE, (0, 1, 1): st.ONE,
                      (1, 0, 1): st.ONE, (0, 2, 2): st.ONE,
                      (1, 1, 1): st.ONE},
                     [st.ONE, st.ZERO, st.ZERO], eye(3))
    dom_path = _algebra_file(tmp_path, dom, dom.basis_element(0))
    cod_path = _algebra_file(tmp_path, cod, cod.basis_element(1))
    # columns: phi(p) = f, phi(q) = u - f
    phi = st.AlgebraMap(dom, cod, [[st.ZERO, st.ONE], [st.ONE, -st.ONE],
                                   [st.ZERO, st.ZERO]])
    map_path = tmp_path / "left-unit.map"
    map_path.write_text(canonical_json(map_to_dict(phi, dom_path, cod_path)),
                        encoding="utf-8")
    code, out, err = run(["mapcheck", str(map_path)])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {map_path}: codomain: the algebra "
                                "fails two_sided_unit at (1*g, 1*u)"]


@pytest.mark.parametrize("command", ["peirce", "spade", "lemmas"])
def test_overlapping_components_exit_2(tmp_path, overlap, command):
    code, out, err = run([command, _algebra_file(tmp_path, overlap,
                                                 overlap.basis_element(0))])
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "overlap: their dimensions sum to 6 > dim 3" in err
    assert out == ""


@pytest.mark.parametrize("command", ["peirce", "spade", "lemmas"])
def test_incompatible_idempotent_exits_2(tmp_path, incompatible, command):
    e1 = incompatible.basis_element(1) + incompatible.basis_element(4)
    code, out, err = run([command, _algebra_file(tmp_path, incompatible,
                                                 e1)])
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "fails Peirce compatibility" in err and "at basis 1*x" in err
    assert out == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("command", ["peirce", "lemmas", "mapcheck"])
def test_runs_without_samples_are_input_errors(tmp_path, zorn, command,
                                               samples):
    target = "zorn"
    if command == "mapcheck":
        target = _write_map(tmp_path, st.zorn_rotation_map(zorn), "rot.map")
    code, out, err = run([command, target, "--samples", samples])
    assert code == 2
    assert "--samples" in err
    assert out == ""


@pytest.mark.parametrize("command", ["lemmas", "mapcheck"])
def test_arity_above_the_bound_is_an_input_error(tmp_path, zorn, command):
    if command == "mapcheck":
        path = _write_map(tmp_path, st.zorn_rotation_map(zorn), "rot.map")
        argv = ["mapcheck", path, "--n", "65"]
    else:
        argv = ["lemmas", "zorn", "--n-max", "65"]
    code, out, err = run(argv)
    assert code == 2
    assert err.startswith("error:") and "<= 64, got 65" in err
    assert out == ""


@pytest.mark.parametrize("argv, bound", [
    (["lemmas", "matrix:8", "--n-min", "1"], "2 <= n_min <= n_max"),
    (["lemmas", "zorn", "--n-max", "65"], "n_max <= 64, got 65"),
    (["mapcheck", "F", "--n", "1"], "n >= 2"),
    (["mapcheck", "F", "--n", "65"], "n <= 64, got 65"),
], ids=["lemmas-n-min", "lemmas-n-max", "mapcheck-n-1", "mapcheck-n-65"])
def test_arity_range_is_checked_before_anything_is_built(argv, bound,
                                                         monkeypatch):
    def no_load(*args):
        raise AssertionError("loaded an input before checking the range")

    monkeypatch.setattr("altstar.cli.resolve_algebra", no_load)
    monkeypatch.setattr("altstar.cli.load_map_file", no_load)
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and bound in err


def test_file_inside_a_direct_sum_gets_the_verdict_of_the_file(tmp_path):
    # upper-triangular 2x2 matrices with entrywise conjugation: the unit is
    # two-sided, but the star is not an anti-automorphism
    one, zero = st.ONE, st.ZERO
    identity = [[one if r == c else zero for c in range(3)] for r in range(3)]
    structure = {(0, 0, 0): one, (0, 1, 1): one, (1, 2, 1): one,
                 (2, 2, 2): one}
    ut2 = st.Algebra("ut2", 3, ["E11", "E12", "E22"], structure,
                     [one, zero, one], identity)
    path = tmp_path / "ut2.alg"
    path.write_text(canonical_json(st.algebra_to_dict(ut2)), encoding="utf-8")
    failing = []
    for spec in (str(path), f"dsum:{path},zorn"):
        code, doc = run_json(["check", spec])
        assert code == 1, spec
        failing.append([c["name"] for c in doc["checks"] if not c["passed"]])
    assert failing == [["anti_automorphism"]] * 2


# -- basis independence ------------------------------------------------------


def _unimodular(dim, rng):
    """Unit-lower times unit-upper, so the inverse is integral as well."""
    entries = (st.MINUS_ONE, st.ZERO, st.ONE, st.I)
    lower = [[st.ONE if r == c else rng.choice(entries) if r > c else st.ZERO
              for c in range(dim)] for r in range(dim)]
    upper = [[st.ONE if r == c else rng.choice(entries) if r < c else st.ZERO
              for c in range(dim)] for r in range(dim)]
    return linalg.from_columns([linalg.mat_vec(lower, col)
                                for col in zip(*upper)])


@pytest.mark.parametrize("spec", ["zorn", "matrix:2", "matrix:3",
                                  "cd:-1,-1,-1"])
def test_check_verdicts_survive_a_change_of_basis_and_a_file(tmp_path, spec):
    # the laws do not depend on the basis; the witnesses do, so only each
    # check's name and verdict are compared
    a, _ = st.resolve_algebra(spec)
    moved = st.change_of_basis(a, _unimodular(a.dim,
                                              derive_rng(11, "moved", spec)))
    path = tmp_path / "moved.alg"
    path.write_text(canonical_json(st.algebra_to_dict(moved)),
                    encoding="utf-8")
    code, doc = run_json(["check", spec])
    moved_code, moved_doc = run_json(["check", str(path)])
    assert moved_code == code
    assert [(c["name"], c["passed"]) for c in moved_doc["checks"]] \
        == [(c["name"], c["passed"]) for c in doc["checks"]]


# 1 first: hypothesis starts from the first value, so its first basis is
# the dense all-ones product and not the identity
GAUSSIAN_UNITS = hst.sampled_from([Scalar(p, q) for p in (1, 0, -1)
                                   for q in (0, 1, -1)])


@hst.composite
def unimodular(draw, dim):
    """Unit-lower times unit-upper over {-1, 0, 1} + {-1, 0, 1} i."""
    lower = [[st.ONE if r == c else draw(GAUSSIAN_UNITS) if r > c
              else st.ZERO for c in range(dim)] for r in range(dim)]
    upper = [[st.ONE if r == c else draw(GAUSSIAN_UNITS) if r < c
              else st.ZERO for c in range(dim)] for r in range(dim)]
    return linalg.from_columns([linalg.mat_vec(lower, col)
                                for col in zip(*upper)])


# the residual of each axiom law at its witness's arguments
AXIOM_LAWS = {
    "two_sided_unit": lambda a, x, y: x * y - (x + y - a.unit),
    "left_alternative_linearized":
        lambda a, x, y, z: a.associator(x, y, z) + a.associator(y, x, z),
    "right_alternative_linearized":
        lambda a, x, y, z: a.associator(x, y, z) + a.associator(x, z, y),
    "flexible_linearized":
        lambda a, x, y, z: a.associator(x, y, z) + a.associator(z, y, x),
    "involutive": lambda a, x: x.star().star() - x,
    "unit_fixed": lambda a, x: x.star() - x,
    "anti_automorphism":
        lambda a, x, y: (x * y).star() - y.star() * x.star(),
}


@pytest.mark.parametrize("spec, examples", [
    ("zorn", 6), ("matrix:2", 10), ("matrix:3", 6), ("cd:-1,-1,-1,-1", 2),
    ("dsum:matrix:2,matrix:2", 6)])
def test_exact_verdicts_survive_drawn_changes_of_basis(spec, examples):
    # check and spade decide exactly, so each verdict is a fact about the
    # algebra: it survives any basis M, a refuted law's witness moved by
    # M^-1 still fails the law, and a spade witness moved back by M
    # annihilates A e_j.  cd16 refutes two alternative laws, and the sum
    # of two matrix:2 copies fails spade on both sides, so both kinds of
    # witness are moved
    a, idem = st.resolve_algebra(spec)
    e1 = (a.element(idem["e1"]) if "e1" in idem
          else st.find_symmetric_idempotents(a)[0])
    axioms = st.check_axioms(a)
    p = st.PeirceSystem(a, e1)
    spade = st.spade_pair(p)
    assert axioms.ok == (spec != "cd:-1,-1,-1,-1")
    assert [r.holds for r in spade] \
        == [spec != "dsum:matrix:2,matrix:2"] * 2

    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None)
    @given(m=unimodular(a.dim))
    def survives(m):
        minv = linalg.inverse(m)
        moved = st.change_of_basis(a, m)

        def to_moved(x):
            return moved.element(linalg.mat_vec(minv, x.coords))

        rep = st.check_axioms(moved)
        assert [(c.name, c.passed) for c in rep.checks] \
            == [(c.name, c.passed) for c in axioms.checks]
        for c in axioms.checks:
            if c.witness is not None:
                residual = AXIOM_LAWS[c.name](
                    moved, *map(to_moved, c.witness.args))
                assert residual == to_moved(c.witness.residual)
                assert not residual.is_zero()
        # the Peirce build decides exactly as well: the moved e1 builds, its
        # components keep their dimensions, and each component basis
        # vector, moved, lies in the moved component
        moved_p = st.PeirceSystem(moved, to_moved(e1))
        assert moved_p.component_dims() == p.component_dims()
        for ij, basis in p.component_bases.items():
            assert all(st.component_of(moved_p, to_moved(x), ij)
                       for x in basis)
        moved_spade = st.spade_pair(moved_p)
        assert [r.holds for r in moved_spade] == [r.holds for r in spade]
        for ej, r in zip((e1, a.unit - e1), moved_spade):
            if r.witness is not None:
                x = a.element(linalg.mat_vec(m, r.witness.coords))
                assert not x.is_zero()
                assert all((x * (b * ej)).is_zero() for b in a.basis())

    survives()


# -- the exit-code contract ------------------------------------------------------

JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers(-70, 70) | hst.floats()
    | hst.text(max_size=6),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=3), inner, max_size=3),
    max_leaves=10)

ALGEBRA_COMMANDS = (["check"], ["peirce", "--samples", "3"], ["spade"],
                    ["lemmas", "--n-max", "3", "--samples", "2"],
                    ["qprod", "--args", "0,1,0,0;0,1,0,0"])


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory, m2):
    """The matrix:2 algebra file and an identity map file, as documents,
    with the paths each example writes its altered copies to."""
    base = tmp_path_factory.mktemp("contract")
    algebra = json.loads(run(["gen", "matrix:2"])[1])
    identity = map_to_dict(st.identity_map(m2), "matrix:2", "matrix:2")
    return ((algebra, base / "m2.alg"), (identity, base / "id.map"))


# a scalar literal or an index one step away from a valid one
NEAR_VALUES = (hst.sampled_from(["0", "1", "-1", "2", "1/2", "0+1i", "1/0",
                                 "1/2-1i", "e1"])
               | hst.integers(-1, 5))


def _leaves(x, path=()):
    """The path to each scalar or index inside x."""
    if not isinstance(x, (list, dict)):
        yield path
        return
    for key, value in (x.items() if isinstance(x, dict) else enumerate(x)):
        yield from _leaves(value, path + (key,))


def _set_near_leaf(data, field):
    """Replace one scalar or index inside field by a near value."""
    *path, last = data.draw(hst.sampled_from(list(_leaves(field))))
    for step in path:
        field = field[step]
    field[last] = data.draw(NEAR_VALUES)


def _perturb(data, doc):
    """A copy of doc with one value replaced: a top-level field or one item
    in it by a random JSON value, or one scalar or index inside a field (a
    unit or star scalar, a structure index, an idempotent coordinate, a map
    matrix entry) by a near one."""
    doc = json.loads(json.dumps(doc))
    nested = [key for key in sorted(doc) if isinstance(doc[key], (list, dict))
              and doc[key]]
    how = data.draw(hst.sampled_from(["leaf", "item", "field"]))
    key = data.draw(hst.sampled_from(nested if how != "field"
                                     else sorted(doc)))
    field = doc[key]
    if how == "leaf":
        _set_near_leaf(data, field)
    elif how == "item":
        inner = data.draw(hst.sampled_from(
            range(len(field)) if isinstance(field, list) else sorted(field)))
        field[inner] = data.draw(JSON_VALUES)
    else:
        doc[key] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=hst.data())
def test_malformed_files_keep_the_exit_code_contract(contract_files, data):
    # 0 = pass, 1 = witness, both with one JSON report and a silent stderr;
    # 2 = input error, with one error line; an escaping exception fails.
    # An algebra that check refutes at a load-time law is refused by every
    # other command
    (algebra, alg_path), (identity, map_path) = contract_files
    alg_path.write_text(canonical_json(_perturb(data, algebra)),
                        encoding="utf-8")
    map_path.write_text(canonical_json(_perturb(data, identity)),
                        encoding="utf-8")
    runs = [[c[0], str(alg_path)] + c[1:] for c in ALGEBRA_COMMANDS]
    runs.append(["mapcheck", str(map_path), "--samples", "3"])
    for args in runs:
        code, out, err = run(args)
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1 \
                and err.startswith("error: "), (args, err)
        else:
            assert code in (0, 1) and err == "", (args, code, err)
            json.loads(out)
    if _failed_load_laws(str(alg_path)):
        sides = alg_path.parent / "sides"
        sides.mkdir(exist_ok=True)
        _assert_refused_at_load(sides, str(alg_path))


def _perturb_star_or_unit(data, doc):
    """A copy of the algebra document with one star-matrix or unit scalar
    replaced by a near value."""
    doc = json.loads(json.dumps(doc))
    _set_near_leaf(data, doc[data.draw(hst.sampled_from(["star", "unit"]))])
    return doc


def test_star_and_unit_perturbations_keep_the_load_time_contract(
        contract_files):
    # the whole-file fuzzer rarely makes a file that loads and fails a
    # load-time law; one near value in the star or the unit often does, and
    # every such file is refused by every command that validates at load
    (algebra, alg_path), _ = contract_files
    sides = alg_path.parent / "star-unit-sides"
    sides.mkdir(exist_ok=True)
    refused = []

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=hst.data())
    def perturb(data):
        alg_path.write_text(canonical_json(_perturb_star_or_unit(data,
                                                                 algebra)),
                            encoding="utf-8")
        if _failed_load_laws(str(alg_path)):
            _assert_refused_at_load(sides, str(alg_path))
            refused.append(alg_path.read_text(encoding="utf-8"))

    perturb()
    # 38 of the 100 examples are distinct files that fail a law
    assert len(set(refused)) >= 25


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "altstar.cli", "spade",
                           "zorn", "--e", "e1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spade"] == {"e1": True, "e2": True}
