"""The JSON path diff of ``scripts/diff_reports.py``, which names the fields
that changed between two revisions' reports.  The script is imported from
``scripts/`` and only read."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def diff_paths(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("diff_reports").diff_paths


def test_equal_documents_have_no_diff(diff_paths):
    doc = {"ok": True, "checks": [{"name": "x", "witness": None}], "n": 3}
    assert diff_paths(doc, {**doc}) == []
    assert diff_paths(None, None) == []


def test_a_changed_scalar_is_its_path_in_nested_dicts(diff_paths):
    old = {"a": {"b": {"c": 1, "d": "x"}}, "e": [1, {"f": "2"}]}
    new = {"a": {"b": {"c": 1, "d": "y"}}, "e": [1, {"f": "3"}]}
    assert diff_paths(old, new) == ["$.a.b.d", "$.e[1].f"]


def test_a_value_of_another_type_differs(diff_paths):
    # JSON true is not 1, and a report is not an empty stdout
    assert diff_paths({"ok": True}, {"ok": 1}) == ["$.ok"]
    assert diff_paths({"ok": True}, None) == ["$"]


def test_lists_of_unequal_length_name_each_extra_index(diff_paths):
    assert diff_paths({"xs": [1, 2]}, {"xs": [1, 5, 3, 4]}) \
        == ["$.xs[1]", "$.xs[2]", "$.xs[3]"]
    assert diff_paths([[0], 1], [[]]) == ["$[0][0]", "$[1]"]


def test_an_added_or_removed_key_is_a_path(diff_paths):
    old = {"command": "check", "ok": True}
    new = {"command": "check", "version": "0.1", "ok": True}
    assert diff_paths(old, new) == ["$.version"]
    assert diff_paths(new, old) == ["$.version"]
    # a key that is no identifier is quoted
    assert diff_paths({"component_dims": {"12": 3}},
                      {"component_dims": {"12": 3, "21": 3}}) \
        == ['$.component_dims["21"]']
