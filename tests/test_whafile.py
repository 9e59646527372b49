"""Serialization round-trips and schema rejection."""

import json

import numpy as np
import pytest

import whakit as wk
from whakit import whafile


@pytest.mark.parametrize("key", ["z3", "p2", "fp2", "h4", "m23"])
def test_round_trip_is_exact(examples, key, tmp_path):
    w = examples[key]
    path = tmp_path / f"{key}.wha.json"
    whafile.save(w, path)
    back = whafile.load(path)
    np.testing.assert_array_equal(back.algebra.c, w.algebra.c)
    np.testing.assert_array_equal(back.delta, w.delta)
    np.testing.assert_array_equal(back.eps, w.eps)
    np.testing.assert_array_equal(back.unit, w.unit)
    np.testing.assert_array_equal(back.antipode, w.antipode)
    if w.algebra.involution is None:
        assert back.algebra.involution is None
    else:
        np.testing.assert_array_equal(back.algebra.involution, w.algebra.involution)
    assert list(back.algebra.basis_labels) == list(w.algebra.basis_labels)


def test_dumps_loads_without_files(p2):
    text = whafile.dumps(p2, name="renamed", provenance="test")
    back = whafile.loads(text)
    assert back.name == "renamed"
    np.testing.assert_array_equal(back.algebra.c, p2.algebra.c)


def test_doc_structure(z3):
    doc = whafile.to_dict(z3, provenance="unit test")
    assert doc["schema_version"] == whafile.SCHEMA_VERSION
    assert doc["dim"] == 3
    assert doc["metadata"]["provenance"] == "unit test"
    # complex entries are stored as [re, im] pairs
    assert doc["unit"][0] == [1.0, 0.0]
    np.testing.assert_allclose(np.array(doc["counit"])[:, 1], 0.0)


def test_antipode_is_solved_when_absent(z3):
    doc = whafile.to_dict(z3)
    del doc["antipode"]
    back = whafile.from_dict(doc)
    assert np.linalg.norm(back.antipode - z3.antipode) < 1e-9


def test_load_validates_by_default(z3, tmp_path):
    broken = wk.perturb(z3, field="structure_constants", magnitude=1e-3, seed=1)
    path = tmp_path / "broken.wha.json"
    whafile.save(broken, path)
    with pytest.raises(wk.ValidationError):
        whafile.load(path)
    # but an explicit opt-out loads it untouched
    again = whafile.load(path, validate=False)
    np.testing.assert_array_equal(again.algebra.c, broken.algebra.c)


def test_mismatched_antipode_is_a_validation_error(z3):
    broken = wk.perturb(z3, field="antipode", magnitude=1e-3, seed=0)
    with pytest.raises(wk.ValidationError) as err:
        whafile.loads(whafile.dumps(broken))
    assert err.value.axiom.startswith("antipode")


def test_involution_failures_are_caught_on_load(z3):
    broken = wk.perturb(z3, field="involution", magnitude=1e-2, seed=1)
    text = whafile.dumps(broken)
    with pytest.raises(wk.ValidationError):
        whafile.loads(text)


class TestSchemaRejection:
    def _doc(self, z3):
        return whafile.to_dict(z3)

    def test_missing_key(self, z3):
        doc = self._doc(z3)
        del doc["counit"]
        with pytest.raises(wk.SchemaError) as err:
            whafile.from_dict(doc)
        assert "counit" in str(err.value)

    def test_wrong_shape(self, z3):
        doc = self._doc(z3)
        doc["unit"] = doc["unit"][:-1]
        with pytest.raises(wk.SchemaError):
            whafile.from_dict(doc)

    def test_malformed_complex_entry(self, z3):
        doc = self._doc(z3)
        doc["unit"][0] = [1.0]  # needs [re, im]
        with pytest.raises(wk.SchemaError) as err:
            whafile.from_dict(doc)
        assert "unit" in str(err.value)

    def test_unsupported_version(self, z3):
        doc = self._doc(z3)
        doc["schema_version"] = 99
        with pytest.raises(wk.SchemaError):
            whafile.from_dict(doc)

    def test_non_object_document(self):
        with pytest.raises(wk.SchemaError):
            whafile.loads(json.dumps([1, 2, 3]))

    def test_schema_is_valid_json_schema(self):
        s = whafile.schema()
        assert s["properties"]["schema_version"]["const"] == whafile.SCHEMA_VERSION


def test_save_then_shell_round_trip_keeps_floats(m23, tmp_path):
    # .17g formatting must round-trip float64 exactly, including the
    # irrational golden-ratio entries
    path = tmp_path / "m23.wha.json"
    whafile.save(m23, path)
    back = whafile.load(path, validate=False)
    assert np.array_equal(back.algebra.c, m23.algebra.c)
    assert np.array_equal(back.antipode, m23.antipode)
