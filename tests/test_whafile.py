"""Serialization round-trips and schema rejection."""

import copy
import json
import random

import jsonschema
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

    @pytest.mark.parametrize("leaf", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_integer_too_large_for_a_double(self, z3, leaf):
        doc = self._doc(z3)
        doc["unit"][0] = [leaf, 0]
        with pytest.raises(wk.SchemaError) as err:
            whafile.from_dict(doc)
        assert "unit" in str(err.value)

    @pytest.mark.parametrize("leaf", [True, None, "1.0", [1.0], {}])
    def test_non_number_leaf(self, z3, leaf):
        doc = self._doc(z3)
        doc["structure_constants"][0][1][2][0] = leaf
        with pytest.raises(wk.SchemaError) as err:
            whafile.from_dict(doc)
        assert "structure_constants" in str(err.value)

    def test_tuple_is_not_an_array(self, z3):
        doc = self._doc(z3)
        doc["counit"][1] = tuple(doc["counit"][1])
        with pytest.raises(wk.SchemaError) as err:
            whafile.from_dict(doc)
        assert "counit" in str(err.value)

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


# ---------------------------------------------------------------------------
# the loader against the packaged schema

_NUMERIC = ("structure_constants", "unit", "comultiplication", "counit", "antipode", "involution")
_BAD_LEAVES = [True, False, None, "1.0", [1.0], {}, np.float64(0.25), float("nan"), 10**400, 2**53 + 1]
_BAD_VALUES = [5, "x", None, True, {}, [], [[1.0, 0.0]], [[[1.0, 0.0]]]]


def _mutate(doc: dict, rnd: random.Random) -> str:
    """Break ``doc`` in place in one seeded way; returns the top-level key it touched."""
    numeric = [f for f in _NUMERIC if f in doc]
    kind = rnd.choice(["leaf", "pair", "ragged", "value", "tuple", "delete", "extra", "dim", "version", "labels", "metadata"])
    if kind in ("leaf", "pair", "ragged", "tuple"):
        field = rnd.choice(numeric)
        parent, node = doc, field
        while isinstance(parent[node][0][0], list):  # descend to a row of pairs
            parent, node = parent[node], rnd.randrange(len(parent[node]))
        row = parent[node]
        i = rnd.randrange(len(row))
        if kind == "leaf":
            row[i][rnd.randrange(2)] = rnd.choice(_BAD_LEAVES)
        elif kind == "pair":
            row[i] = rnd.choice([row[i][:1], row[i] + [0.0], []])
        elif kind == "ragged":
            del row[i]
        elif rnd.random() < 0.5:
            row[i] = tuple(row[i])
        else:
            parent[node] = tuple(row)
        return field
    if kind == "value":
        field = rnd.choice(numeric)
        doc[field] = rnd.choice(_BAD_VALUES + [tuple(doc[field])])
        return field
    if kind == "delete":
        key = rnd.choice(sorted(doc))
        del doc[key]
        return key
    if kind == "extra":
        key = rnd.choice(["extra", "Dim", "units"])
        doc[key] = 1
        return key
    if kind == "dim":
        doc["dim"] = rnd.choice([0, -1, "3", 2.5, True, None, doc["dim"] + 1, float(doc["dim"])])
        return "dim"
    if kind == "version":
        doc["schema_version"] = rnd.choice([2, "1", True, None, 1.0])
        return "schema_version"
    if kind == "labels":
        labels = doc["basis_labels"]
        doc["basis_labels"] = rnd.choice([list(range(len(labels))), "abc", labels[:-1], None, labels + ["x"]])
        return "basis_labels"
    doc["metadata"] = rnd.choice(["name", {"name": 5}, {"provenance": 3}, {"other": 1}, []])
    return "metadata"


def test_loader_rejects_whatever_the_schema_rejects(z3, s3, p2):
    validator = jsonschema.Draft7Validator(whafile.schema())
    verdicts = set()
    for w, seed, count in ((z3, 0, 200), (p2, 1, 80), (s3, 2, 30)):  # the full walk costs 6, 12 and 34 ms
        base = json.loads(whafile.dumps(w))
        rnd = random.Random(seed)
        for _ in range(count):
            doc = copy.deepcopy(base)
            key = _mutate(doc, rnd)
            schema_ok = validator.is_valid(doc)
            try:
                whafile.from_dict(doc, validate=False)
            except wk.SchemaError as err:
                named = {key, "structure_constants"} if key == "dim" else {key}
                assert any(k in str(err) for k in named), (key, str(err))
                verdicts.add(("rejected", schema_ok))
            else:
                assert schema_ok, key
                verdicts.add(("accepted", schema_ok))
    # every verdict the contract allows shows up: agreement both ways, and
    # documents the schema allows but the shapes or doubles do not
    assert verdicts == {("accepted", True), ("rejected", False), ("rejected", True)}


def test_packaged_schema_passes_the_draft7_metaschema():
    jsonschema.Draft7Validator.check_schema(whafile.schema())


def test_loading_does_not_recheck_the_metaschema(z3, monkeypatch):
    calls = []
    monkeypatch.setattr(jsonschema.Draft7Validator, "check_schema", classmethod(lambda cls, s: calls.append(s)))
    text = whafile.dumps(z3)
    for _ in range(3):
        whafile.loads(text, validate=False)
    assert calls == []


def test_schema_errors_name_what_jsonschema_validate_names(z3, p2):
    # the cached validator reports the best match, as jsonschema.validate raises it
    seen = 0
    for w, seed in ((z3, 3), (p2, 4)):
        base = json.loads(whafile.dumps(w))
        rnd = random.Random(seed)
        for _ in range(60):
            doc = copy.deepcopy(base)
            _mutate(doc, rnd)
            try:
                jsonschema.validate(whafile._skeleton(doc), whafile.schema())
            except jsonschema.exceptions.ValidationError as exc:
                path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
                with pytest.raises(wk.SchemaError) as err:
                    whafile.from_dict(doc, validate=False)
                assert str(err.value) == f"{path}: {exc.message}"
                seen += 1
    assert seen > 20


@pytest.mark.parametrize("key", ["m23", "p4"])
def test_loaded_arrays_are_bit_identical_to_a_float_conversion(examples, key):
    doc = json.loads(whafile.dumps(examples[key]))
    w = whafile.from_dict(doc, validate=False)
    arrays = {
        "structure_constants": w.algebra.c,
        "unit": w.unit,
        "comultiplication": w.delta,
        "counit": w.eps,
        "antipode": w.antipode,
        "involution": w.algebra.involution,
    }
    for field, got in arrays.items():
        raw = np.asarray(doc[field], dtype=float)
        want = (raw[..., 0] + 1j * raw[..., 1]).reshape(got.shape)
        assert got.tobytes() == want.tobytes(), field


def test_random_doubles_load_bit_identically():
    rng = np.random.default_rng(7)
    leaves = rng.standard_normal((5, 2)) * 10.0 ** rng.integers(-300, 300, size=(5, 2))
    doc = {"unit": json.loads(json.dumps(leaves.tolist()))}
    got = whafile._carray(doc, "unit", (5,))
    assert got.tobytes() == (leaves[:, 0] + 1j * leaves[:, 1]).tobytes()


def _reference_emit(node, indent: int) -> str:
    """The per-value emitter ``dumps`` used before it formatted whole arrays: the reference text."""
    pad = "  " * indent
    if isinstance(node, dict):
        items = [f"{pad}  {json.dumps(k)}: {_reference_emit(v, indent + 1).lstrip()}" for k, v in node.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(node, list):
        if all(not isinstance(v, (list, dict)) for v in node):
            return pad + "[" + ", ".join(_reference_emit(v, 0) for v in node) + "]"
        items = [_reference_emit(v, indent + 1) for v in node]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(node, bool) or node is None:
        return pad + json.dumps(node)
    if isinstance(node, int):
        return pad + str(node)
    if isinstance(node, float):
        if not np.isfinite(node):
            raise wk.SchemaError(f"non-finite value {node!r} cannot be serialized")
        return pad + format(node, ".17g")
    if isinstance(node, str):
        return pad + json.dumps(node)
    raise wk.SchemaError(f"cannot serialize value of type {type(node).__name__}")


def test_dumps_is_byte_identical_to_the_reference_emitter(examples, rotated):
    algebras = list(examples.values()) + [rotated(examples["m23"], seed=4), examples["p4"].dual]
    for w in algebras:
        text = whafile.dumps(w, provenance="test")
        assert text == _reference_emit(whafile.to_dict(w, provenance="test"), 0) + "\n", w.name


def test_dumps_refuses_a_non_finite_value(z3):
    s = z3.antipode.copy()
    s[1, 2] = np.inf
    broken = wk.WeakHopfAlgebra(z3.algebra, z3.delta, z3.eps, s)
    with pytest.raises(wk.SchemaError, match="non-finite value"):
        whafile.dumps(broken)
