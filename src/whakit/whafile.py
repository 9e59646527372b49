"""Read and write weak Hopf algebra structure data as versioned JSON.

The on-disk document is dense and explicitly versioned: every scalar is an
``[re, im]`` pair, floats carry 17 significant digits so a save/load round
trip reproduces each double exactly, and a formal JSON schema ships with the
package (``data/wha-schema.json``).  That schema is the specification of the
format.  Loading checks it in two parts: ``jsonschema`` walks the document's
skeleton (every key and value except the numeric fields, which it sees as
empty arrays), and :func:`_carray` checks each numeric field in bulk against
the same rules (nested lists, ``[re, im]`` pairs, numeric non-boolean leaves)
plus the shape that ``dim`` implies.  Structural problems raise
:class:`~whakit.errors.SchemaError` naming the offending field path; semantic
problems (axiom violations, an antipode that disagrees with the solved one)
surface through the usual validators as :class:`~whakit.errors.ValidationError`.
"""

from __future__ import annotations

import functools
import itertools
import json
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np

from .algebra import FinDimAlgebra
from .config import Tolerance, get_tol
from .errors import SchemaError
from .wha import WeakBialgebra, WeakHopfAlgebra, validate_wha

__all__ = ["SCHEMA_VERSION", "schema", "to_dict", "from_dict", "dumps", "loads", "save", "load"]

SCHEMA_VERSION = 1

# The fields made of [re, im] pairs: _carray checks them, jsonschema the rest.
_NUMERIC = ("structure_constants", "unit", "comultiplication", "counit", "antipode", "involution")


@functools.cache
def schema() -> dict:
    """The JSON schema for serialized algebras, as shipped with the package."""
    return json.loads(files("whakit").joinpath("data/wha-schema.json").read_text(encoding="utf-8"))


@functools.cache
def _validator() -> jsonschema.Draft7Validator:
    """The draft-7 validator of :func:`schema`, built once; the schema itself is not re-checked
    against the metaschema on each load, as ``jsonschema.validate`` would."""
    return jsonschema.Draft7Validator(schema())


# ---------------------------------------------------------------------------
# serialization


def _pairs(arr: np.ndarray):
    """Nested lists with each complex entry expanded to an [re, im] pair."""
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def to_dict(w: WeakHopfAlgebra, name: str | None = None, provenance: str | None = None) -> dict:
    """Plain-dict form of ``w`` following the packaged schema."""
    return _document(w, name, provenance, _pairs)


def _document(w: WeakHopfAlgebra, name: str | None, provenance: str | None, numeric) -> dict:
    """The document of ``w`` with each numeric field's complex array passed through ``numeric``."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "dim": w.dim,
        "basis_labels": [str(lbl) for lbl in w.algebra.basis_labels],
        "structure_constants": numeric(w.algebra.c),
        "unit": numeric(w.algebra.unit),
        "comultiplication": numeric(w.delta),
        "counit": numeric(w.eps),
        "antipode": numeric(w.antipode),
    }
    if w.algebra.involution is not None:
        doc["involution"] = numeric(w.algebra.involution)
    doc["metadata"] = {"name": name if name is not None else w.name}
    if provenance is not None:
        doc["metadata"]["provenance"] = provenance
    return doc


def _emit_array(arr: np.ndarray, indent: int) -> str:
    """``arr`` as nested lists of ``[re, im]`` pairs with 17-significant-digit floats.

    Every float is formatted in one pass; then each level joins the text of
    its children, the innermost pairs on one line each so matrices diff row
    by row.
    """
    floats = np.stack([np.real(arr), np.imag(arr)], axis=-1).ravel()
    if not np.isfinite(floats).all():
        bad = float(floats[~np.isfinite(floats)][0])
        raise SchemaError(f"non-finite value {bad!r} cannot be serialized")
    text = [format(x, ".17g") for x in floats.tolist()]
    pad = "  " * (indent + arr.ndim)
    items = [f"{pad}[{re}, {im}]" for re, im in zip(text[::2], text[1::2])]
    for level in reversed(range(arr.ndim)):
        pad, k = "  " * (indent + level), arr.shape[level]
        items = [pad + "[\n" + ",\n".join(items[i : i + k]) + "\n" + pad + "]" for i in range(0, len(items), k)]
    return items[0]


def _emit(node, indent: int) -> str:
    """Render the document; its numeric fields are complex arrays (:func:`_emit_array`)."""
    pad = "  " * indent
    if isinstance(node, np.ndarray):
        return _emit_array(node, indent)
    if isinstance(node, dict):
        items = [f'{pad}  {json.dumps(k)}: {_emit(v, indent + 1).lstrip()}' for k, v in node.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(node, list):  # the basis labels
        return pad + "[" + ", ".join(_emit(v, 0) for v in node) + "]"
    if isinstance(node, int):
        return pad + str(node)
    if isinstance(node, str):
        return pad + json.dumps(node)
    raise SchemaError(f"cannot serialize value of type {type(node).__name__}")


def dumps(w: WeakHopfAlgebra, name: str | None = None, provenance: str | None = None) -> str:
    """Serialize ``w`` to schema-valid JSON text."""
    return _emit(_document(w, name, provenance, np.asarray), 0) + "\n"


def save(w: WeakHopfAlgebra, path, name: str | None = None, provenance: str | None = None) -> None:
    Path(path).write_text(dumps(w, name=name, provenance=provenance), encoding="utf-8")


# ---------------------------------------------------------------------------
# deserialization


def _skeleton(doc):
    """``doc`` with each numeric field replaced by ``[]``: what ``jsonschema`` walks."""
    if not isinstance(doc, dict):
        return doc
    return {k: [] if k in _NUMERIC else v for k, v in doc.items()}


def _carray(doc: dict, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of a numeric field, checked by the schema's rules in bulk.

    The containers must be lists (the schema's arrays) of the given shape with
    ``[re, im]`` pairs innermost, and every leaf a number by the schema's own
    draft-7 rule, tested once per distinct leaf type.
    """
    try:
        raw = np.array(doc[field], dtype=object)
    except ValueError as exc:
        raise SchemaError(f"{field}: ragged array ({exc})") from None
    if raw.shape != shape + (2,):
        want = "x".join(str(s) for s in shape)
        got = "x".join(str(s) for s in raw.shape[:-1]) if raw.shape and raw.shape[-1] == 2 else str(raw.shape)
        raise SchemaError(f"{field}: expected {want} entries, got {got}")
    level = [doc[field]]
    for _ in raw.shape:
        bad = next((x for x in level if not isinstance(x, list)), None)
        if bad is not None:
            raise SchemaError(f"{field}: a {type(bad).__name__} is not of type 'array'")
        level = list(itertools.chain.from_iterable(level))
    is_type = jsonschema.Draft7Validator.TYPE_CHECKER.is_type
    for leaf in dict(zip(map(type, level), level)).values():
        if not is_type(leaf, "number"):
            raise SchemaError(f"{field}: {leaf!r} is not of type 'number'")
    try:
        raw = raw.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{field}: {exc}") from None
    return raw[..., 0] + 1j * raw[..., 1]


def from_dict(doc: dict, validate: bool = True, tol: Tolerance | None = None) -> WeakHopfAlgebra:
    """Rebuild a :class:`WeakHopfAlgebra` from its dict form.

    ``jsonschema`` checks the document's skeleton against the packaged schema
    and :func:`_carray` checks the numeric payload in bulk, so every document
    the packaged schema rejects raises :class:`~whakit.errors.SchemaError`.
    A missing antipode is solved from the comultiplication once the weak
    bialgebra axioms pass.  With ``validate=True`` (the default) the result
    must pass :func:`~whakit.wha.validate_wha`, which also compares a supplied
    antipode with the solved one.
    """
    tol = get_tol(tol)
    error = jsonschema.exceptions.best_match(_validator().iter_errors(_skeleton(doc)))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise SchemaError(f"{path}: {error.message}")
    n = int(doc["dim"])
    c = _carray(doc, "structure_constants", (n, n, n))
    unit = _carray(doc, "unit", (n,))
    delta = _carray(doc, "comultiplication", (n * n, n))
    eps = _carray(doc, "counit", (n,))
    involution = _carray(doc, "involution", (n, n)) if "involution" in doc else None
    labels = doc.get("basis_labels")
    if labels is not None and len(labels) != n:
        raise SchemaError(f"basis_labels: expected {n} labels, got {len(labels)}")
    meta = doc.get("metadata", {})
    alg = FinDimAlgebra(c, unit, involution=involution, basis_labels=labels, name=str(meta.get("name", "loaded")))
    if "antipode" in doc:
        w = WeakHopfAlgebra(alg, delta, eps, _carray(doc, "antipode", (n, n)))
    else:
        w = WeakHopfAlgebra.from_wba(WeakBialgebra(alg, delta, eps), tol)
    if validate:
        validate_wha(w, tol).raise_if_failed()
    return w


def loads(text: str, validate: bool = True, tol: Tolerance | None = None) -> WeakHopfAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    return from_dict(doc, validate=validate, tol=tol)


def load(path, validate: bool = True, tol: Tolerance | None = None) -> WeakHopfAlgebra:
    text = Path(path).read_text(encoding="utf-8")
    return loads(text, validate=validate, tol=tol)
