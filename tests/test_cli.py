"""Command-line interface: exit codes, output formats, report content."""

import json
import sys

import numpy as np
import pytest

import whakit as wk
from whakit import whafile
from whakit.cli import EX_AXIOM, EX_NOFILE, EX_OK, EX_STAGE, EX_USAGE, analyze_wha, main

PHI = (1 + np.sqrt(5)) / 2


@pytest.fixture()
def z3_file(z3, tmp_path):
    path = tmp_path / "z3.wha.json"
    whafile.save(z3, path)
    return str(path)


@pytest.fixture()
def m23_file(m23, tmp_path):
    path = tmp_path / "m23.wha.json"
    whafile.save(m23, path)
    return str(path)


def test_validate_good_file(z3_file, capsys):
    assert main(["validate", z3_file]) == EX_OK
    out = capsys.readouterr().out
    assert "OK" in out
    assert "coassociativity" in out


def test_validate_json_format(z3_file, capsys):
    assert main(["validate", z3_file, "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["dim"] == 3
    names = [c["name"] for c in doc["checks"]]
    assert "antipode agrees with solved antipode" in names


def test_validate_broken_file_names_the_axiom(z3, tmp_path, capsys):
    broken = wk.perturb(z3, field="comultiplication", magnitude=1e-3, seed=2)
    path = tmp_path / "broken.wha.json"
    whafile.save(broken, path)
    assert main(["validate", str(path)]) == EX_AXIOM
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "FAIL" in out


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/nope.wha.json"]) == EX_NOFILE
    assert "no such file" in capsys.readouterr().err


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1}')
    assert main(["validate", str(path)]) == EX_STAGE


@pytest.mark.parametrize(
    "field, leaf", [("unit", 10**400), ("structure_constants", True)], ids=["oversized-int", "bool"]
)
def test_bad_number_is_a_schema_error(z3, tmp_path, capsys, field, leaf):
    doc = whafile.to_dict(z3)
    pair = doc[field][0] if field == "unit" else doc[field][0][0][0]
    pair[0] = leaf
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EX_STAGE
    assert field in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # missing path
    assert exc.value.code == EX_USAGE


def test_generate_requires_size_when_family(capsys):
    assert main(["generate", "cyclic"]) == EX_USAGE
    assert main(["generate", "sweedler-h4", "3"]) == EX_USAGE


def test_generate_and_validate_round_trip(tmp_path, capsys):
    out = str(tmp_path / "s3.wha.json")
    assert main(["generate", "symmetric", "3", "-o", out]) == EX_OK
    assert main(["validate", out]) == EX_OK


def test_generate_writes_provenance(tmp_path):
    out = tmp_path / "z4.wha.json"
    assert main(["generate", "cyclic", "4", "-o", str(out)]) == EX_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["provenance"] == "whakit generate cyclic 4"


def test_dualize(z3_file, tmp_path, capsys):
    out = str(tmp_path / "dual.wha.json")
    assert main(["dualize", z3_file, "-o", out]) == EX_OK
    d = whafile.load(out)
    z3 = whafile.load(z3_file)
    assert np.linalg.norm(d.algebra.c - wk.dual_wha(z3).algebra.c) < 1e-12


def test_analyze_text_output(m23_file, capsys):
    assert main(["analyze", m23_file]) == EX_OK
    out = capsys.readouterr().out
    for section in ("== axioms ==", "== structure ==", "== haar ==", "== grouplike ==", "== sectors ==", "== index =="):
        assert section in out
    assert "delta = 6.8541020" in out


def test_analyze_json_content(m23_file, capsys):
    assert main(["analyze", m23_file, "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    st = doc["stages"]
    assert st["structure"]["dims"] == {"A": 13, "A_L": 2, "A_R": 2, "Z_L": 1, "Z_R": 1, "hypercenter": 1}
    assert st["structure"]["flags"]["weak_kac"] is False
    assert st["sectors"]["delta"] == pytest.approx(2 + 3 * PHI, abs=1e-6)
    assert st["sectors"]["d_vector"] == pytest.approx([1.0, PHI], abs=1e-6)
    assert st["index"]["markov_index"] == pytest.approx(2 + 3 * PHI, abs=1e-6)
    assert st["index"]["haar_index"] == pytest.approx(5 + np.sqrt(5), abs=1e-6)


def test_analyze_reports_typed_absences_for_h4(h4, tmp_path, capsys):
    path = tmp_path / "h4.wha.json"
    whafile.save(h4, path)
    assert main(["analyze", str(path), "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    for stage in ("haar", "grouplike", "sectors", "index"):
        assert doc["stages"][stage]["absent"] == "NoHaar"
    assert doc["stages"]["structure"]["flags"]["semisimple"] is False


def test_analyze_per_component_index(tmp_path, capsys):
    w = wk.groupoid_wha(wk.disjoint_union(wk.pair_groupoid(2), wk.cyclic_group(2)))
    path = tmp_path / "du.wha.json"
    whafile.save(w, path)
    assert main(["analyze", str(path), "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    comps = doc["stages"]["index"]["components"]
    assert sorted(c["dim"] for c in comps) == [2, 4]
    for c in comps:
        assert c["markov_index"] == pytest.approx(2.0, abs=1e-6)


def test_analyze_on_perturbed_file_fails_axioms(z3, tmp_path, capsys):
    broken = wk.perturb(z3, field="structure_constants", magnitude=1e-3, seed=3)
    path = tmp_path / "b.wha.json"
    whafile.save(broken, path)
    assert main(["analyze", str(path)]) == EX_AXIOM
    assert "remaining stages skipped" in capsys.readouterr().out


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_reports_stay_strict_json_without_an_antipode(idempotent_monoid, tmp_path, capsys):
    path = str(tmp_path / "monoid.wha.json")
    whafile.save(idempotent_monoid, path)
    assert main(["validate", path, "--format", "json"]) == EX_AXIOM
    checks = _strict_json(capsys.readouterr().out)["checks"]
    [bad] = [c for c in checks if not c["passed"]]
    assert bad["name"].startswith("antipode solvable (")
    assert bad["residual"] is None
    assert main(["analyze", path, "--format", "json"]) == EX_AXIOM
    assert _strict_json(capsys.readouterr().out)["stages"]["axioms"]["checks"] == checks
    assert main(["validate", path]) == EX_AXIOM
    assert "residual not finite" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_broken_weak_bialgebra_exits_with_its_axiom_rows(z3, tmp_path, capsys, command):
    broken = wk.perturb(z3, field="unit", magnitude=1e-3, seed=0)
    path = str(tmp_path / "unit.wha.json")
    whafile.save(broken, path)
    assert main([command, path, "--format", "json"]) == EX_AXIOM
    doc = json.loads(capsys.readouterr().out)
    checks = doc["checks"] if command == "validate" else doc["stages"]["axioms"]["checks"]
    assert any(not c["passed"] for c in checks)
    assert not any(c["name"].startswith("antipode") for c in checks)  # stage 2 never ran


def test_crossprod_translation(capsys):
    assert main(["crossprod", "translation", "3", "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["crossed_dim"] == 9
    assert doc["expected_dim"] == 9
    assert doc["block_sizes"] == [3]
    assert doc["galois_bijective"] is True
    assert doc["regular"] is False
    assert any("(ii)" in c for c in doc["failing_clauses"])


def test_crossprod_translation_usage_error(capsys):
    assert main(["crossprod", "translation", "nonsense"]) == EX_USAGE


def test_crossprod_dual_regular(tmp_path, capsys):
    p2 = wk.pair_groupoid_wha(2)
    path = tmp_path / "p2.wha.json"
    whafile.save(p2, path)
    assert main(["crossprod", "dual-regular", str(path), "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["crossed_dim"] == 8
    assert doc["block_sizes"] == [2, 2]
    assert doc["regular"] is True
    assert doc["failing_clauses"] == []


def test_crossprod_smash(z3_file, capsys):
    assert main(["crossprod", "smash", z3_file, "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["crossed_dim"] == 9
    assert doc["block_sizes"] == [3]


def test_crossprod_smash_reports_the_galois_domain(m23_file, capsys):
    # dim M x| A = dim M (x)_N M = 89, not dim M * dim A / dim A^L = 84
    assert main(["crossprod", "smash", m23_file]) == EX_OK
    out = capsys.readouterr().out
    assert "crossed product dim 89 (M ⊗_N M: 89)" in out
    assert "galois map 89x89: bijective" in out


@pytest.mark.parametrize("tol", [None, "1e-8"], ids=["default", "1e-8"])
def test_crossprod_smash_checks_the_multiplicativity_of_delta_once(m23, m23_file, monkeypatch, capsys, tol):
    """The dual regular action's covariance row is the multiplicativity row of A's Delta, which the
    validating load keeps in A's derived structures: one sliced-kernel call per tolerance, and the
    action's row carries the load's residual, bitwise, against its own threshold."""
    calls = []
    kernel = wk.algebra._covariance_defect

    def counting(*args):
        calls.append(args[0].shape[0])
        return kernel(*args)

    for module in (wk.algebra, wk.wha, wk.actions):
        monkeypatch.setattr(module, "_covariance_defect", counting)
    argv = ["crossprod", "smash", m23_file, "--format", "json"] + ([] if tol is None else ["--tol", tol])
    assert main(argv) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert calls == [m23.dim]
    [row] = [r for r in doc["action_checks"] if r["name"] == "action-module-algebra"]
    want = kernel(m23.algebra.c, m23.delta3.transpose(1, 2, 0), m23.algebra.c)
    assert row["residual"] == want and row["passed"]


def test_crossprod_trivial_is_not_galois(z3_file, capsys):
    assert main(["crossprod", "trivial", z3_file, "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["crossed_dim"], doc["expected_dim"]) == (3, 1)
    assert doc["galois_shape"] == [3, 1]
    assert doc["galois_bijective"] is False
    assert doc["block_sizes"] == [1, 1, 1]
    assert "galois_absent" not in doc and "crossed_absent" not in doc


def test_crossprod_trivial_with_an_empty_quotient_reports_it_absent(tmp_path, capsys):
    # p3's counit is not multiplicative, so its trivial action fails two axiom rows and
    # M (x)_(A^L) A is 0-dimensional
    path = tmp_path / "p3.wha.json"
    whafile.save(wk.pair_groupoid_wha(3), path)
    assert main(["crossprod", "trivial", str(path), "--format", "json"]) == EX_AXIOM
    doc = json.loads(capsys.readouterr().out)
    assert doc["action_ok"] is False
    assert [c["name"] for c in doc["action_checks"] if not c["passed"]] == ["action-algebra-map", "action-unital"]
    assert doc["crossed_absent"]["absent"] == "EmptyQuotient"
    assert "0-dimensional" in doc["crossed_absent"]["reason"]
    assert doc["crossed_dim"] is doc["block_sizes"] is doc["regular"] is doc["galois_shape"] is None
    assert main(["crossprod", "trivial", str(path)]) == EX_AXIOM
    out = capsys.readouterr().out
    assert "crossed product absent (EmptyQuotient): " in out
    assert "FAIL  action-algebra-map" in out


def test_crossprod_reports_the_product_route(z3_file, m23_file, h4, tmp_path, capsys):
    """Galois actions take the Wedderburn form; Sweedler's H4 has no Haar integral, so no invariants,
    and takes the dense route with its one block of size 4; Z_3 acting trivially on C is not Galois
    and takes the dense route."""
    h4_file = tmp_path / "h4.wha.json"
    whafile.save(h4, h4_file)
    cases = [
        (["smash", m23_file], "wedderburn"),
        (["dual-regular", z3_file], "wedderburn"),
        (["translation", "3"], "wedderburn"),
        (["smash", str(h4_file)], "dense"),
        (["trivial", z3_file], "dense"),
    ]
    for args, route in cases:
        assert main(["crossprod", *args, "--format", "json"]) == EX_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["product_route"] == route, args
        if args[1] == str(h4_file):
            assert doc["block_sizes"] == [4]
    assert main(["crossprod", "smash", m23_file]) == EX_OK
    assert "product route: wedderburn" in capsys.readouterr().out
    p3_file = tmp_path / "p3.wha.json"
    whafile.save(wk.pair_groupoid_wha(3), p3_file)
    assert main(["crossprod", "trivial", str(p3_file), "--format", "json"]) == EX_AXIOM
    assert json.loads(capsys.readouterr().out)["product_route"] is None


@pytest.mark.parametrize("kind", ["smash", "dual-regular", "trivial"])
def test_crossprod_without_a_haar_integral_reports_the_galois_map_absent(h4, kind, tmp_path, capsys):
    # h4 and its dual have no Haar integral, so there are no invariants to take M (x)_N M over
    path = tmp_path / "h4.wha.json"
    whafile.save(h4, path)
    assert main(["crossprod", kind, str(path), "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["action_ok"] is True
    assert doc["galois_absent"]["absent"] == "NotSemisimple"
    assert "no Haar integral" in doc["galois_absent"]["reason"]
    assert doc["expected_dim"] is doc["galois_shape"] is doc["galois_bijective"] is None
    if kind != "trivial":
        assert (doc["crossed_dim"], doc["block_sizes"]) == (16, [4])
    assert main(["crossprod", kind, str(path)]) == EX_OK
    assert "galois map absent (NotSemisimple): " in capsys.readouterr().out


def test_output_flag_writes_file_instead_of_stdout(z3_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["validate", z3_file, "--format", "json", "-o", str(out)]) == EX_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["ok"] is True


def test_analyze_wha_is_reusable_in_memory(z3):
    doc = analyze_wha(z3)
    assert doc["ok"] is True
    assert doc["stages"]["sectors"]["delta"] == pytest.approx(3.0, abs=1e-9)
    assert doc["stages"]["haar"]["criterion"] is True


def test_analyze_computes_each_derived_structure_once(monkeypatch):
    """One analyze run builds each derived structure once per algebra.

    The computing functions are wrapped wherever a whakit module holds them,
    so calls through a name imported into another module are counted too.
    Block decompositions are counted where they are computed, in the
    ``_decompose`` of both storages, since ``block_decomposition`` is also
    the accessor that reads them.  A fresh algebra is used because the
    session fixtures keep their caches; it is built before the wrappers go
    in, since building it validates it.
    """
    expected = {
        "wha.dual_wha": 1,
        "wha.validate_wba": 0,  # from_wba kept its report when it built the algebra
        "integrals.haar_integral": 2,  # h and the dual's h^
        "integrals.canonical_grouplike": 2,  # A and A^
        "reptheory.sector_dimensions": 2,  # A and A^
        "reptheory.standard_solutions": 4,  # two sectors on each side
        "algebra._decompose": 2,  # the corner and its subalgebra; the antipode solve built A's and A^'s
        "algebra.gns_rep": 4,  # the Haar states of A and A^, and D_eps of each
        "reptheory.monoidal_product": 8,  # two per standard solution
        "reptheory.intertwiner_space": 10,  # two per standard solution, End(D_eps) of A and A^
    }
    w = wk.m2_m3()
    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for key, m in sys.modules.items() if key == "whakit" or key.startswith("whakit.")]
    for name in expected:
        if name == "algebra._decompose":
            for storage in (wk.FinDimAlgebra, wk.WedderburnAlgebra):
                monkeypatch.setattr(storage, "_decompose", counting(name, vars(storage)["_decompose"]))
            continue
        modname, attr = name.split(".")
        original = getattr(sys.modules[f"whakit.{modname}"], attr)
        wrapper = counting(name, original)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, wrapper)
    doc = analyze_wha(w)
    assert doc["ok"] and not doc["failed"]
    assert calls == expected
    assert w.dual.dual is w


def test_analyze_forms_each_trace_form_and_center_once_per_algebra(monkeypatch):
    """Building an algebra and one analyze run on it ask several stages whether
    an algebra is semisimple and for its center; each algebra object forms its
    trace form once and returns one center object, however often it is asked."""
    forms, centers = {}, {}
    trace_form, center = wk.FinDimAlgebra.trace_form, wk.FinDimAlgebra.center

    def counting_form(self):
        forms[id(self)] = forms.get(id(self), 0) + 1
        return trace_form(self)

    def collecting_center(self, tol=None):
        got = center(self, tol)
        centers.setdefault(id(self), []).append(got)
        return got

    monkeypatch.setattr(wk.FinDimAlgebra, "trace_form", counting_form)
    monkeypatch.setattr(wk.FinDimAlgebra, "center", collecting_center)
    assert analyze_wha(wk.m2_m3())["ok"]
    assert forms and set(forms.values()) == {1}
    assert centers and all(all(z is zs[0] for z in zs) for zs in centers.values())
    assert max(len(zs) for zs in centers.values()) > 1  # the cache was hit


def test_gate_validates_the_algebra_once(monkeypatch):
    """Building A and one analyze run on it, and one validating load, check the
    algebra axioms of A and of Â once each (Â's are A's coalgebra axioms):
    ``from_wba`` keeps the report for the gate."""
    calls = []
    original = wk.FinDimAlgebra.validate

    def counting(self, tol=None):
        calls.append(self.name)
        return original(self, tol)

    monkeypatch.setattr(wk.FinDimAlgebra, "validate", counting)
    w = wk.m2_m3()
    assert analyze_wha(w)["ok"]
    assert calls == [w.name, f"{w.name}^"]
    calls.clear()
    whafile.loads(whafile.dumps(w))
    assert calls == [w.name, f"{w.name}^"]
