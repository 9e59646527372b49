"""Weak bialgebra / weak Hopf layer: axioms, antipode, duality, subalgebras."""

import numpy as np
import pytest

import whakit as wk
from whakit import wha, whafile
from whakit.wha import antipode_report

ALL = ["z2", "z3", "z4", "z5", "s3", "p2", "p3", "p4", "fp2", "h4", "m23"]
STAR = [k for k in ALL if k != "h4"]

# key -> (A^L, A^R, Z^L, Z^R, hypercenter)
SUBALGEBRA_DIMS = {
    "z2": (1, 1, 1, 1, 1),
    "z3": (1, 1, 1, 1, 1),
    "z4": (1, 1, 1, 1, 1),
    "z5": (1, 1, 1, 1, 1),
    "s3": (1, 1, 1, 1, 1),
    "p2": (2, 2, 1, 1, 1),
    "p3": (3, 3, 1, 1, 1),
    "p4": (4, 4, 1, 1, 1),
    "fp2": (2, 2, 2, 2, 1),
    "h4": (1, 1, 1, 1, 1),
    "m23": (2, 2, 1, 1, 1),
}

WEAK_KAC = {k: k not in ("m23", "h4") for k in ALL}


@pytest.mark.parametrize("key", ALL)
def test_axioms_pass(examples, key):
    rep = wk.validate_wba(examples[key])
    assert rep.ok, [f.name for f in rep.failures]


@pytest.mark.parametrize("key", STAR)
def test_star_axioms_pass(examples, key):
    rep = wk.validate_star(examples[key])
    assert rep.ok, [f.name for f in rep.failures]


def test_star_requires_involution(h4):
    with pytest.raises(wk.NoInvolution):
        wk.validate_star(h4)


@pytest.mark.parametrize("key", ["s3", "m23"])
def test_star_report_carries_the_coalgebra_star_rows_of_validate_wba(examples, key):
    w = examples[key]
    star = wk.validate_star(w)
    names = [c.name for c in w.algebra.validate().checks] + [
        "antipode-star-compatible",
        "comultiplication-star-compatible",
        "counit-star-compatible",
    ]
    assert [c.name for c in star.checks] == names
    wba = {c.name: c for c in wk.validate_wba(w).checks}
    for c in star.checks[-2:]:
        assert (c.residual, c.threshold) == (wba[c.name].residual, wba[c.name].threshold)


@pytest.mark.parametrize("key", ["s3", "h4"])
def test_gate_appends_the_antipode_rows_to_validate_wba(examples, key):
    w = examples[key]
    names = [c.name for c in wk.validate_wba(w).checks] + ["antipode agrees with solved antipode"]
    names += [c.name for c in antipode_report(w).checks]
    if w.algebra.involution is not None:
        names.append("antipode-star-compatible")
    rep = wk.validate_wha(w)
    assert rep.ok
    assert [c.name for c in rep.checks] == names


def test_gate_stops_after_a_failed_weak_bialgebra_row(z3):
    broken = wk.perturb(z3, field="unit", magnitude=1e-3, seed=0)
    rep = wk.validate_wha(broken)
    assert not rep.ok
    assert rep.checks == wk.validate_wba(broken).checks


def test_gate_reports_a_missing_antipode_as_one_row(idempotent_monoid):
    assert wk.validate_wba(idempotent_monoid).ok
    rep = wk.validate_wha(idempotent_monoid)
    [bad] = rep.failures
    assert bad.name == "antipode solvable (NoAntipode)"  # x S(x) = 1 has no solution
    assert (bad.residual, bad.threshold) == (float("inf"), 0.0)
    names = [c.name for c in rep.checks]
    assert "antipode-invertible" in names  # the other stage-2 rows still run
    assert names[-1] == "antipode-star-compatible"
    with pytest.raises(wk.ValidationError):
        rep.raise_if_failed()


def _count_antipode_solves(monkeypatch):
    calls = []
    solve = wha.solve_antipode

    def wrapper(w, tol=None):
        calls.append(w.name)
        return solve(w, tol)

    monkeypatch.setattr(wha, "solve_antipode", wrapper)
    return calls


def test_gate_reuses_the_antipode_solved_at_construction(monkeypatch):
    w = wk.m2_m3()  # fusion_wha solves the antipode once, through from_wba
    calls = _count_antipode_solves(monkeypatch)
    assert wk.validate_wha(w).ok
    assert calls == []


def test_loading_without_an_antipode_solves_it_once(z3, monkeypatch):
    doc = whafile.to_dict(z3)
    del doc["antipode"]
    calls = _count_antipode_solves(monkeypatch)
    whafile.from_dict(doc, validate=True)
    assert len(calls) == 1


def test_counital_subalgebras_are_cached_per_tolerance():
    w = wk.m2_m3()
    loose = wk.Tolerance(1e-6, 1e-6)
    default = w.derived().counital_subalgebras
    other = w.derived(loose).counital_subalgebras
    assert other is not default
    assert w.counital_subalgebras is default
    assert w.derived(wk.Tolerance(1e-9, 1e-9)).counital_subalgebras is default
    assert w.derived(loose).counital_subalgebras is other
    assert default.left.tol == wk.DEFAULT_TOL
    assert other.left.tol == other.hypercenter.tol == loose
    assert other.left.dim == default.left.dim == 2


@pytest.mark.parametrize("key", ALL)
def test_counital_subalgebra_dims(examples, key):
    sub = examples[key].counital_subalgebras
    got = (
        sub.left.dim,
        sub.right.dim,
        sub.center_left.dim,
        sub.center_right.dim,
        sub.hypercenter.dim,
    )
    assert got == SUBALGEBRA_DIMS[key]


@pytest.mark.parametrize("key", ALL)
def test_counital_maps_are_idempotent_onto_their_subalgebras(examples, key):
    w = examples[key]
    pi_l, pi_r = w.counital_maps
    sub = w.counital_subalgebras
    assert np.linalg.norm(pi_l @ pi_l - pi_l) < 1e-9
    assert np.linalg.norm(pi_r @ pi_r - pi_r) < 1e-9
    assert np.linalg.matrix_rank(pi_l, tol=1e-9) == sub.left.dim
    assert np.linalg.matrix_rank(pi_r, tol=1e-9) == sub.right.dim


@pytest.mark.parametrize("key", ALL)
def test_solved_antipode_matches_stored(examples, key):
    w = examples[key]
    s = wk.solve_antipode(w)
    assert np.linalg.norm(s - w.antipode) < 1e-9


@pytest.mark.parametrize("key", ALL)
def test_antipode_laws(examples, key):
    rep = antipode_report(examples[key])
    assert rep.ok, [f.name for f in rep.failures]


@pytest.mark.parametrize("key", ALL)
def test_weak_kac_flag(examples, key):
    assert wk.is_weak_kac(examples[key]) is WEAK_KAC[key]


def test_sweedler_antipode_has_order_four(h4):
    s = h4.antipode
    assert np.linalg.norm(s @ s - np.eye(4)) > 0.5
    assert np.linalg.norm(s @ s @ s @ s - np.eye(4)) < 1e-12


# --------------------------------------------------------------------------
# perturbation rejection (spot checks; the exhaustive sweep is an acceptance
# test)


def _first_violation(w):
    """Name of the first failed check of the staged rejection pipeline."""
    rep = wk.validate_wha(w)
    return None if rep.ok else rep.failures[0].name


@pytest.mark.parametrize("field", [
    "structure_constants", "unit", "counit", "comultiplication", "antipode", "involution",
])
@pytest.mark.parametrize("key", ["z3", "fp2"])
def test_single_coefficient_perturbations_are_rejected(examples, key, field):
    broken = wk.perturb(examples[key], field=field, magnitude=1e-3, seed=5)
    assert _first_violation(broken) is not None


def test_unperturbed_fixture_passes_the_pipeline(z3):
    assert _first_violation(z3) is None


# --------------------------------------------------------------------------
# duality


@pytest.mark.parametrize("key", STAR)
def test_dual_is_a_valid_star_wha(examples, key):
    d = wk.dual_wha(examples[key])
    assert wk.validate_wba(d).ok
    assert d.algebra.involution is not None
    assert wk.validate_star(d).ok


def test_dual_of_h4_has_no_involution(h4):
    d = wk.dual_wha(h4)
    assert d.algebra.involution is None
    assert wk.validate_wba(d).ok


@pytest.mark.parametrize("key", ALL)
def test_bidual_reproduces_the_original(examples, key):
    w = examples[key]
    bid = wk.dual_wha(wk.dual_wha(w))
    assert np.linalg.norm(bid.algebra.c - w.algebra.c) < 1e-10
    assert np.linalg.norm(bid.delta - w.delta) < 1e-10
    assert np.linalg.norm(bid.eps - w.eps) < 1e-10
    assert np.linalg.norm(bid.unit - w.unit) < 1e-10
    assert np.linalg.norm(bid.antipode - w.antipode) < 1e-10


def test_dual_pairing_swaps_product_and_coproduct(p2):
    # <phi psi, a> = <phi (x) psi, Delta(a)> on random covectors
    w, d = p2, wk.dual_wha(p2)
    r = np.random.default_rng(0x57484131)
    phi, psi = r.normal(size=(2, w.dim)) + 1j * r.normal(size=(2, w.dim))
    a = r.normal(size=w.dim)
    lhs = complex(d.mul(phi, psi) @ a)
    rhs = complex(np.einsum("pqj,p,q,j->", w.delta3, phi, psi, a))
    assert abs(lhs - rhs) < 1e-10


# --------------------------------------------------------------------------
# arrow actions


@pytest.mark.parametrize("key", ["z3", "p2", "m23"])
def test_arrows_are_module_actions(examples, key):
    w = examples[key]
    arr = wk.sweedler_arrows(w)
    d = wk.dual_wha(w)
    r = np.random.default_rng(0x57484131)
    a, b = r.normal(size=(2, w.dim)) + 1j * r.normal(size=(2, w.dim))
    phi, psi = r.normal(size=(2, w.dim)) + 1j * r.normal(size=(2, w.dim))
    x = r.normal(size=w.dim)
    # (ab) > phi = a > (b > phi);  phi < (ab) = (phi < a) < b
    assert np.linalg.norm(arr.act(w.mul(a, b), phi) - arr.act(a, arr.act(b, phi))) < 1e-8
    assert np.linalg.norm(arr.ract(phi, w.mul(a, b)) - arr.ract(arr.ract(phi, a), b)) < 1e-8
    # pairing transport: <a > phi, x> = <phi, x a>,  <phi < a, x> = <phi, a x>
    assert abs(complex(arr.act(a, phi) @ x) - complex(phi @ w.mul(x, a))) < 1e-8
    assert abs(complex(arr.ract(phi, a) @ x) - complex(phi @ w.mul(a, x))) < 1e-8
    # dual-side arrows are module actions of the dual algebra on A
    assert np.linalg.norm(arr.dact(d.mul(phi, psi), x) - arr.dact(phi, arr.dact(psi, x))) < 1e-8
    assert np.linalg.norm(arr.rdact(x, d.mul(phi, psi)) - arr.rdact(arr.rdact(x, phi), psi)) < 1e-8


# --------------------------------------------------------------------------
# seeded property checks of the bialgebra laws on random elements


@pytest.mark.parametrize("key", ["z4", "s3", "p3", "m23", "h4"])
def test_coproduct_is_multiplicative_on_random_elements(examples, key):
    w = examples[key]
    r = np.random.default_rng(0x57484131)
    a, b = r.normal(size=(2, w.dim)) + 1j * r.normal(size=(2, w.dim))
    da, db = w.coproduct(a), w.coproduct(b)
    dab = w.coproduct(w.mul(a, b))
    prod = np.einsum("pq,PQ,pPx,qQy->xy", da, db, w.algebra.c, w.algebra.c, optimize=True)
    assert np.linalg.norm(dab - prod) < 1e-8


@pytest.mark.parametrize("key", ["z4", "s3", "p3", "m23", "h4"])
def test_counit_reproduces_elements(examples, key):
    w = examples[key]
    r = np.random.default_rng(1)
    a = r.normal(size=w.dim) + 1j * r.normal(size=w.dim)
    da = w.coproduct(a)
    assert np.linalg.norm(w.eps @ da - a) < 1e-9  # (eps (x) id) Delta = id
    assert np.linalg.norm(da @ w.eps - a) < 1e-9  # (id (x) eps) Delta = id


@pytest.mark.parametrize("key", ["z4", "s3", "p3", "m23", "h4"])
def test_antipode_is_an_antihomomorphism(examples, key):
    w = examples[key]
    r = np.random.default_rng(2)
    a, b = r.normal(size=(2, w.dim)) + 1j * r.normal(size=(2, w.dim))
    assert np.linalg.norm(w.s(w.mul(a, b)) - w.mul(w.s(b), w.s(a))) < 1e-8


@pytest.mark.parametrize("key", ["s3", "p3", "m23"])
def test_antipode_counital_projections(examples, key):
    # a_(1) S(a_(2)) = pi^L(a) and S(a_(1)) a_(2) = pi^R(a)
    w = examples[key]
    pi_l, pi_r = w.counital_maps
    r = np.random.default_rng(3)
    a = r.normal(size=w.dim) + 1j * r.normal(size=w.dim)
    left = np.zeros(w.dim, dtype=complex)
    right = np.zeros(w.dim, dtype=complex)
    d3 = w.delta3
    for p in range(w.dim):
        for q in range(w.dim):
            coeff = complex(d3[p, q] @ a)
            if abs(coeff) < 1e-14:
                continue
            e_p = np.zeros(w.dim)
            e_q = np.zeros(w.dim)
            e_p[p] = 1.0
            e_q[q] = 1.0
            left += coeff * w.mul(e_p, w.s(e_q))
            right += coeff * w.mul(w.s(e_p), e_q)
    assert np.linalg.norm(left - pi_l @ a) < 1e-8
    assert np.linalg.norm(right - pi_r @ a) < 1e-8


# --------------------------------------------------------------------------
# separability and hypercentral splitting


@pytest.mark.parametrize("key", ["z3", "p2", "fp2", "m23"])
def test_separability_structure(examples, key):
    sep = wk.separability_structure(examples[key])
    assert sep.report.ok
    w1 = examples[key].delta1
    assert np.linalg.norm(sep.left_legs @ sep.right_legs.T - w1) < 1e-9


def test_hypercentral_components_split_disjoint_unions():
    g = wk.disjoint_union(wk.pair_groupoid(2), wk.cyclic_group(2))
    w = wk.groupoid_wha(g)
    assert w.counital_subalgebras.hypercenter.dim == 2
    comps = wk.hypercentral_components(w)
    assert sorted(c.dim for c in comps) == [2, 4]
    for c in comps:
        assert wk.validate_wba(c).ok
        assert c.counital_subalgebras.hypercenter.dim == 1


def test_indecomposable_fixture_does_not_split(p2):
    comps = wk.hypercentral_components(p2)
    assert len(comps) == 1
