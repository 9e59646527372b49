"""One residual per axiom law, against the einsum forms each law had before.

The library computes A's coalgebra rows as the algebra rows of Â, the weak
unit and weak counit rows with one helper, every multiplicativity defect with
``FinDimAlgebra.homomorphism_defect`` and both anti-multiplicativity rows with
``algebra._antimultiplicative_norm``.  The references below are the direct
einsum forms of the same laws.  Every report must keep its row names, order,
thresholds and verdicts, with residuals within 1e-13 absolute or 1e-10
relative, on canonical, complex-rotated and perturbed inputs.
"""

import tracemalloc

import numpy as np
import pytest

import whakit as wk
from whakit.config import DEFAULT_TOL as TOL
from whakit.errors import WhakitError
from whakit.linalg import Subspace
from whakit.wha import antipode_report

KEYS = ["z3", "s3", "p3", "fp2", "m23", "p4", "h4"]
FIELDS = ["unit", "counit", "comultiplication", "structure_constants", "antipode", "involution"]


# -- reference forms --------------------------------------------------------


def _ref_algebra_rows(alg):
    c, n = alg.c, alg.dim
    scale = float(np.linalg.norm(c)) or 1.0
    eye = np.eye(n)
    left = np.einsum("ijp,pkm->ijkm", c, c, optimize=True)
    right = np.einsum("jkp,ipm->ijkm", c, c, optimize=True)
    rows = [
        ("associativity", np.linalg.norm(left - right), TOL.bound(scale**2)),
        ("left-unit", np.linalg.norm(np.einsum("i,ijk->jk", alg.unit, c) - eye), TOL.bound(scale)),
        ("right-unit", np.linalg.norm(np.einsum("j,ijk->ik", alg.unit, c) - eye), TOL.bound(scale)),
    ]
    if alg.involution is not None:
        s = alg.involution
        lhs = np.einsum("ijm,km->ijk", np.conj(c), s)  # (e_i e_j)*
        rhs = np.einsum("pj,qi,pqk->ijk", s, s, c, optimize=True)  # e_j* e_i*
        rows += [
            ("star-involutive", np.linalg.norm(s @ np.conj(s) - eye), TOL.bound(scale)),
            ("star-antimultiplicative", np.linalg.norm(lhs - rhs), TOL.bound(scale**2)),
            ("unit-star", np.linalg.norm(alg.star(alg.unit) - alg.unit), TOL.bound(1.0)),
        ]
    return rows


def _ref_star_coalgebra_rows(w):
    inv, d3, eps = w.algebra.involution, w.delta3, w.eps
    scale = max(1.0, float(np.linalg.norm(w.algebra.c)), float(np.linalg.norm(d3)))
    lhs = np.einsum("abm,mj->abj", d3, inv)
    rhs = np.einsum("pqj,ap,bq->abj", np.conj(d3), inv, inv, optimize=True)
    return [
        ("comultiplication-star-compatible", np.linalg.norm(lhs - rhs), TOL.bound(scale**2)),
        ("counit-star-compatible", np.linalg.norm(eps @ inv - np.conj(eps)), TOL.bound(scale)),
    ]


def _ref_wba_rows(w):
    c, d3, eps = w.algebra.c, w.delta3, w.eps
    n = w.dim
    scale = max(1.0, float(np.linalg.norm(c)), float(np.linalg.norm(d3)))
    rows = _ref_algebra_rows(w.algebra)
    t1 = np.einsum("abp,pqj->abqj", d3, d3, optimize=True)
    t2 = np.einsum("pqj,bcq->pbcj", d3, d3, optimize=True)
    eye = np.eye(n)
    rows += [
        ("coassociativity", np.linalg.norm(t1 - t2), TOL.bound(scale**2)),
        ("counit-left", np.linalg.norm(np.einsum("p,pkj->kj", eps, d3) - eye), TOL.bound(scale**2)),
        ("counit-right", np.linalg.norm(np.einsum("q,kqj->kj", eps, d3) - eye), TOL.bound(scale**2)),
    ]
    lhs = np.einsum("ijm,abm->abij", c, d3, optimize=True)
    rhs = np.einsum("pqi,PQj,pPa,qQb->abij", d3, d3, c, c, optimize=True)
    rows.append(("comultiplication-multiplicative", np.linalg.norm(lhs - rhs), TOL.bound(scale**3)))
    w1 = w.delta1
    d2_unit = np.einsum("abp,pq->abq", d3, w1)
    r1 = np.einsum("ai,jc,ijm->amc", w1, w1, c, optimize=True)
    r2 = np.einsum("pq,ij,pjm->imq", w1, w1, c, optimize=True)
    rows += [
        ("unit-comultiplication-compatibility", np.linalg.norm(d2_unit - r1), TOL.bound(scale**2)),
        ("unit-comultiplication-compatibility-opposite", np.linalg.norm(d2_unit - r2), TOL.bound(scale**2)),
    ]
    feps = np.einsum("ijm,m->ij", c, eps)
    lhs1 = np.einsum("pqj,ip,qk->ijk", d3, feps, feps, optimize=True)
    lhs2 = np.einsum("pqj,iq,pk->ijk", d3, feps, feps, optimize=True)
    rhs3 = np.einsum("ijm,mkl,l->ijk", c, c, eps, optimize=True)
    rows += [
        ("counit-weak-multiplicativity", np.linalg.norm(lhs1 - rhs3), TOL.bound(scale**3)),
        ("counit-weak-multiplicativity-opposite", np.linalg.norm(lhs2 - rhs3), TOL.bound(scale**3)),
    ]
    if w.algebra.involution is not None:
        rows += _ref_star_coalgebra_rows(w)
    return rows


def _ref_antipode_star_row(w):
    inv, s = w.algebra.involution, w.antipode
    comp = inv @ np.conj(s @ inv @ np.conj(s))
    return ("antipode-star-compatible", np.linalg.norm(comp - np.eye(w.dim)), TOL.bound(float(np.linalg.norm(s)) ** 2))


def _ref_star_rows(w):
    return _ref_algebra_rows(w.algebra) + [_ref_antipode_star_row(w)] + _ref_star_coalgebra_rows(w)


def _ref_antipode_rows(w):
    c, s = w.algebra.c, w.antipode
    scale = max(1.0, float(np.linalg.norm(c)) * float(np.linalg.norm(s)))
    lhs = np.einsum("ijm,km->ijk", c, s)  # S(e_i e_j)
    rhs = np.einsum("pj,qi,pqk->ijk", s, s, c, optimize=True)  # S(e_j) S(e_i)
    sub = w.derived(TOL).counital_subalgebras
    swaps = Subspace(s @ sub.left.basis, w.dim, TOL).equals(sub.right, TOL.scaled(100))
    svals = np.linalg.svd(s, compute_uv=False)
    return [
        ("antipode-antimultiplicative", np.linalg.norm(lhs - rhs), TOL.bound(scale**2)),
        ("antipode-unit", np.linalg.norm(w.s(w.unit) - w.unit), TOL.bound(1.0)),
        ("antipode-swaps-counital-subalgebras", 0.0 if swaps else 1.0, 0.5),
        ("antipode-invertible", 0.0 if svals[-1] > TOL.bound(svals[0]) else 1.0, 0.5),
    ]


def _ref_action_rows(action):
    w, m_alg, alpha = action.wha, action.module, action.alpha
    scale = max(1.0, float(np.linalg.norm(alpha)))
    ops = alpha.transpose(0, 2, 1)
    lhs = np.einsum("iab,jbc->ijac", ops, ops, optimize=True)
    rhs = np.einsum("ijk,kac->ijac", w.algebra.c, ops, optimize=True)
    cm = m_alg.c
    lhs2 = np.einsum("jJr,trk->tjJk", cm, alpha, optimize=True)
    rhs2 = np.einsum("pqt,pja,qJb,abk->tjJk", w.delta3, alpha, alpha, cm, optimize=True)
    pi_l, _ = w.counital_maps
    lhs3 = np.einsum("tjk,j->kt", alpha, m_alg.unit)
    rhs3 = np.einsum("it,ijk,j->kt", pi_l, alpha, m_alg.unit, optimize=True)
    rows = [
        ("action-algebra-map", np.linalg.norm(lhs - rhs), TOL.bound(scale**2) * 10),
        ("action-unital", np.linalg.norm(action.amat(w.unit) - np.eye(m_alg.dim)), TOL.bound(scale) * 10),
        ("action-module-algebra", np.linalg.norm(lhs2 - rhs2), TOL.bound(scale**2) * 10),
        ("action-unit-invariance", np.linalg.norm(lhs3 - rhs3), TOL.bound(scale) * 10),
    ]
    if m_alg.involution is not None and w.algebra.involution is not None:
        k = w.algebra.involution @ np.conj(w.antipode)
        lhs4 = np.einsum("kr,tjr->tjk", m_alg.involution, np.conj(alpha), optimize=True)
        rhs4 = np.einsum("it,irk,rj->tjk", k, alpha, m_alg.involution, optimize=True)
        rows.append(("action-star", np.linalg.norm(lhs4 - rhs4), TOL.bound(scale) * 10))
    return rows


def _ref_representation_rows(rep):
    c, mats = rep.wha.algebra.c, rep.matrices
    scale = max(1.0, float(np.linalg.norm(mats)))
    lhs = np.einsum("iab,jbc->ijac", mats, mats, optimize=True)
    rhs = np.einsum("ijk,kac->ijac", c, mats, optimize=True)
    return [
        ("representation-multiplicative", np.linalg.norm(lhs - rhs), TOL.bound(scale**2) * 10),
        ("representation-unital", np.linalg.norm(rep.apply(rep.wha.unit) - np.eye(rep.dim)), TOL.bound(scale) * 10),
    ]


def _assert_rows_match(report, reference):
    assert [c.name for c in report.checks] == [name for name, _, _ in reference]
    for check, (name, residual, threshold) in zip(report.checks, reference):
        assert check.threshold == pytest.approx(threshold, rel=1e-12), name
        assert check.passed == (residual <= threshold), name
        assert abs(check.residual - residual) <= max(1e-13, 1e-10 * abs(residual)), (name, check.residual, residual)


# -- inputs -------------------------------------------------------------------


def _variants(examples, rotated, key):
    """``key`` canonical, complex-rotated, and rotated with each field perturbed by 1e-3."""
    w = examples[key]
    turned = rotated(w, 17)
    fields = [f for f in FIELDS if f != "involution" or w.algebra.involution is not None]
    return [w, turned] + [wk.perturb(turned, field=f, magnitude=1e-3, seed=5) for f in fields]


@pytest.mark.parametrize("key", KEYS)
def test_weak_bialgebra_and_star_rows_match_their_einsum_forms(examples, rotated, key):
    for w in _variants(examples, rotated, key):
        _assert_rows_match(wk.validate_wba(w), _ref_wba_rows(w))
        if w.algebra.involution is not None:
            _assert_rows_match(wk.validate_star(w), _ref_star_rows(w))


@pytest.mark.parametrize("key", KEYS)
def test_antipode_rows_match_their_einsum_forms(examples, rotated, key):
    for w in _variants(examples, rotated, key):
        try:
            report = antipode_report(w)
        except WhakitError as exc:  # a perturbed input whose counital subalgebras fail their cross-check
            with pytest.raises(type(exc)):
                _ref_antipode_rows(w)
            continue
        _assert_rows_match(report, _ref_antipode_rows(w))


def test_a_perturbed_antipode_fails_the_antimultiplicative_row(examples):
    w = examples["m23"]
    bad = wk.WeakHopfAlgebra(w.algebra, w.delta, w.eps, w.antipode + 1e-3 * np.eye(w.dim))
    rows = {c.name: c for c in antipode_report(bad).checks}
    assert not rows["antipode-antimultiplicative"].passed


def _action_variants(examples, rotated):
    """Dual regular and arrow actions of canonical and rotated algebras, each with a perturbed twin."""
    out = []
    for key in ("p2", "s3", "m23", "p4"):
        for w in (examples[key], rotated(examples[key], 23)):
            for act in (wk.dual_regular_action(w), wk.arrow_action(w)):
                bent = act.alpha + 1e-3 * np.random.default_rng(3).standard_normal(act.alpha.shape)
                out += [act, wk.WhaAction(act.wha, act.module, bent, name="bent")]
    return out


def test_action_rows_match_their_einsum_forms(examples, rotated):
    failed = 0
    for act in _action_variants(examples, rotated):
        report = wk.validate_action(act)
        _assert_rows_match(report, _ref_action_rows(act))
        failed += not report.ok
    assert failed == 16  # every perturbed action is rejected


@pytest.mark.parametrize("key", ["s3", "m23", "p4"])
def test_representation_rows_match_their_einsum_forms(examples, rotated, key):
    for w in (examples[key], rotated(examples[key], 29)):
        reps = wk.irreducible_representations(w) + [wk.regular_representation(w)]
        bent = wk.regular_representation(w)
        bent.matrices = bent.matrices + 1e-3
        for rep in reps + [bent]:
            _assert_rows_match(rep.validate(), _ref_representation_rows(rep))
        assert not bent.validate().ok


def test_ising_coassociativity_certificate_bounds_the_dense_norm(ising):
    """From n = 32 on Â's associativity row, and so ``coassociativity``, may report
    the Wedderburn certificate: never below the dense norm, and passing."""
    assert ising.dim >= wk.algebra.CERTIFY_ASSOCIATIVITY_FROM_DIM
    rows = {c.name: c for c in wk.validate_wba(ising).checks}
    dense = dict((name, value) for name, value, _ in _ref_wba_rows(ising))["coassociativity"]
    assert rows["coassociativity"].passed
    assert rows["coassociativity"].residual >= dense


def test_ising_validate_wba_peak_memory(ising):
    """The coassociativity tensors are gone: a cold-cache Ising validation peaks
    below 130 MiB under tracemalloc (163 MiB with them)."""
    a = ising.algebra
    cold = wk.WeakBialgebra(wk.FinDimAlgebra(a.c, a.unit, involution=a.involution, name="cold"), ising.delta, ising.eps)
    tracemalloc.start()
    try:
        assert wk.validate_wba(cold).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 130 * 2**20, peak / 2**20


def test_the_smash_product_computes_its_action_report_once(examples, monkeypatch):
    calls = []
    original = wk.FinDimAlgebra.homomorphism_defect

    def counting(self, images, into=None):
        if into is None:  # the matrix form, as the action-algebra-map row calls it
            calls.append(images.shape)
        return original(self, images, into)

    monkeypatch.setattr(wk.FinDimAlgebra, "homomorphism_defect", counting)
    w = examples["m23"]
    out = wk.smash_product(w)
    report = wk.validate_action(out.action)
    again = wk.crossed_product(out.action)
    assert len(calls) == 1
    assert report.ok and report is wk.validate_action(out.action)
    assert again.dim == out.dim == 89
