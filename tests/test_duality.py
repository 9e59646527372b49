"""Â as A read backwards: the dual and the canonical actions share A's arrays,
and one sliced kernel checks both the multiplicativity of Delta and the
covariance of an action, against the four-operand einsums it replaces."""

import tracemalloc

import numpy as np
import pytest

import whakit as wk
from whakit import actions, wha
from whakit.algebra import _covariance_defect

KEYS = ["z3", "s3", "p3", "fp2", "m23", "p4"]


def _multiplicative_reference(c, d3):
    """``|Delta(e_i e_j) - Delta(e_i) Delta(e_j)|_F``, the einsum form of ``validate_wba``'s row."""
    lhs = np.einsum("ijm,abm->abij", c, d3, optimize=True)
    rhs = np.einsum("pqi,PQj,pPa,qQb->abij", d3, d3, c, c, optimize=True)
    return float(np.linalg.norm(lhs - rhs))


def _covariance_reference(c_m, alpha, d3):
    """``|alpha_t(m_j m_k) - alpha_{t_(1)}(m_j) alpha_{t_(2)}(m_k)|_F``, the einsum form of ``validate_action``'s row."""
    lhs = np.einsum("jJr,trk->tjJk", c_m, alpha, optimize=True)
    rhs = np.einsum("pqt,pja,qJb,abk->tjJk", d3, alpha, alpha, c_m, optimize=True)
    return float(np.linalg.norm(lhs - rhs))


def _close(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _variant(w, kind, rotated):
    """(c, Delta tensor) of ``w`` canonical, in a complex unitary basis, or with c + 1e-6 noise."""
    if kind == "rotated":
        w = rotated(w, seed=3)
    c = w.algebra.c
    if kind == "noisy":
        e = np.random.default_rng(0x57484131).standard_normal(c.shape)
        c = c + 1e-6 * e / np.linalg.norm(e)
    return c, w.delta3


@pytest.mark.parametrize("kind", ["canonical", "rotated", "noisy"])
@pytest.mark.parametrize("key", KEYS)
def test_covariance_kernel_matches_the_einsum_references(examples, rotated, key, kind):
    c, d3 = _variant(examples[key], kind, rotated)
    # Delta's multiplicativity, as the covariance of Â's arrow action on A
    _close(_covariance_defect(c, d3.transpose(1, 2, 0), c), _multiplicative_reference(c, d3))
    # the arrow action of A on Â and the dual regular action of Â on A
    _close(_covariance_defect(d3, c.transpose(1, 2, 0), d3), _covariance_reference(d3, c.transpose(1, 2, 0), d3))
    _close(_covariance_defect(c, d3.transpose(1, 2, 0), c), _covariance_reference(c, d3.transpose(1, 2, 0), c))


def test_covariance_kernel_slices_a_wider_action(examples):
    # dim A = 25 and dim M = 9: two slices of t, one of j, and an action of unequal dimensions
    w, m_alg = wk.pair_groupoid_wha(5), examples["p3"].algebra
    alpha = np.random.default_rng(7).standard_normal((w.dim, m_alg.dim, m_alg.dim))
    _close(_covariance_defect(m_alg.c, alpha, w.delta3), _covariance_reference(m_alg.c, alpha, w.delta3))


@pytest.mark.parametrize("key, kind, index", [("z3", "arrow", (0, 1, 2)), ("p2", "dual regular", (1, 0, 2))])
def test_action_row_matches_the_reference_on_a_broken_action(examples, key, kind, index):
    good = wk.arrow_action(examples[key]) if kind == "arrow" else wk.dual_regular_action(examples[key])
    alpha = good.alpha.copy()
    alpha[index] += 1e-2
    bad = wk.WhaAction(good.wha, good.module, alpha, name="broken")
    [row] = [check for check in wk.validate_action(bad).checks if check.name == "action-module-algebra"]
    _close(row.residual, _covariance_reference(good.module.c, alpha, good.wha.delta3))
    assert row.residual > 1e-3


@pytest.mark.parametrize("key", KEYS)
def test_validate_wba_row_matches_the_reference(examples, key):
    w = examples[key]
    [row] = [check for check in wha.validate_wba(w).checks if check.name == "comultiplication-multiplicative"]
    _close(row.residual, _multiplicative_reference(w.algebra.c, w.delta3))
    assert row.passed


@pytest.mark.parametrize("key", ["m23", "s3", "p4"])
def test_the_dual_and_the_canonical_actions_share_the_arrays_of_a(examples, key):
    w = examples[key]
    d = w.dual
    assert np.shares_memory(d.algebra.c, w.delta)
    assert np.shares_memory(d.delta, w.algebra.c)
    assert np.shares_memory(d.algebra.unit, w.eps) and np.shares_memory(d.eps, w.unit)
    assert np.shares_memory(d.antipode, w.antipode)
    assert np.shares_memory(wk.arrow_action(w).alpha, w.algebra.c)
    assert np.shares_memory(wk.dual_regular_action(w).alpha, w.delta)


@pytest.mark.parametrize("key", ["z3", "p3", "m23"])
def test_dual_regular_action_is_the_arrow_action_of_the_dual(examples, key):
    w = examples[key]
    reg, arrow = wk.dual_regular_action(w), wk.arrow_action(w.dual)
    assert np.array_equal(reg.alpha, arrow.alpha)
    assert reg.wha is arrow.wha is w.dual
    assert reg.module is arrow.module is w.algebra
    assert reg.name == "dual regular action" and arrow.name == "arrow action"


def _cold(w):
    """``w`` on the same arrays with none of its derived structures computed."""
    a = w.algebra
    alg = wk.FinDimAlgebra(a.c, a.unit, involution=a.involution, name=a.name)
    return wk.WeakHopfAlgebra(alg, w.delta, w.eps, w.antipode)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_validate_wba_peak_on_ising(ising):
    # the four-operand einsum peaked at 122 MiB here
    w = _cold(ising)
    assert _peak_mib(lambda: wha.validate_wba(w)) <= 64


def test_validate_action_peak_on_isings_dual_regular_action(ising):
    w = _cold(ising)
    act = wk.WhaAction(w.dual, w.algebra, w.delta3.transpose(1, 2, 0), name="dual regular action")
    assert _peak_mib(lambda: actions.validate_action(act).raise_if_failed()) <= 64


def test_validate_wba_peak_on_p5():
    w = wk.pair_groupoid_wha(5)
    assert _peak_mib(lambda: wha.validate_wba(w)) <= 24


@pytest.mark.parametrize("key", ["m23", "s3"])
def test_sweedler_arrows_match_the_einsum_references(examples, rotated, key):
    w = rotated(examples[key], seed=11)
    arrows = wk.sweedler_arrows(w)
    r = np.random.default_rng(5)
    a, phi = r.normal(size=(2, w.dim)) + 1j * r.normal(size=(2, w.dim))
    c, d3 = w.algebra.c, w.delta3
    np.testing.assert_allclose(arrows.act(a, phi), np.einsum("a,k,iak->i", a, phi, c), atol=1e-12)
    np.testing.assert_allclose(arrows.ract(phi, a), np.einsum("a,k,ajk->j", a, phi, c), atol=1e-12)
    np.testing.assert_allclose(arrows.dact(phi, a), np.einsum("pqj,j,q->p", d3, a, phi), atol=1e-12)
    np.testing.assert_allclose(arrows.rdact(a, phi), np.einsum("pqj,j,p->q", d3, a, phi), atol=1e-12)


@pytest.mark.parametrize("key", ["m23", "p3"])
def test_haar_expectations_match_the_einsum_references(examples, key):
    w = examples[key]
    hd = wk.haar_functional(w)
    e_l, e_r = wk.haar_expectations(w)
    np.testing.assert_allclose(e_l, np.einsum("pqj,q->pj", w.delta3, hd), atol=1e-12)
    np.testing.assert_allclose(e_r, np.einsum("pqj,p->qj", w.delta3, hd), atol=1e-12)


def test_haar_functional_is_the_cached_dual_haar_integral(m23):
    assert wk.haar_functional(m23) is m23.dual.derived().haar


def test_star_antipode_is_computed_once(m23, examples):
    k = m23.star_antipode
    assert k is m23.star_antipode
    np.testing.assert_allclose(k, m23.algebra.involution @ np.conj(m23.antipode), atol=0)
    # column j is S(e_j)*
    e1 = np.eye(m23.dim)[1]
    np.testing.assert_allclose(k[:, 1], m23.algebra.star(m23.s(e1)), atol=1e-14)
    # the dual's involution is its conjugate transpose
    np.testing.assert_allclose(m23.dual.algebra.involution, np.conj(k).T, atol=0)
    with pytest.raises(wk.NoInvolution):
        examples["h4"].star_antipode
