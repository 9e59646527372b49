"""Integrals, Haar elements, Maschke, expectations, canonical grouplikes."""

import numpy as np
import pytest

import whakit as wk

ALL = ["z2", "z3", "z4", "z5", "s3", "p2", "p3", "p4", "fp2", "h4", "m23"]
SEMISIMPLE = [k for k in ALL if k != "h4"]

INTEGRAL_SPACE_DIMS = {
    "z2": 1, "z3": 1, "z4": 1, "z5": 1, "s3": 1,
    "p2": 2, "p3": 3, "p4": 4, "fp2": 2, "h4": 1, "m23": 2,
}

PHI = (1 + np.sqrt(5)) / 2

HAAR = {
    "z2": np.full(2, 1 / 2),
    "z3": np.full(3, 1 / 3),
    "z5": np.full(5, 1 / 5),
    "s3": np.full(6, 1 / 6),
    "p2": np.full(4, 1 / 2),
    "p3": np.full(9, 1 / 3),
    "fp2": np.array([1.0, 0.0, 0.0, 1.0]),
    "m23": np.array([0.5, 0.5, 0.5, 0.5] + [0.0] * 9),
}


@pytest.mark.parametrize("key", ALL)
def test_integral_space_dims(examples, key):
    left, right = wk.integral_spaces(examples[key])
    assert left.dim == INTEGRAL_SPACE_DIMS[key]
    assert right.dim == INTEGRAL_SPACE_DIMS[key]


@pytest.mark.parametrize("key", ALL)
def test_left_integral_defining_property(examples, key):
    # x l = pi^L(x) l for every x, on a random element of the left space
    w = examples[key]
    left, _ = wk.integral_spaces(w)
    pi_l, _ = w.counital_maps
    r = np.random.default_rng(0x57484131)
    l = left.basis @ (r.normal(size=left.dim) + 1j * r.normal(size=left.dim))
    x = r.normal(size=w.dim) + 1j * r.normal(size=w.dim)
    assert np.linalg.norm(w.mul(x, l) - w.mul(pi_l @ x, l)) < 1e-9


@pytest.mark.parametrize("key", sorted(HAAR))
def test_haar_integral_coordinates(examples, key):
    h = wk.haar_integral(examples[key])
    np.testing.assert_allclose(h, HAAR[key], atol=1e-12)


def test_haar_integral_m23_touches_only_the_m2_block(m23):
    h = wk.haar_integral(m23)
    assert np.linalg.norm(h[4:]) < 1e-12


@pytest.mark.parametrize("key", SEMISIMPLE)
def test_haar_properties(examples, key):
    w = examples[key]
    h = wk.haar_integral(w)
    assert np.linalg.norm(w.mul(h, h) - h) < 1e-9
    assert np.linalg.norm(w.s(h) - h) < 1e-9
    assert np.linalg.norm(w.algebra.star(h) - h) < 1e-9
    # two-sided normalization
    pi_l, pi_r = w.counital_maps
    r = np.random.default_rng(2)
    x = r.normal(size=w.dim)
    assert np.linalg.norm(w.mul(x, h) - w.mul(pi_l @ x, h)) < 1e-9
    assert np.linalg.norm(w.mul(h, x) - w.mul(h, pi_r @ x)) < 1e-9


def test_h4_has_no_haar_integral(h4):
    assert wk.haar_integral(h4) is None
    assert wk.normalized_left_integral(h4) is None


@pytest.mark.parametrize("key", ALL)
def test_maschke(examples, key):
    w = examples[key]
    semisimple = key != "h4"
    assert wk.maschke_check(w) is semisimple
    assert w.algebra.is_semisimple() is semisimple
    li = wk.normalized_left_integral(w)
    assert (li is not None) is semisimple


def test_maschke_survives_rescaling_the_basis(examples):
    """In the basis f_i = 1e-5 e_i z3 and m23 stay valid weak Hopf algebras with
    a Haar integral, and the trace form shrinks to ~1e-10; semisimplicity is
    decided on the normalized trace form, so Maschke's equivalence still holds."""
    s = 1e-5
    for key in ("z3", "m23"):
        w = examples[key]
        a = w.algebra
        alg = wk.FinDimAlgebra(a.c * s, a.unit / s, involution=a.involution, name=f"{a.name} rescaled")
        r = wk.WeakHopfAlgebra(alg, w.delta / s, w.eps * s, w.antipode)
        assert wk.validate_wba(r).ok
        assert wk.haar_integral(r) is not None
        assert wk.maschke_check(r) is True


@pytest.mark.parametrize("key", ALL)
def test_haar_criterion_agrees_with_existence(examples, key):
    w = examples[key]
    has_haar = wk.haar_integral(w) is not None
    assert wk.haar_criterion(w) is has_haar


@pytest.mark.parametrize("key", SEMISIMPLE)
def test_haar_expectations(examples, key):
    w = examples[key]
    exps = wk.haar_expectations(w)
    assert exps is not None
    e_l, e_r = exps
    sub = w.derived().counital_subalgebras
    for e, target in ((e_l, sub.left), (e_r, sub.right)):
        assert np.linalg.norm(e @ e - e) < 1e-9
        assert np.linalg.matrix_rank(e, tol=1e-9) == target.dim
        # range inside the counital subalgebra
        assert np.linalg.norm(e - target.projector() @ e) < 1e-8
    # bimodule property of E^L over A^L on random elements
    r = np.random.default_rng(5)
    l = sub.left.basis @ r.normal(size=sub.left.dim)
    x = r.normal(size=w.dim)
    assert np.linalg.norm(e_l @ w.mul(l, x) - w.mul(l, e_l @ x)) < 1e-8
    assert np.linalg.norm(e_l @ w.mul(x, l) - w.mul(e_l @ x, l)) < 1e-8


def test_haar_expectations_absent_for_h4(h4):
    assert wk.haar_expectations(h4) is None


@pytest.mark.parametrize(
    "key,eig_lo,eig_hi",
    [("z3", 1.0, 1.0), ("s3", 1.0, 1.0), ("p2", 1.0, 1.0), ("fp2", 0.5, 0.5),
     ("m23", 0.19098300562505255, 0.5)],
)
def test_haar_state_gram(examples, key, eig_lo, eig_hi):
    gs = wk.haar_state(examples[key])
    ev = np.linalg.eigvalsh(gs.gram)
    assert gs.faithful
    assert ev[0] == pytest.approx(eig_lo, abs=1e-9)
    assert ev[-1] == pytest.approx(eig_hi, abs=1e-9)


# --------------------------------------------------------------------------
# canonical grouplike element


GROUPLIKE_TRIVIAL = ["z3", "z5", "s3", "p2", "p4", "fp2"]


@pytest.mark.parametrize("key", GROUPLIKE_TRIVIAL)
def test_grouplike_is_unit_on_involutive_examples(examples, key):
    cg = wk.canonical_grouplike(examples[key])
    assert cg is not None
    assert np.linalg.norm(cg.g - examples[key].unit) < 1e-9
    assert cg.report.ok


def test_grouplike_of_m23(m23):
    cg = wk.canonical_grouplike(m23)
    g = cg.g
    expected = np.zeros(13)
    expected[[0, 3, 12]] = 1.0
    expected[4] = PHI
    expected[8] = PHI - 1
    np.testing.assert_allclose(g.real, expected, atol=1e-8)
    assert np.linalg.norm(g.imag) < 1e-10
    assert np.linalg.norm(g - m23.unit) == pytest.approx(0.7265425280053609, abs=1e-8)
    # g implements the square of the antipode: g x g^-1 = S^2(x)
    gi = m23.algebra.inverse(g)
    s2 = m23.antipode @ m23.antipode
    worst = max(
        np.linalg.norm(m23.mul(m23.mul(g, np.eye(13)[j]), gi) - s2[:, j])
        for j in range(13)
    )
    assert worst < 1e-8
    # square root data
    assert np.linalg.norm(m23.mul(cg.g_half, cg.g_half) - g) < 1e-9
    assert np.linalg.norm(m23.mul(cg.g_half, cg.g_half_inv) - m23.unit) < 1e-9


def test_grouplike_block_traces_balance(m23):
    # tr_q(g) = tr_q(g^-1) in every block
    cg = wk.canonical_grouplike(m23)
    gi = m23.algebra.inverse(cg.g)
    for b in wk.block_decomposition(m23.algebra):
        tg = m23.algebra.regular_trace(m23.algebra.mul(b.central_idempotent, cg.g)) / b.size
        tgi = m23.algebra.regular_trace(m23.algebra.mul(b.central_idempotent, gi)) / b.size
        assert abs(tg - tgi) < 1e-8


def test_grouplike_absent_without_haar(h4):
    assert wk.canonical_grouplike(h4) is None


# --------------------------------------------------------------------------
# dual Haar functional: modular identity and traciality


def _haar_commutator_defect(w):
    hd = wk.haar_functional(w)
    m = np.einsum("k,ijk->ij", hd, w.algebra.c)
    return float(np.linalg.norm(m - m.T))


def test_haar_functional_is_tracial_on_weak_kac_examples(examples):
    for key in ("z4", "s3", "p3", "fp2"):
        assert _haar_commutator_defect(examples[key]) < 1e-10


def test_haar_functional_is_not_tracial_on_m23(m23):
    assert _haar_commutator_defect(m23) > 0.5


def test_modular_identity(m23):
    # h^(a b) = h^(b (g_L g_R) a (g_L g_R)^-1)
    w = m23
    hd = wk.haar_functional(w)
    cg = wk.canonical_grouplike(w)
    k = w.mul(cg.g_left, cg.g_right)
    ki = w.algebra.inverse(k)
    eye = np.eye(w.dim)
    worst = 0.0
    for i in range(w.dim):
        for j in range(w.dim):
            lhs = complex(hd @ w.mul(eye[i], eye[j]))
            rhs = complex(hd @ w.mul(w.mul(eye[j], k), w.mul(eye[i], ki)))
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8
