"""Plain associative-algebra layer: validation, blocks, inclusions, traces, GNS."""

import tracemalloc
import unittest

import numpy as np
import pytest

import whakit as wk
from whakit import algebra
from whakit.config import DEFAULT_TOL
from whakit.errors import (
    NoQuasiBasis,
    NotConditionalExpectation,
    NotConnected,
    NotSemisimple,
    ValidationError,
)
from whakit.linalg import Subspace, kernel


def matrix_units(n, name=None):
    """Full matrix algebra M_n in the basis of matrix units e_ij."""
    c = np.zeros((n * n, n * n, n * n))
    idx = lambda i, j: i * n + j
    for i in range(n):
        for j in range(n):
            for l in range(n):
                c[idx(i, j), idx(j, l), idx(i, l)] = 1.0
    unit = np.zeros(n * n)
    inv = np.zeros((n * n, n * n))
    for i in range(n):
        unit[idx(i, i)] = 1.0
        for j in range(n):
            inv[idx(j, i), idx(i, j)] = 1.0
    return wk.FinDimAlgebra(c, unit, involution=inv, name=name or f"M{n}")


def dual_numbers():
    """C[x]/(x^2): the smallest non-semisimple algebra."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    return wk.FinDimAlgebra(c, np.array([1.0, 0.0]), name="C[x]/(x^2)")


class TestValidation(unittest.TestCase):
    def test_matrix_algebra_passes(self):
        rep = matrix_units(3).validate()
        self.assertTrue(rep.ok, rep.failures)
        for name in ("associativity", "left-unit", "right-unit"):
            self.assertIn(name, [c.name for c in rep.checks])

    def test_broken_associativity_is_named(self):
        a = matrix_units(2)
        c = a.c.copy()
        c[1, 2, 0] += 1e-3
        rep = wk.FinDimAlgebra(c, a.unit, involution=a.involution).validate()
        self.assertFalse(rep.ok)
        self.assertIn("associativity", [f.name for f in rep.failures])
        with self.assertRaises(ValidationError):
            rep.raise_if_failed()

    def test_wrong_unit_is_named(self):
        a = matrix_units(2)
        bad = a.unit.copy()
        bad[1] = 1e-3
        rep = wk.FinDimAlgebra(a.c, bad, involution=a.involution).validate()
        failing = [f.name for f in rep.failures]
        self.assertTrue(any("unit" in n for n in failing), failing)

    def test_mul_and_left_mult_agree(self):
        a = matrix_units(3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=9) + 1j * rng.normal(size=9)
        y = rng.normal(size=9)
        np.testing.assert_allclose(a.mul(x, y), a.left_mult(x) @ y, atol=1e-12)


class TestKernels(unittest.TestCase):
    """The matrix-product kernels of mul, trace_form and center against their einsum forms."""

    def setUp(self):
        rng = np.random.default_rng(11)
        n = 7
        self.random = wk.FinDimAlgebra(
            rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n)), np.ones(n)
        )
        # M_2 + M_1 + M_1 (center of dimension 3) in a random complex basis
        c = np.zeros((6, 6, 6))
        c[:4, :4, :4] = matrix_units(2).c.real
        c[4, 4, 4] = c[5, 5, 5] = 1.0
        p, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        c = np.einsum("ia,jb,ijk,dk->abd", p, p, c, p.conj().T)
        unit = p.conj().T @ np.array([1.0, 0, 0, 1, 1, 1])
        self.rotated = wk.FinDimAlgebra(c, unit)
        self.rng = rng

    def assertClose(self, got, want):
        self.assertLess(np.linalg.norm(got - want), 1e-12 * np.linalg.norm(want))

    def test_mul(self):
        for alg in (self.random, self.rotated):
            a, b = self.rng.normal(size=(2, alg.dim)) + 1j * self.rng.normal(size=(2, alg.dim))
            self.assertClose(alg.mul(a, b), np.einsum("i,j,ijk->k", a, b, alg.c))

    def test_trace_form(self):
        for alg in (self.random, self.rotated):
            lm = alg.c.transpose(0, 2, 1)
            self.assertClose(alg.trace_form(), np.einsum("iab,jba->ij", lm, lm))

    def test_left_and_right_mult(self):
        for alg in (self.random, self.rotated):
            a = self.rng.normal(size=alg.dim) + 1j * self.rng.normal(size=alg.dim)
            self.assertClose(alg.left_mult(a), np.einsum("i,ijk->kj", a, alg.c))
            self.assertClose(alg.right_mult(a), np.einsum("j,ijk->ki", a, alg.c))

    def test_center(self):
        alg = self.rotated
        rows = [alg.left_mult(alg.basis_vector(i)) - alg.right_mult(alg.basis_vector(i)) for i in range(alg.dim)]
        want = Subspace(kernel(np.vstack(rows)), alg.dim)
        got = alg.center()
        self.assertEqual(got.dim, 3)
        self.assertClose(got.projector(), want.projector())


class TestBlockStructure(unittest.TestCase):
    # (algebra, expected block sizes)
    def test_sizes(self):
        cases = [
            (matrix_units(2), (2,)),
            (matrix_units(3), (3,)),
            (wk.FinDimAlgebra(np.einsum("ik,jk->ijk", np.eye(4), np.eye(4)), np.ones(4)), (1, 1, 1, 1)),
        ]
        for alg, sizes in cases:
            self.assertEqual(wk.block_decomposition(alg).sizes, sizes)

    def test_center_of_full_matrix_algebra_is_scalar(self):
        self.assertEqual(matrix_units(3).center().dim, 1)

    def test_regular_trace(self):
        a = matrix_units(2)
        # the regular representation of M_2 contains each column copy, so
        # tr_reg(1) = dim A and tr_reg(e_11) = 2
        self.assertAlmostEqual(a.regular_trace(a.unit).real, 4.0)
        e11 = np.array([1.0, 0.0, 0.0, 0.0])
        self.assertAlmostEqual(a.regular_trace(e11).real, 2.0)

    def test_nilpotent_algebra_rejected(self):
        a = dual_numbers()
        self.assertTrue(a.validate().ok)
        self.assertFalse(a.is_semisimple())
        with self.assertRaises(NotSemisimple):
            wk.block_decomposition(a)

    def test_semisimplicity_is_scale_free(self):
        # the trace form scales as s^2 in the basis s e_i; a zero form is degenerate
        for s in (1e-6, 1.0, 1e6):
            self.assertTrue(wk.FinDimAlgebra(matrix_units(2).c * s, matrix_units(2).unit / s).is_semisimple())
            self.assertFalse(wk.FinDimAlgebra(dual_numbers().c * s, dual_numbers().unit / s).is_semisimple())
        self.assertFalse(wk.FinDimAlgebra(np.zeros((1, 1, 1)), np.ones(1)).is_semisimple())

    def test_empty_center_is_not_semisimple(self):
        # the perturbed product keeps a nondegenerate trace form but no
        # nonzero element commutes with everything at the default tolerance
        a = wk.pair_groupoid_wha(2).algebra
        e = np.random.default_rng(0).standard_normal(a.c.shape)
        b = wk.FinDimAlgebra(a.c + 1e-3 * e / np.linalg.norm(e), a.unit)
        self.assertEqual(b.center().dim, 0)
        self.assertTrue(b.is_semisimple())
        with self.assertRaises(NotSemisimple):
            wk.block_decomposition(b)

    def test_inverse(self):
        a = matrix_units(2)
        x = np.array([2.0, 1.0, 0.0, 1.0])  # [[2,1],[0,1]]
        xi = a.inverse(x)
        np.testing.assert_allclose(a.mul(x, xi), a.unit, atol=1e-12)
        singular = np.array([1.0, 0.0, 0.0, 0.0])
        with self.assertRaises(wk.WhakitError):
            a.inverse(singular)


DIAG_IN_M2 = Subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 4)


class TestInclusions(unittest.TestCase):
    def setUp(self):
        self.m2 = matrix_units(2)

    def test_induced_algebra_on_diagonal(self):
        b, q = wk.induced_algebra(self.m2, DIAG_IN_M2)
        self.assertEqual(b.dim, 2)
        self.assertEqual(wk.block_decomposition(b).sizes, (1, 1))
        self.assertEqual(q.shape, (4, 2))

    def test_induced_algebra_corner_with_explicit_unit(self):
        e11 = np.array([1.0, 0.0, 0.0, 0.0])
        corner = Subspace(e11.reshape(4, 1), 4)
        b, _ = wk.induced_algebra(self.m2, corner, unit_vec=e11)
        self.assertEqual(b.dim, 1)

    def test_induced_algebra_rejects_non_closed_span(self):
        # 1, e12, e21 is not multiplicatively closed (e12 e21 = e11)
        span = Subspace(
            np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]]), 4
        )
        with self.assertRaises(ValidationError) as caught:
            wk.induced_algebra(self.m2, span)
        err = caught.exception
        self.assertEqual(err.axiom, "subalgebra-closure")
        # the threshold the residual was compared with, not tol.bound(1)
        self.assertEqual(err.threshold, DEFAULT_TOL.bound(np.linalg.norm(self.m2.c)) * 10)
        self.assertGreater(err.residual, err.threshold)

    def test_induced_algebra_reports_the_unit_threshold(self):
        e11 = np.array([1.0, 0.0, 0.0, 0.0])
        with self.assertRaises(ValidationError) as caught:
            wk.induced_algebra(self.m2, Subspace(e11.reshape(4, 1), 4))
        err = caught.exception
        self.assertEqual(err.axiom, "subalgebra-unit")
        self.assertEqual(err.threshold, DEFAULT_TOL.bound(np.sqrt(2.0)) * 10)
        self.assertAlmostEqual(err.residual, 1.0, places=12)

    def test_inclusion_matrix_diag_in_m2(self):
        lam, blocks_b, blocks_a = wk.inclusion_matrix(self.m2, DIAG_IN_M2)
        self.assertEqual(lam.shape, (2, 1))
        self.assertEqual(lam.tolist(), [[1], [1]])
        self.assertEqual(blocks_b.sizes, (1, 1))
        self.assertEqual(blocks_a.sizes, (2,))

    def test_markov_trace_diag_in_m2(self):
        mt = wk.markov_trace(self.m2, DIAG_IN_M2)
        self.assertIsInstance(mt, wk.MarkovTrace)
        self.assertAlmostEqual(mt.index, 2.0, places=12)
        np.testing.assert_allclose(mt.weights, [0.5], atol=1e-12)
        blocks = wk.block_decomposition(self.m2)
        self.assertAlmostEqual(mt.trace(self.m2, blocks, self.m2.unit).real, 1.0)


# -- inclusion data: Lambda, induced algebras and Markov traces -------------


def direct_sum(*algs):
    """Block-diagonal direct sum of algebras in the concatenated bases."""
    dims = [a.dim for a in algs]
    n = sum(dims)
    c = np.zeros((n, n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    inv = np.zeros((n, n), dtype=complex)
    start = 0
    for a, d in zip(algs, dims):
        s = slice(start, start + d)
        c[s, s, s], unit[s], inv[s, s] = a.c, a.unit, a.involution
        start += d
    return wk.FinDimAlgebra(c, unit, involution=inv, name="+".join(a.name for a in algs))


def _scalars_in_m2():
    """C 1 in M_2: Lambda = [[2]]."""
    return matrix_units(2), Subspace(matrix_units(2).unit.reshape(4, 1), 4)


def _m2_tensor_1_in_m4():
    """M_2 (x) 1 in M_4 = M_2 (x) M_2, spanned by e_ab (x) 1: Lambda = [[2]]."""
    cols = np.zeros((16, 4))
    for a in range(2):
        for b in range(2):
            for x in range(2):
                cols[(2 * a + x) * 4 + 2 * b + x, 2 * a + b] = 1.0
    return matrix_units(4), Subspace(cols, 16)


def _diagonal_m2_in_m2_plus_m2():
    """{x + x} in M_2 + M_2: Lambda = [[1, 1]]."""
    return direct_sum(matrix_units(2), matrix_units(2)), Subspace(np.vstack([np.eye(4), np.eye(4)]), 8)


def _c2_in_m2_plus_c():
    """span{1_M2, 1_C} in M_2 + C: Lambda = diag(2, 1), a disconnected inclusion."""
    big = direct_sum(matrix_units(2), wk.FinDimAlgebra(np.ones((1, 1, 1)), [1.0], involution=np.eye(1), name="C"))
    return big, Subspace(np.array([[1.0, 0, 0, 1.0, 0], [0, 0, 0, 0, 1.0]]).T, 5)


def _reference_inclusion_matrix(alg, sub, blocks_b):
    """Lambda from the traces of one minimal idempotent per B-block, in the order of ``blocks_b``."""
    b_alg, q = wk.induced_algebra(alg, sub)
    lam = np.zeros((len(blocks_b), len(alg.block_decomposition())), dtype=int)
    for mu, bb in enumerate(blocks_b):
        p = q @ algebra._minimal_idempotent_in_block(b_alg, bb, DEFAULT_TOL)
        for qi, ba in enumerate(alg.block_decomposition()):
            lam[mu, qi] = wk.config.round_to_int(alg.block_trace(ba, p))
    return lam


def _lstsq_induced(alg, q, unit_vec):
    """Structure constants, unit and involution of the span of ``q`` by least squares."""
    m = q.shape[1]
    c = np.stack([np.linalg.lstsq(q, alg.left_mult(q[:, i]) @ q, rcond=None)[0].T for i in range(m)])
    unit = np.linalg.lstsq(q, unit_vec, rcond=None)[0]
    inv = np.linalg.lstsq(q, alg.involution @ np.conj(q), rcond=None)[0]
    return c, unit, inv


@pytest.mark.parametrize(
    "build, want",
    [
        (_scalars_in_m2, [[2]]),
        (_m2_tensor_1_in_m4, [[2]]),
        (_diagonal_m2_in_m2_plus_m2, [[1, 1]]),
    ],
)
def test_inclusion_matrix_with_block_sizes_and_multiplicities_above_one(build, want):
    alg, sub = build()
    lam, blocks_b, _ = wk.inclusion_matrix(alg, sub)
    assert lam.tolist() == want
    assert np.array_equal(lam, _reference_inclusion_matrix(alg, sub, blocks_b))


@pytest.fixture(scope="module")
def inclusion_ladder(examples, rotated, ising):
    """The fixture ladder with fp3, complex-rotated copies of each, and Ising."""
    ladder = {key: examples[key] for key in ("z3", "s3", "p2", "p3", "p4", "fp2", "m23")}
    ladder["fp3"] = wk.function_wha(wk.pair_groupoid(3))
    ladder.update({f"{key}~rot": rotated(w, 5) for key, w in list(ladder.items())})
    ladder["ising"] = ising
    return ladder


def test_inclusion_matrix_from_central_idempotents_matches_minimal_idempotents(inclusion_ladder):
    for key, w in inclusion_ladder.items():
        sub = w.derived().counital_subalgebras
        for side in (sub.left, sub.right):
            lam, blocks_b, blocks_a = wk.inclusion_matrix(w.algebra, side)
            assert np.array_equal(lam, _reference_inclusion_matrix(w.algebra, side, blocks_b)), key
            assert np.array_equal(np.array(blocks_b.sizes) @ lam, blocks_a.sizes), key


def test_induced_algebra_matches_least_squares_on_rotated_bases(inclusion_ladder):
    for key, w in inclusion_ladder.items():
        sub = w.derived().counital_subalgebras
        for side in (sub.left, sub.right):
            b, q = wk.induced_algebra(w.algebra, side)
            c, unit, inv = _lstsq_induced(w.algebra, q, w.algebra.unit)
            scale = max(1.0, float(np.linalg.norm(c)))
            assert np.linalg.norm(b.c - c) <= 1e-12 * scale, key
            assert np.linalg.norm(b.unit - unit) <= 1e-12 * scale, key
            assert np.linalg.norm(b.involution - inv) <= 1e-12 * scale, key


def test_equal_size_blocks_keep_their_order_under_roundoff(rotated):
    """On rotated fp3 every central idempotent of A^L has full support, so the
    three B-blocks tie on size and support; a 1e-15 change in B's structure
    constants (projection against least squares) must not permute them."""
    w = rotated(wk.function_wha(wk.pair_groupoid(3)), 17)
    alg, side = w.algebra, w.derived().counital_subalgebras.left
    b_proj, q = wk.induced_algebra(alg, side)
    b_lstsq = wk.FinDimAlgebra(*_lstsq_induced(alg, q, alg.unit)[:2])
    blocks_a = alg.block_decomposition()

    def blocks_and_rows(b_alg):
        blocks = b_alg.block_decomposition()
        rows = [
            [wk.config.round_to_int(alg.block_trace(ba, q @ bb.central_idempotent) / bb.size) for ba in blocks_a]
            for bb in blocks
        ]
        return [q @ bb.central_idempotent for bb in blocks], rows

    idems_proj, rows_proj = blocks_and_rows(b_proj)
    idems_lstsq, rows_lstsq = blocks_and_rows(b_lstsq)
    assert len({tuple(row) for row in rows_proj}) == 3  # distinct rows, so a permutation shows
    for z_proj, z_lstsq in zip(idems_proj, idems_lstsq):
        assert np.linalg.norm(z_proj - z_lstsq) < 1e-8
    assert rows_proj == rows_lstsq
    lam, blocks_b, _ = wk.inclusion_matrix(alg, side)
    assert lam.tolist() == rows_proj


def test_markov_trace_sums_over_every_block():
    alg, sub = _diagonal_m2_in_m2_plus_m2()
    mt = wk.markov_trace(alg, sub)
    assert mt.index == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(mt.weights, [0.25, 0.25], atol=1e-12)
    assert mt.trace(alg, alg.block_decomposition(), alg.unit) == pytest.approx(1.0, abs=1e-12)


def test_markov_trace_rejects_a_disconnected_inclusion():
    alg, sub = _c2_in_m2_plus_c()
    lam, _, _ = wk.inclusion_matrix(alg, sub)
    assert sorted(map(sorted, lam.tolist())) == [[0, 1], [0, 2]]
    with pytest.raises(NotConnected):
        wk.markov_trace(alg, sub)


@pytest.mark.parametrize("function_first", [True, False])
def test_both_block_decomposition_doors_share_one_cache(function_first):
    a = matrix_units(2)
    if function_first:
        assert wk.block_decomposition(a) is a.block_decomposition()
    else:
        assert a.block_decomposition() is wk.block_decomposition(a)


class TestWatatani(unittest.TestCase):
    def setUp(self):
        self.m2 = matrix_units(2)

    def test_diagonal_expectation_has_index_two(self):
        e = np.diag([1.0, 0.0, 0.0, 1.0])
        wat = wk.watatani_index(self.m2, e)
        self.assertTrue(wat.is_scalar)
        self.assertAlmostEqual(wat.scalar.real, 2.0, places=10)
        self.assertEqual(wat.quasi_basis.shape, (4, 4))
        np.testing.assert_allclose(wat.element, 2.0 * self.m2.unit, atol=1e-9)

    def test_trace_expectation_onto_scalars_has_index_four(self):
        e = np.outer(self.m2.unit, np.array([0.5, 0.0, 0.0, 0.5]))
        wat = wk.watatani_index(self.m2, e)
        self.assertTrue(wat.is_scalar)
        self.assertAlmostEqual(wat.scalar.real, 4.0, places=10)

    def test_quasi_basis_reconstructs_arbitrary_elements(self):
        # sum_ij T[i,j] e_i E(e_j x) = x
        e = np.diag([1.0, 0.0, 0.0, 1.0])
        t = wk.watatani_index(self.m2, e).quasi_basis
        x = np.random.default_rng(3).normal(size=4)
        eye = np.eye(4)
        acc = np.zeros(4, dtype=complex)
        for i in range(4):
            for j in range(4):
                acc += t[i, j] * self.m2.mul(eye[i], e @ self.m2.mul(eye[j], x))
        np.testing.assert_allclose(acc, x, atol=1e-10)

    def test_non_expectation_rejected(self):
        with self.assertRaises(NotConditionalExpectation):
            wk.watatani_index(self.m2, np.zeros((4, 4)))


# -- Watatani index: the block quasi-basis against the dense solve ---------


def _dense_spy(monkeypatch):
    """Record the dimension of every dense quasi-basis solve."""
    calls = []
    dense = algebra._dense_quasi_basis

    def spy(a, e, tol):
        calls.append(a.dim)
        return dense(a, e, tol)

    monkeypatch.setattr(algebra, "_dense_quasi_basis", spy)
    return calls


def _reference_index(a, e):
    """The index element of the dense least-squares quasi-basis."""
    t = algebra._dense_quasi_basis(a, np.asarray(e, dtype=complex), DEFAULT_TOL)
    return np.einsum("ij,ijk->k", t, a.c)


def _c2():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    return wk.FinDimAlgebra(c, np.ones(2), involution=np.eye(2), name="C2")


def _state_on_m2(rho):
    """E(x) = Tr(rho x) 1 on M_2 in matrix units, where Tr(rho e_ij) = rho_ji."""
    m2 = matrix_units(2)
    return m2, np.outer(m2.unit, np.asarray(rho).T.ravel())


def _slice_state_on_m4(rho):
    """E = id (x) Tr(rho .) on M_4 = M_2 (x) M_2 onto M_2 (x) 1, matrix unit (i, a), (j, b) at (2i + a) 4 + 2j + b."""
    e = np.zeros((16, 16), dtype=complex)
    for i, a, j, b, k in np.ndindex(2, 2, 2, 2, 2):
        e[(2 * i + k) * 4 + 2 * j + k, (2 * i + a) * 4 + 2 * j + b] += rho[b, a]
    return matrix_units(4), e


RHO = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])


@pytest.fixture(scope="module")
def expectations(examples, rotated, ising):
    """(algebra, E) for E^L, E^R of every fixture with a Haar integral and alpha_h of its dual regular action;
    Ising (n = 34) with E^L and alpha_h only, since each dense solve there takes about 1.5 s."""
    out = {}
    sources = {k: w for k, w in examples.items() if k != "h4"}
    sources.update({"m23 complex": rotated(examples["m23"], 7), "p3 complex": rotated(examples["p3"], 5), "ising": ising})
    for key, w in sources.items():
        e_l, e_r = wk.haar_expectations(w)
        act = wk.dual_regular_action(w)
        out[f"{key} E^L"] = (w.algebra, e_l)
        if key != "ising":
            out[f"{key} E^R"] = (w.algebra, e_r)
        out[f"{key} alpha_h"] = (act.module, act.amat(act.wha.derived().haar))
    out["M2 Tr(rho .)"] = _state_on_m2(RHO)
    out["M4 id (x) Tr(rho .)"] = _slice_state_on_m4(RHO)
    return out


def test_the_block_quasi_basis_matches_the_dense_solve(expectations, monkeypatch):
    for key, (a, e) in expectations.items():
        want = _reference_index(a, e)
        with monkeypatch.context() as patch:
            calls = _dense_spy(patch)
            wat = wk.watatani_index(a, e)
        assert calls == [], key  # the block route decided
        assert np.linalg.norm(wat.element - want) <= 1e-12 * max(1.0, np.linalg.norm(want)), key
        assert wat.is_scalar, key


def test_the_quasi_basis_reconstructs_from_both_sides(expectations):
    x = np.random.default_rng(11)
    for key, (a, e) in expectations.items():
        t = wk.watatani_index(a, e).quasi_basis
        v = x.standard_normal(a.dim) + 1j * x.standard_normal(a.dim)
        # sum_ij T_ij e_i E(e_j v) and sum_ij T_ij E(v e_i) e_j
        lv, rv = a._left_stack(np.eye(a.dim)) @ v, a._right_stack(np.eye(a.dim)) @ v  # e_j v and v e_i
        left = np.einsum("ij,ikl,lj->k", t, a._left_stack(np.eye(a.dim)), e @ lv.T)
        right = np.einsum("ij,jkl,li->k", t, a._right_stack(np.eye(a.dim)), e @ rv.T)
        assert np.linalg.norm(left - v) <= 1e-12 * np.linalg.norm(v), key
        assert np.linalg.norm(right - v) <= 1e-12 * np.linalg.norm(v), key


@pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
def test_a_weighted_expectation_on_c2_has_the_index_element_of_its_weights(p):
    # E(x) = (p x_1 + (1 - p) x_2) 1: u_i = e_i / p_i, v_i = e_i is a quasi-basis, so Ind(E) = (1/p, 1/(1-p))
    a = _c2()
    wat = wk.watatani_index(a, np.outer(a.unit, [p, 1 - p]))
    assert np.linalg.norm(wat.element - [1 / p, 1 / (1 - p)]) <= 1e-12
    assert wat.is_scalar == (p == 0.5)


def test_a_state_that_is_not_a_trace_has_index_the_trace_of_its_inverse_density(expectations):
    want = np.trace(np.linalg.inv(RHO))
    for key in ("M2 Tr(rho .)", "M4 id (x) Tr(rho .)"):
        wat = wk.watatani_index(*expectations[key])
        assert wat.is_scalar and abs(wat.scalar - want) <= 1e-12 * abs(want), key


def test_a_singular_pairing_falls_back_to_the_dense_route_with_its_verdict(monkeypatch):
    # E(x) = x_1 1 on C^2 kills e_2: no quasi-basis exists, and the pairing E(y_k x_l) is singular
    a = _c2()
    e = np.outer(a.unit, [1.0, 0.0])
    assert algebra._block_quasi_basis(a, e.astype(complex), Subspace(e, 2), DEFAULT_TOL) is None
    with pytest.raises(NoQuasiBasis):
        algebra._dense_quasi_basis(a, e.astype(complex), DEFAULT_TOL)
    calls = _dense_spy(monkeypatch)
    with pytest.raises(NoQuasiBasis):
        wk.watatani_index(a, e)
    assert calls == [2]


def test_watatani_thresholds_follow_the_tolerance(monkeypatch):
    tight = DEFAULT_TOL.scaled(1e-3)
    for n in (1, 4, 34):
        assert DEFAULT_TOL.quasi_basis_residual(n) == pytest.approx(1e-7 * np.sqrt(n), rel=1e-12)
        assert tight.quasi_basis_residual(n) == pytest.approx(1e-10 * np.sqrt(n), rel=1e-12)
    for mag in (0.5, 1.0, 7.25):
        assert DEFAULT_TOL.scalar_index_residual(mag) == pytest.approx(1e-7 * max(1.0, mag), rel=1e-12)
        assert tight.scalar_index_residual(mag) == pytest.approx(1e-10 * max(1.0, mag), rel=1e-12)
    # p = 1/2 + 5e-9 puts the element 2.8e-8 from 2: a scalar at the default, not at 1e-3 of it
    a = _c2()
    e = np.outer(a.unit, [0.5 + 5e-9, 0.5 - 5e-9])
    assert wk.watatani_index(a, e).is_scalar
    assert not wk.watatani_index(a, e, tol=tight).is_scalar
    # a block-route residual of 1e-9 meets 1e-7 sqrt(2) and not 1e-10 sqrt(2): the dense solve then decides
    monkeypatch.setattr(algebra, "_quasi_basis_residual", lambda *args: 1e-9)
    calls = _dense_spy(monkeypatch)
    wk.watatani_index(a, e)
    assert calls == []
    wk.watatani_index(a, e, tol=tight)
    assert calls == [2]


class TestGns(unittest.TestCase):
    def test_faithful_trace(self):
        m2 = matrix_units(2)
        g = wk.gns_rep(m2, np.array([0.5, 0.0, 0.0, 0.5]))
        self.assertTrue(g.faithful)
        self.assertEqual(g.dim, 4)
        np.testing.assert_allclose(g.gram, np.eye(4) / 2, atol=1e-12)
        # rep property on a pair of random elements
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            g.rep(m2.mul(x, y)), g.rep(x) @ g.rep(y), atol=1e-10
        )

    def test_corner_state_is_not_faithful(self):
        m2 = matrix_units(2)
        g = wk.gns_rep(m2, np.array([1.0, 0.0, 0.0, 0.0]))
        self.assertFalse(g.faithful)
        self.assertEqual(g.dim, 2)


# -- associativity: the Wedderburn certificate against the dense loop -------


@pytest.fixture(scope="module")
def crossed(s3, m23):
    """Crossed products on both sides of the certificate cut, keyed by source."""
    return {
        "s3": wk.smash_product(s3).algebra,  # n = 36
        "p3": wk.smash_product(wk.pair_groupoid_wha(3)).algebra,  # n = 27
        "z8": wk.crossed_product(wk.arrow_action(wk.cyclic_wha(8))).algebra,  # n = 64
        "m23": wk.smash_product(m23).algebra,  # n = 89
    }


def _fresh(a, c=None):
    """The same algebra without its cached decompositions, or with structure constants ``c``."""
    return wk.FinDimAlgebra(a.c if c is None else c, a.unit, involution=a.involution, name=a.name)


def _associativity_row(rep):
    [row] = [check for check in rep.checks if check.name == "associativity"]
    return row


def _count_dense_calls(monkeypatch):
    calls = []
    dense = algebra._dense_associator_norm

    def wrapper(c):
        calls.append(c.shape[0])
        return dense(c)

    monkeypatch.setattr(algebra, "_dense_associator_norm", wrapper)
    return calls


@pytest.mark.parametrize("key", ["s3", "z8", "m23"])
def test_certificate_bounds_the_dense_associator(crossed, key):
    a = _fresh(crossed[key])
    assert a.dim >= algebra.CERTIFY_ASSOCIATIVITY_FROM_DIM
    bound = algebra._associator_bound(a, wk.DEFAULT_TOL)
    dense = algebra._dense_associator_norm(a.c)
    row = _associativity_row(a.validate())
    assert dense <= bound <= row.threshold
    assert row.residual == bound


@pytest.mark.parametrize("key", ["s3", "p3"])
@pytest.mark.parametrize("eps", [1e-14, 1e-10, 1e-8, 1e-6, 1e-3])
def test_certificate_keeps_the_dense_verdict_under_perturbation(crossed, monkeypatch, key, eps):
    """validate() passes or fails exactly where the dense loop does; a failing
    row reports the dense residual.  p3 (n = 27) sits below the cut, which is
    lowered here so that its certificate route runs too."""
    monkeypatch.setattr(algebra, "CERTIFY_ASSOCIATIVITY_FROM_DIM", 1)
    base = crossed[key]
    e = np.random.default_rng(0x57484131).standard_normal(base.c.shape)
    a = _fresh(base, base.c + eps * e / np.linalg.norm(e))
    dense = algebra._dense_associator_norm(a.c)
    bound = algebra._associator_bound(_fresh(a), wk.DEFAULT_TOL)
    row = _associativity_row(a.validate())
    assert row.passed == (dense <= row.threshold)
    if bound is not None:
        assert bound >= dense
    if not row.passed or bound is None or bound > row.threshold:
        assert row.residual == dense
    else:
        assert row.residual == bound
    if (key, eps) == ("s3", 1e-8):
        # the dense residual meets the threshold, but the certificate cannot
        # show it (the left ideal A p is 18-dimensional at the default
        # tolerance, not 6): the fallback decides
        assert bound is None or bound > row.threshold
        assert row.passed and row.residual == dense
    if (key, eps) == ("p3", 1e-8):
        # here the certificate exists but overshoots the threshold
        assert dense <= row.threshold < bound
        assert row.passed and row.residual == dense


@pytest.mark.xfail(strict=True, raises=wk.NonIntegerBlockSize, reason="the center's kernel cut sits below a 1e-8 perturbation")
@pytest.mark.parametrize("seed", [4, 9, 13])
def test_blocks_of_a_perturbed_algebra_do_not_depend_on_the_basis(monkeypatch, seed):
    """Known defect: p3's smash product, rotated by a real orthogonal Q and
    then perturbed by 1e-8 e/|e|, still passes associativity (3.4e-8 against
    8.2e-8) and decomposes as (3, 3, 3) in the canonical basis and in every
    rotation without the perturbation, but in these rotations the center's
    rank decision (cut 3.4e-9) finds central blocks of dimension 18, 11 and
    18, and ``block_decomposition`` raises NonIntegerBlockSize.

    The base is built with its quotients taken from the relation span: how
    the quotient route rounds the carrier moves the base's structure
    constants at roundoff, and that alone decides whether seeds 9 and 13
    raise, so the base is pinned to the route that does not change."""
    monkeypatch.setattr(wk.actions, "_separable_quotient", lambda *args: None)
    base = wk.smash_product(wk.pair_groupoid_wha(3)).algebra
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((base.dim, base.dim)))
    q = q * np.sign(np.diag(r))
    c = np.einsum("ia,jb,ijk,kd->abd", q, q, base.c, q, optimize=True)
    e = np.random.default_rng(0x57484131).standard_normal(c.shape)
    inv = q.T @ base.involution @ q
    unperturbed = wk.FinDimAlgebra(c, q.T @ base.unit, involution=inv)
    assert wk.block_decomposition(unperturbed).sizes == (3, 3, 3)
    a = wk.FinDimAlgebra(c + 1e-8 * e / np.linalg.norm(e), q.T @ base.unit, involution=inv)
    assert _associativity_row(a.validate()).passed
    assert wk.block_decomposition(a).sizes == (3, 3, 3)


def test_non_semisimple_algebra_above_the_cut_takes_the_dense_route(monkeypatch):
    # upper-triangular 8 x 8 matrices: dim 36, nonzero Jacobson radical
    pairs = [(i, j) for i in range(8) for j in range(i, 8)]
    idx = {p: k for k, p in enumerate(pairs)}
    c = np.zeros((36, 36, 36))
    for (i, j) in pairs:
        for l in range(j, 8):
            c[idx[i, j], idx[j, l], idx[i, l]] = 1.0
    unit = np.array([1.0 if i == j else 0.0 for (i, j) in pairs])
    a = wk.FinDimAlgebra(c, unit, name="T8")
    assert a.dim >= algebra.CERTIFY_ASSOCIATIVITY_FROM_DIM and not a.is_semisimple()
    calls = _count_dense_calls(monkeypatch)
    rep = a.validate()
    assert rep.ok, rep.failures
    assert calls == [36]
    assert _associativity_row(rep).residual == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_coefficient_above_the_cut_fails_the_row(crossed):
    # the decomposition's SVDs raise LinAlgError on NaN; the dense route reports it
    base = crossed["s3"]
    c = base.c.copy()
    c[1, 2, 3] = np.nan
    rep = _fresh(base, c).validate()
    row = _associativity_row(rep)
    assert not row.passed and np.isnan(row.residual)


def test_dense_loop_runs_below_the_cut_only(m23, monkeypatch):
    calls = _count_dense_calls(monkeypatch)
    wk.smash_product(m23)  # validates its 89-dim result
    assert calls == []
    assert _fresh(m23.algebra).validate().ok
    assert calls == [13]


# -- center: the certified commutant of a generic pair against the dense kernel


def _dense_center(a):
    """Kernel of the (n^2, n) system whose row block i is L(e_i) - R(e_i), by einsum."""
    n = a.dim
    rows = np.einsum("ijk->ikj", a.c) - np.einsum("jik->ikj", a.c)
    return Subspace(kernel(rows.reshape(n * n, n)), n)


def _kernel_shapes(monkeypatch):
    """Record the shape of every matrix whose kernel the algebra module takes."""
    shapes = []
    original = algebra.kernel

    def spy(a, tol=None):
        shapes.append(np.shape(a))
        return original(a, tol)

    monkeypatch.setattr(algebra, "kernel", spy)
    return shapes


@pytest.fixture(scope="module")
def center_ladder(examples, rotated, ising):
    """Algebras of dimension >= CENTER_FROM_PAIR_DIM, keyed by source."""
    out = {}
    for key in ("s3", "m23", "p4"):
        out[f"{key} smash"] = wk.smash_product(examples[key]).algebra
        out[f"{key}~ smash"] = wk.smash_product(rotated(examples[key], 17)).algebra
    out["z8 translation"] = wk.crossed_product(wk.arrow_action(wk.cyclic_wha(8))).algebra
    out["Ising"] = ising.algebra
    for key in ("s3 smash", "p4 smash"):
        # non-associative: the trace form stays nondegenerate but nothing is central
        base = out[key]
        e = np.random.default_rng(0).standard_normal(base.c.shape)
        out[f"{key} + 1e-3"] = wk.FinDimAlgebra(base.c + 1e-3 * e / np.linalg.norm(e), base.unit)
    return out


@pytest.mark.parametrize(
    "key",
    ["s3 smash", "s3~ smash", "m23 smash", "m23~ smash", "p4 smash", "p4~ smash", "z8 translation",
     "Ising", "s3 smash + 1e-3", "p4 smash + 1e-3"],
)
def test_center_from_the_pair_matches_the_dense_kernel(center_ladder, monkeypatch, key):
    a = _fresh(center_ladder[key])
    n = a.dim
    assert n >= algebra.CENTER_FROM_PAIR_DIM
    shapes = _kernel_shapes(monkeypatch)
    got = a.center()
    assert shapes == [(2 * n, n)]  # the certificate passed: the dense kernel was not taken
    want = _dense_center(a)
    assert got.dim == want.dim
    assert np.linalg.norm(got.projector() - want.projector()) <= 1e-12


def test_a_pair_that_does_not_generate_leaves_the_center_to_the_dense_kernel(center_ladder, monkeypatch):
    a = _fresh(center_ladder["s3 smash"])  # M_6, n = 36
    n = a.dim
    monkeypatch.setattr(algebra, "_generic_pair", lambda n: np.column_stack([a.unit, 2.0 * a.unit]))
    shapes = _kernel_shapes(monkeypatch)
    got = a.center()
    assert shapes == [(2 * n, n), (n * n, n)]  # the pair's commutant is all of A, the certificate fails
    want = _dense_center(a)
    assert got.dim == want.dim == 1
    assert np.linalg.norm(got.projector() - want.projector()) <= 1e-12


@pytest.mark.parametrize("key", ["p3", "m23"])
def test_center_below_the_cut_takes_the_dense_kernel(examples, monkeypatch, key):
    a = _fresh(wk.smash_product(examples[key]).algebra) if key == "p3" else _fresh(examples[key].algebra)
    n = a.dim  # 27 and 13
    assert n < algebra.CENTER_FROM_PAIR_DIM
    shapes = _kernel_shapes(monkeypatch)
    got = a.center()
    assert shapes == [(n * n, n)]
    assert np.linalg.norm(got.projector() - _dense_center(a).projector()) <= 1e-12


@pytest.mark.parametrize("key", ["m23", "p4"])
def test_commutant_matches_the_per_generator_rows(examples, key):
    """is_regular's relative commutant M' in A # A^, against one einsum pair per generator."""
    cp = wk.smash_product(examples[key])
    a = cp.algebra
    gens = [cp.embed_m[:, i] for i in range(cp.embed_m.shape[1])]
    rows = [np.einsum("i,ijk->kj", g, a.c) - np.einsum("j,ijk->ki", g, a.c) for g in gens]
    want = Subspace(kernel(np.vstack(rows)), a.dim)
    got = a.commutant_in(gens)
    assert got.dim == want.dim
    assert np.linalg.norm(got.projector() - want.projector()) <= 1e-12


# -- the star row of validate() against its einsum form


def _einsum_star_row(a):
    s = a.involution
    lhs = np.einsum("ijk,mk->ijm", np.conj(a.c), s)
    rhs = np.einsum("pj,qi,pqm->ijm", s, s, a.c, optimize=True)
    return float(np.linalg.norm(lhs - rhs))


def _star_row(rep):
    [row] = [check for check in rep.checks if check.name == "star-antimultiplicative"]
    return row


@pytest.mark.parametrize("key", ["s3", "p3", "z8", "m23"])
def test_star_row_matches_the_einsum_form(crossed, key):
    a = crossed[key]
    row = _star_row(a.validate())
    want = _einsum_star_row(a)
    assert row.passed
    assert abs(row.residual - want) <= 1e-12 * max(1.0, float(np.linalg.norm(a.c)) ** 2)

    # a perturbed involution fails the row with the einsum form's residual
    e = np.random.default_rng(3).standard_normal(a.involution.shape)
    bad = wk.FinDimAlgebra(a.c, a.unit, involution=a.involution + 1e-4 * e / np.linalg.norm(e))
    row = _star_row(bad.validate())
    want = _einsum_star_row(bad)
    assert not row.passed
    assert abs(row.residual - want) <= 1e-12 * want


# -- one layout of c: each algebra stores its structure constants once


def _gemm_trace_form(c):
    """The trace form as one GEMM against a transposed copy L[i][k, j] = c[i, j, k] of c."""
    n = c.shape[0]
    return c.transpose(0, 2, 1).reshape(n, n * n) @ c.reshape(n, n * n).T


def _full_t_antimultiplicative_norm(c, s, antilinear):
    """The anti-multiplicativity norm through all of t[q, j, m] = sum_p s[p, j] c[p, q, m] at once."""
    n = c.shape[0]
    t = np.matmul(s.T, c.transpose(1, 0, 2)).reshape(n, n * n)
    lhs = (np.conj(c) if antilinear else c) @ s.T  # f(e_i e_j)
    rhs = (s.T @ t).reshape(lhs.shape)  # f(e_j) f(e_i)
    return float(np.linalg.norm(lhs - rhs))


def _kernel_cases(examples, rotated):
    """(label, c, s, antilinear): antipodes and stars of canonical and rotated fixtures, and random c."""
    for key, w in examples.items():
        for label, v in ((key, w), (f"{key}~", rotated(w, 23))):
            for side, x in (("", v), ("^", v.dual)):
                yield f"{label}{side} S", x.algebra.c, x.antipode, False
                if x.algebra.involution is not None:
                    yield f"{label}{side} *", x.algebra.c, x.algebra.involution, True
    gen = np.random.default_rng(19)
    for n in (13, 27, 64, 89):
        c = gen.standard_normal((n, n, n)) + 1j * gen.standard_normal((n, n, n))
        s = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        yield f"random {n}", c, s, False
        yield f"random {n} *", c, s, True


def test_sliced_kernels_match_their_transposed_copy_forms(examples, rotated):
    for label, c, s, antilinear in _kernel_cases(examples, rotated):
        want = _gemm_trace_form(c)
        got = wk.FinDimAlgebra(c, np.eye(c.shape[0])[0]).trace_form()
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), label
        want = _full_t_antimultiplicative_norm(c, s, antilinear)
        got = algebra._antimultiplicative_norm(c, s, antilinear)
        # residuals of valid fixtures are roundoff, so compare on the scale of the two terms
        scale = max(want, float(np.linalg.norm(c) * np.linalg.norm(s) * max(1.0, np.linalg.norm(s))))
        assert abs(got - want) <= 1e-13 * scale, label


def _sixteen_row_antimultiplicative_norm(c, s, antilinear):
    """The star row's kernel with 16 rows of j per slice at every n, each slice kept until the next is formed."""
    n = c.shape[0]
    flat = c.reshape(n, n * n)
    acc = 0.0
    for lo in range(0, n, 16):
        sl = slice(lo, lo + 16)
        t = (s[:, sl].T @ flat).reshape(-1, n, n)
        rhs = s.T @ t.transpose(1, 0, 2).reshape(n, -1)
        lhs = (np.conj(c[:, sl]) if antilinear else c[:, sl]).reshape(-1, n) @ s.T
        acc += float(np.linalg.norm(lhs.reshape(n, -1) - rhs)) ** 2
    return float(np.sqrt(acc))


def _traced(f, *args):
    tracemalloc.start()
    try:
        value = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def test_the_star_row_holds_at_most_four_tenths_of_c_at_n_89(crossed):
    """From n = 64 on a slice has at most n / 8 rows: at n = 89 the kernel peaks at
    0.37 c (0.90 c with 16-row slices) and its value is that of the 16-row kernel."""
    gen = np.random.default_rng(89)
    c = gen.standard_normal((89, 89, 89)) + 1j * gen.standard_normal((89, 89, 89))
    s = gen.standard_normal((89, 89)) + 1j * gen.standard_normal((89, 89))
    for antilinear in (True, False):
        want = _sixteen_row_antimultiplicative_norm(c, s, antilinear)
        got, peak = _traced(algebra._antimultiplicative_norm, c, s, antilinear)
        assert abs(got - want) <= 1e-13 * want, antilinear
        assert peak <= 0.4 * c.nbytes, peak / c.nbytes
    smash = crossed["m23"]
    c, s = smash.c, smash.involution
    got, peak = _traced(algebra._antimultiplicative_norm, c, s, True)
    scale = float(np.linalg.norm(c) * np.linalg.norm(s) ** 2)
    assert abs(got - _sixteen_row_antimultiplicative_norm(c, s, True)) <= 1e-13 * scale
    assert peak <= 0.4 * c.nbytes, peak / c.nbytes


def _three_dimensional_attributes(a):
    return [key for key, val in vars(a).items() if isinstance(val, np.ndarray) and val.ndim == 3]


def test_an_algebra_holds_one_three_dimensional_array(examples):
    for w in examples.values():
        for a in (w.algebra, w.dual_algebra, w.dual.algebra):
            assert _three_dimensional_attributes(a) == ["c"], a.name


def test_cold_checks_allocate_at_most_a_quarter_of_c_beyond_c(crossed):
    """Validation, semisimplicity, blocks and the Wedderburn map of a fresh
    89-dimensional algebra (m23's smash product) form no (n, n, n) array."""
    base = crossed["m23"]
    c, unit, inv = base.c.copy(), base.unit.copy(), base.involution.copy()
    tracemalloc.start()
    try:
        a = wk.FinDimAlgebra(c, unit, involution=inv, name=base.name)
        rep = a.validate()
        semisimple = a.is_semisimple()
        sizes = a.block_decomposition().sizes
        a.wedderburn_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and semisimple and sizes == (5, 8)
    assert peak <= 1.25 * c.nbytes


if __name__ == "__main__":
    unittest.main()
