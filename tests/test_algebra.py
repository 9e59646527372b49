"""Plain associative-algebra layer: validation, blocks, inclusions, traces, GNS."""

import unittest

import numpy as np

import whakit as wk
from whakit.errors import (
    NotConditionalExpectation,
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
        with self.assertRaises(ValidationError):
            wk.induced_algebra(self.m2, span)

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


if __name__ == "__main__":
    unittest.main()
