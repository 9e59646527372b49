"""Example constructors: groupoid combinatorics, dimensions, perturbation."""

import unittest

import numpy as np
import pytest

import whakit as wk
from whakit.cli import analyze_wha

PHI = (1 + np.sqrt(5)) / 2
FIBONACCI_RULES = {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (1, 1): (0, 1)}
F_TAU = np.array([[1 / PHI, 1 / np.sqrt(PHI)], [1 / np.sqrt(PHI), -1 / PHI]])


class TestGroupoids(unittest.TestCase):
    def test_morphism_counts(self):
        table = [
            (wk.cyclic_group(1), 1, 1),
            (wk.cyclic_group(4), 1, 4),
            (wk.symmetric_group(3), 1, 6),
            (wk.pair_groupoid(2), 2, 4),
            (wk.pair_groupoid(4), 4, 16),
        ]
        for g, objects, morphisms in table:
            g.validate()
            self.assertEqual(len(g.objects), objects)
            self.assertEqual(len(g.morphisms), morphisms)

    def test_disjoint_union(self):
        g = wk.disjoint_union(wk.pair_groupoid(2), wk.cyclic_group(3))
        g.validate()
        self.assertEqual(len(g.objects), 3)
        self.assertEqual(len(g.morphisms), 7)

    def test_composition_is_partial(self):
        g = wk.pair_groupoid(2)
        # morphisms (i <- j) compose only when the inner objects match
        composable = sum(
            1
            for f in g.morphisms
            for h in g.morphisms
            if g.source[f] == g.target[h]
        )
        self.assertEqual(composable, 8)
        self.assertEqual(len(g.compose), 8)

    def test_invalid_groupoid_rejected(self):
        with self.assertRaises(wk.WhakitError):
            wk.pair_groupoid(0)
        with self.assertRaises(wk.WhakitError):
            wk.cyclic_group(-1)


class TestExampleAlgebras(unittest.TestCase):
    def test_dimension_table(self):
        table = [
            (wk.cyclic_wha(2), 2),
            (wk.cyclic_wha(5), 5),
            (wk.symmetric_wha(3), 6),
            (wk.pair_groupoid_wha(2), 4),
            (wk.pair_groupoid_wha(4), 16),
            (wk.function_wha(wk.pair_groupoid(2)), 4),
            (wk.sweedler_h4(), 4),
            (wk.m2_m3(), 13),
        ]
        for w, dim in table:
            self.assertEqual(w.dim, dim)

    def test_groupoid_wha_matches_the_named_constructors(self):
        np.testing.assert_array_equal(
            wk.cyclic_wha(3).algebra.c, wk.groupoid_wha(wk.cyclic_group(3)).algebra.c
        )
        np.testing.assert_array_equal(
            wk.pair_groupoid_wha(2).algebra.c,
            wk.groupoid_wha(wk.pair_groupoid(2)).algebra.c,
        )

    def test_function_algebra_is_the_dual_of_the_groupoid_algebra(self):
        g = wk.pair_groupoid(2)
        f = wk.function_wha(g)
        d = wk.dual_wha(wk.groupoid_wha(g))
        self.assertLess(np.linalg.norm(f.algebra.c - d.algebra.c), 1e-12)
        self.assertLess(np.linalg.norm(f.delta - d.delta), 1e-12)

    def test_function_algebra_is_commutative(self):
        c = wk.function_wha(wk.pair_groupoid(3)).algebra.c
        self.assertLess(np.linalg.norm(c - c.transpose(1, 0, 2)), 1e-12)

    def test_involutions(self):
        self.assertIsNone(wk.sweedler_h4().algebra.involution)
        for w in (wk.cyclic_wha(3), wk.pair_groupoid_wha(2), wk.m2_m3()):
            self.assertIsNotNone(w.algebra.involution)

    def test_m2_m3_block_structure(self):
        w = wk.m2_m3()
        self.assertEqual(wk.block_decomposition(w.algebra).sizes, (2, 3))
        self.assertTrue(wk.validate_wba(w).ok)
        self.assertTrue(wk.validate_star(w).ok)
        self.assertFalse(wk.is_weak_kac(w))

    def test_sweedler_h4_is_not_semisimple(self):
        w = wk.sweedler_h4()
        self.assertTrue(wk.validate_wba(w).ok)
        self.assertFalse(w.algebra.is_semisimple())


class TestPerturb(unittest.TestCase):
    def setUp(self):
        self.w = wk.cyclic_wha(3)

    def test_changes_exactly_one_coefficient(self):
        for field, array in [
            ("structure_constants", lambda b: b.algebra.c),
            ("unit", lambda b: b.unit),
            ("counit", lambda b: b.eps),
            ("comultiplication", lambda b: b.delta),
            ("antipode", lambda b: b.antipode),
            ("involution", lambda b: b.algebra.involution),
        ]:
            broken = wk.perturb(self.w, field=field, magnitude=1e-3, seed=9)
            diff = np.asarray(array(broken)) - np.asarray(array(self.w))
            nz = np.flatnonzero(np.abs(diff) > 0)
            self.assertEqual(len(nz), 1, field)
            self.assertAlmostEqual(float(np.abs(diff).max()), 1e-3, places=15)

    def test_explicit_index_targets_that_coefficient(self):
        broken = wk.perturb(self.w, field="counit", index=2)
        diff = broken.eps - self.w.eps
        self.assertAlmostEqual(float(diff[2].real), 1e-3)
        self.assertEqual(np.count_nonzero(diff), 1)

    def test_same_seed_same_coefficient(self):
        b1 = wk.perturb(self.w, seed=4)
        b2 = wk.perturb(self.w, seed=4)
        np.testing.assert_array_equal(b1.algebra.c, b2.algebra.c)

    def test_bad_field_rejected(self):
        with self.assertRaises(ValueError):
            wk.perturb(self.w, field="epsilon")

    def test_missing_involution_rejected(self):
        with self.assertRaises(ValueError):
            wk.perturb(wk.sweedler_h4(), field="involution")

    def test_original_is_untouched(self):
        c0 = self.w.algebra.c.copy()
        wk.perturb(self.w, field="structure_constants", seed=0)
        np.testing.assert_array_equal(self.w.algebra.c, c0)


# --------------------------------------------------------------------------
# weak Hopf algebras of fusion categories


def fibonacci_f(f_tau):
    """Fibonacci F-symbols with [F^{tau tau tau}_tau] = ``f_tau``, every other one 1."""
    return lambda y, a, b, w, z, m: f_tau[z, m] if (y, a, b, w) == (1, 1, 1, 1) else 1.0


def category_data(rules):
    """From the fusion rules alone: the carrier sizes n_k = #{(y, x) : x in y (x) k}
    and the quantum dimensions d_k = PF eigenvalue of the fusion matrix of k."""
    labels = sorted({a for a, _ in rules})
    sizes = np.array([sum(x in rules[(y, k)] for y in labels for x in labels) for k in labels])
    fusion = [np.array([[float(x in rules[(y, k)]) for y in labels] for x in labels]) for k in labels]
    dims = np.array([np.linalg.eigvals(m).real.max() for m in fusion])
    return sizes, dims


def pure_index(rules):
    """(delta, I) of the category: delta = sum_k n_k d_k and I = (number of simples) sum_k d_k^2."""
    sizes, dims = category_data(rules)
    return float(sizes @ dims), len(sizes) * float(dims @ dims)


def test_category_data_of_fibonacci_and_ising(ising_category):
    sizes, dims = category_data(FIBONACCI_RULES)
    assert sizes.tolist() == [2, 3]
    np.testing.assert_allclose(dims, [1, PHI], atol=1e-12)
    np.testing.assert_allclose(pure_index(FIBONACCI_RULES), [2 + 3 * PHI, 5 + np.sqrt(5)], atol=1e-12)
    assert 5 + np.sqrt(5) == pytest.approx(2 * (1 + PHI**2), abs=1e-12)

    rules, _ = ising_category
    sizes, dims = category_data(rules)
    assert sizes.tolist() == [3, 4, 3]
    np.testing.assert_allclose(dims, [1, np.sqrt(2), 1], atol=1e-12)
    np.testing.assert_allclose(pure_index(rules), [6 + 4 * np.sqrt(2), 12], atol=1e-12)


@pytest.fixture(params=["m23", "ising"])
def fusion_case(request):
    """A fusion-category weak Hopf algebra with the rules it was built from."""
    if request.param == "m23":
        return request.getfixturevalue("m23"), FIBONACCI_RULES
    return request.getfixturevalue("ising"), request.getfixturevalue("ising_category")[0]


def test_fusion_wha_realises_its_category(fusion_case):
    w, rules = fusion_case
    sizes, dims = category_data(rules)
    delta, haar_index = pure_index(rules)
    assert w.dim == int(sizes @ sizes)
    assert wk.block_decomposition(w.algebra).sizes == tuple(sorted(sizes))
    assert not wk.is_weak_kac(w)

    doc = analyze_wha(w)
    assert doc["stages"]["axioms"]["ok"] and doc["ok"] and not doc["failed"]
    sectors = doc["stages"]["sectors"]
    assert sectors["vacua"] == 1
    got = sorted((s["n_q"], s["d_q"]) for s in sectors["sectors"])
    want = sorted(zip(sizes.tolist(), dims.tolist()))
    assert [n for n, _ in got] == [n for n, _ in want]
    np.testing.assert_allclose([d for _, d in got], [d for _, d in want], atol=1e-9)
    assert sectors["delta"] == pytest.approx(delta, abs=1e-9)
    assert doc["stages"]["index"]["markov_index"] == pytest.approx(delta, abs=1e-9)
    assert doc["stages"]["index"]["haar_index"] == pytest.approx(haar_index, abs=1e-9)


def test_m2_m3_is_the_fibonacci_fusion_wha():
    w, ref = wk.fusion_wha(FIBONACCI_RULES, fibonacci_f(F_TAU), name="M2+M3"), wk.m2_m3()
    for got, want in [(w.algebra.c, ref.algebra.c), (w.delta, ref.delta), (w.eps, ref.eps), (w.antipode, ref.antipode)]:
        np.testing.assert_array_equal(got, want)
    assert (w.name, w.algebra.basis_labels) == (ref.name, ref.algebra.basis_labels)


def test_f_breaking_the_pentagon_fails_coassociativity():
    f_tau = F_TAU * np.array([[-1, 1], [1, -1]])  # diagonal negated
    np.testing.assert_allclose(f_tau @ f_tau.T, np.eye(2), atol=1e-15)  # still unitary
    with pytest.raises(wk.ValidationError) as exc:
        wk.fusion_wha(FIBONACCI_RULES, fibonacci_f(f_tau))
    assert exc.value.axiom == "coassociativity"


def test_non_unitary_f_is_rejected():
    with pytest.raises(wk.ValidationError):
        wk.fusion_wha(FIBONACCI_RULES, fibonacci_f(2 * F_TAU))


if __name__ == "__main__":
    unittest.main()
