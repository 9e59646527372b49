"""One algebra interface: everything reads an algebra through six primitives.

``MatrixBacked`` below stores the matrices L(e_i) of a dense algebra and has
no ``c``: it overrides only ``_left_stack``, ``_right_stack``,
``regular_trace``, ``trace_form``, ``norm`` and ``homomorphism_defect``.  It
must give the results of its structure-constant twin, alone and substituted
into a crossed product.  ``homomorphism_defect`` is checked against the direct
einsum forms of its two uses, and the dense associator norm against its
memory bound.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import whakit as wk
from whakit.algebra import _dense_associator_norm


class MatrixBacked(wk.FinDimAlgebra):
    """An algebra held as its left multiplications ``mats[i] = L(e_i)``, with no structure constants."""

    def __init__(self, dense: wk.FinDimAlgebra):
        self.mats = np.stack([dense.left_mult(e) for e in np.eye(dense.dim)])
        self.dim, self.unit, self.involution = dense.dim, dense.unit, dense.involution
        self.basis_labels, self.name = dense.basis_labels, f"{dense.name}|matrices"

    @property
    def c(self):
        raise AttributeError("a matrix-backed algebra has no structure constants")

    def _left_stack(self, g):
        return np.tensordot(g, self.mats, axes=([0], [0]))

    def _right_stack(self, g):
        return (self.mats @ g).transpose(2, 1, 0)  # column i of R(g_k) is L(e_i) g_k

    def regular_trace(self, a):
        return complex(np.einsum("i,ikk->", np.asarray(a, dtype=complex).ravel(), self.mats))

    def trace_form(self):
        return np.einsum("iab,jba->ij", self.mats, self.mats)

    @property
    def norm(self):
        return float(np.linalg.norm(self.mats))

    def homomorphism_defect(self, images, into=None):
        # e_i e_j = sum_k mats[i, k, j] e_k
        if into is None:
            want = np.einsum("ikj,kab->ijab", self.mats, images)
            got = np.matmul(images[:, None], images[None])
        else:
            want = np.einsum("ikj,gk->ijg", self.mats, images)
            got = (into._left_stack(images) @ images).transpose(0, 2, 1)
        return float(np.linalg.norm(want - got))


@pytest.fixture(scope="module")
def smash():
    """Smash products keyed by source: p3 (d = 27, dense center), m23 (d = 89), p4 (d = 64)."""
    return {
        "p3": wk.smash_product(wk.pair_groupoid_wha(3)),
        "m23": wk.smash_product(wk.m2_m3()),
        "p4": wk.smash_product(wk.pair_groupoid_wha(4)),
    }


def test_the_twin_has_no_structure_constants():
    twin = MatrixBacked(wk.m2_m3().algebra)
    with pytest.raises(AttributeError):
        twin.c


def test_the_matrix_backed_twin_gives_the_dense_structure():
    dense = wk.m2_m3().algebra
    twin = MatrixBacked(dense)
    assert twin.center().equals(dense.center())
    blocks, twin_blocks = dense.block_decomposition(), twin.block_decomposition()
    assert twin_blocks.sizes == blocks.sizes == (2, 3)
    for b, t in zip(blocks, twin_blocks):
        np.testing.assert_allclose(t.central_idempotent, b.central_idempotent, atol=1e-12)
    assert twin.wedderburn_map().blocks.sizes == dense.wedderburn_map().blocks.sizes
    gens = [dense.basis_vector(i) + 0.5 * dense.basis_vector(i + 1) for i in (0, 4, 9)]
    assert twin.commutant_in(gens).equals(dense.commutant_in(gens))
    sub = wk.m2_m3().derived().counital_subalgebras.left
    b_twin, q_twin = wk.induced_algebra(twin, sub)
    b_dense, q_dense = wk.induced_algebra(dense, sub)
    np.testing.assert_allclose(q_twin, q_dense)
    np.testing.assert_allclose(b_twin.c, b_dense.c, atol=1e-13)
    np.testing.assert_allclose(b_twin.unit, b_dense.unit, atol=1e-13)
    lam_twin, _, _ = wk.inclusion_matrix(twin, sub)
    lam_dense, _, _ = wk.inclusion_matrix(dense, sub)
    assert np.array_equal(lam_twin, lam_dense)


def _rows(rep):
    return [(c.name, c.passed) for c in rep.checks], np.array([c.residual for c in rep.checks])


@pytest.mark.parametrize("key", ["p3", "m23"])
def test_a_crossed_product_reads_its_algebra_through_the_primitives(smash, key):
    cp = smash[key]
    twin = dataclasses.replace(cp, algebra=MatrixBacked(cp.algebra))
    reg, twin_reg = wk.is_regular(cp.action, cp), wk.is_regular(cp.action, twin)
    assert (twin_reg.m_r_isomorphic, twin_reg.relative_commutant, twin_reg.finite_index) == (
        reg.m_r_isomorphic,
        reg.relative_commutant,
        reg.finite_index,
    )
    assert twin_reg.details["relative_commutant_dim"] == reg.details["relative_commutant_dim"]
    names, residuals = _rows(wk.verify_basic_construction(cp.action, cp))
    twin_names, twin_residuals = _rows(wk.verify_basic_construction(cp.action, twin))
    assert twin_names == names
    np.testing.assert_allclose(twin_residuals, residuals, rtol=0, atol=1e-13)


# -- homomorphism_defect against its einsum forms ----------------------------


def _matrix_reference(c, mats):
    want = np.einsum("ijk,kab->ijab", c, mats)
    return float(np.linalg.norm(want - np.einsum("iab,jbc->ijac", mats, mats)))


def _map_reference(c, emb, into_c):
    want = np.einsum("gk,ijk->ijg", emb, c)
    return float(np.linalg.norm(want - np.einsum("ai,bj,abg->ijg", emb, emb, into_c, optimize=True)))


@pytest.mark.parametrize("key", ["s3", "p3", "m23"])
@pytest.mark.parametrize("seed", [None, 3])
def test_the_matrix_form_matches_its_einsum_form(examples, rotated, key, seed):
    w = examples[key] if seed is None else rotated(examples[key], seed)
    a = w.algebra
    regular = a.c.transpose(0, 2, 1)  # L(e_i): a representation, whose defect is roundoff
    scale = a.norm * float(np.linalg.norm(regular)) + float(np.linalg.norm(regular)) ** 2
    assert abs(a.homomorphism_defect(regular) - _matrix_reference(a.c, regular)) <= 1e-13 * scale
    r = np.random.default_rng(0)
    mats = r.normal(size=(a.dim, 3, 3)) + 1j * r.normal(size=(a.dim, 3, 3))
    want = _matrix_reference(a.c, mats)
    assert a.homomorphism_defect(mats) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("key", ["p3", "m23"])
def test_the_map_form_matches_its_einsum_form(smash, key):
    cp = smash[key]
    big, m_alg, a_alg = cp.algebra, cp.action.module, cp.action.wha.algebra
    for src, emb in ((m_alg, cp.embed_m), (a_alg, cp.embed_a)):
        scale = src.norm * float(np.linalg.norm(emb)) + big.norm * float(np.linalg.norm(emb)) ** 2
        got = src.homomorphism_defect(emb, into=big)
        assert abs(got - _map_reference(src.c, emb, big.c)) <= 1e-13 * scale
        r = np.random.default_rng(1)
        noise = r.normal(size=emb.shape) + 1j * r.normal(size=emb.shape)
        want = _map_reference(src.c, noise, big.c)
        assert src.homomorphism_defect(noise, into=big) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("key", ["p3", "m23"])
def test_a_perturbed_embedding_fails_the_multiplicativity_row(smash, key):
    cp = smash[key]
    row = {c.name: c for c in cp.report.checks}["embedding-M-multiplicative"]
    assert row.passed
    emb = cp.embed_m.copy()
    emb[:, 0] *= 1 + 1e-6
    assert cp.action.module.homomorphism_defect(emb, into=cp.algebra) > row.threshold


@pytest.mark.parametrize("complex_basis", [False, True], ids=["canonical", "complex"])
@pytest.mark.parametrize("key", ["p3", "m23", "p4"])
def test_every_perturbed_embedding_column_fails_its_row(smash, examples, rotated, key, complex_basis):
    """Scaling any one column of embed_m or embed_a by 1 + 1e-6 fails its row, whose
    threshold is tol.bound(|c_src|_F |E|_F + |c_out|_F |E|_F^2)."""
    cp = wk.smash_product(rotated(examples[key], 13)) if complex_basis else smash[key]
    rows = {c.name: c for c in cp.report.checks}
    for name, src, emb in (
        ("embedding-M-multiplicative", cp.action.module, cp.embed_m),
        ("embedding-A-multiplicative", cp.action.wha.algebra, cp.embed_a),
    ):
        assert rows[name].passed, name
        for col in range(emb.shape[1]):
            bent = emb.copy()
            bent[:, col] *= 1 + 1e-6
            assert src.homomorphism_defect(bent, into=cp.algebra) > rows[name].threshold, (name, col)


# -- the dense associator norm ---------------------------------------------


def test_the_dense_associator_norm_matches_its_einsum_form(smash):
    c = smash["p3"].algebra.c
    left = np.einsum("ijp,pkm->ijkm", c, c, optimize=True)
    right = np.einsum("jkp,ipm->ijkm", c, c, optimize=True)
    want = float(np.linalg.norm(left - right))
    assert abs(_dense_associator_norm(c) - want) <= 1e-13 * float(np.linalg.norm(c)) ** 2


@pytest.mark.parametrize("key", ["m23", "p4"])
def test_the_dense_associator_norm_forms_no_cubic_array(smash, key):
    """16 values of j per slice: the intermediates hold 48 n^2 entries, 0.54 c at n = 89 and 0.75 c at n = 64."""
    c = smash[key].algebra.c
    tracemalloc.start()
    try:
        value = _dense_associator_norm(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value <= wk.DEFAULT_TOL.bound(float(np.linalg.norm(c)) ** 2)
    assert peak <= 0.8 * c.nbytes, peak / c.nbytes
