"""Sectors, quantum dimensions, fusion, and the three index routes."""

import numpy as np
import pytest

import whakit as wk
from whakit import reptheory
from whakit.linalg import kernel

PHI = (1 + np.sqrt(5)) / 2

IRREP_DIMS = {
    "z3": [1, 1, 1],
    "s3": [1, 1, 2],
    "p2": [2],
    "fp2": [1, 1, 1, 1],
    "m23": [2, 3],
}


@pytest.mark.parametrize("key", sorted(IRREP_DIMS))
def test_irreducible_representation_dims(examples, key):
    dims = sorted(r.dim for r in wk.irreducible_representations(examples[key]))
    assert dims == IRREP_DIMS[key]


def test_irreps_need_semisimplicity(h4):
    with pytest.raises(wk.NotSemisimple):
        wk.irreducible_representations(h4)


@pytest.mark.parametrize("key", ["z3", "p2", "m23"])
def test_regular_representation(examples, key):
    w = examples[key]
    rep = wk.regular_representation(w)
    assert rep.dim == w.dim
    assert rep.validate().ok
    # the regular module contains each block with multiplicity = its size
    mults = wk.block_multiplicities(w, rep)
    sizes = np.array(wk.block_decomposition(w.algebra).sizes)
    np.testing.assert_array_equal(np.sort(mults), np.sort(sizes))


def test_schur_orthogonality_of_intertwiners(s3):
    irr = wk.irreducible_representations(s3)
    dims = [[len(wk.intertwiner_space(s3, a, b)) for b in irr] for a in irr]
    np.testing.assert_array_equal(dims, np.eye(3, dtype=int))


def test_gns_counit_rep_dims(examples):
    for key, dim in (("z3", 1), ("p2", 2), ("fp2", 2), ("m23", 2)):
        rep = wk.gns_counit_rep(examples[key])
        assert rep.dim == dim
        assert rep.validate().ok


def test_vacua(examples):
    table = {"z3": (1, [1.0]), "s3": (1, [1.0]), "p2": (1, [2.0]), "fp2": (2, [1.0, 1.0]), "m23": (1, [2.0])}
    for key, (count, weights) in table.items():
        v = wk.vacua(examples[key])
        assert v.count == count
        np.testing.assert_allclose(sorted(np.asarray(v.weights).real), weights, atol=1e-9)


def test_standard_solutions_solve_the_vacuum_supported_hom_systems(fp2):
    """R spans the solutions X of X D_eps(a) = T(a) X, X = X D_eps(z_mu) (the
    system stacked with its support condition), on its vacuum mu only, and lies
    in the carrier of the truncated product."""
    vac = wk.vacua(fp2)
    assert vac.count == 2
    d_eps = vac.counit_rep
    for q, rep in enumerate(wk.irreducible_representations(fp2)):
        sol = wk.standard_solutions(fp2, q)
        target = wk.monoidal_product(fp2, sol.conj, rep)
        a, b = d_eps.dim, target.dim
        assert np.linalg.norm(sol.r - target.isometry @ (target.isometry.conj().T @ sol.r)) <= 1e-12
        for mu, proj in enumerate(vac.rep_projections):
            rows = [
                np.kron(np.eye(b), d_eps.matrices[j].T) - np.kron(target.matrices[j], np.eye(a))
                for j in range(fp2.dim)
            ]
            rows.append(np.kron(np.eye(b), (np.eye(a) - proj).T))
            ref = kernel(np.vstack(rows))
            assert ref.shape[1] == (mu == sol.vacuum_right)
            if ref.shape[1]:
                # R is the flat map into H_conj(q) (x) H_q; its carrier coordinates are V^H R
                r = (target.isometry.conj().T @ sol.r).reshape(-1) / np.linalg.norm(sol.r)
                assert abs(np.vdot(ref[:, 0], r)) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# fusion


def test_cyclic_fusion_is_the_group_law(z3):
    # the fusion of the three characters is a group of order 3 (no assumption
    # on how the sector table orders them)
    table = wk.sector_dimensions(z3)
    reps = [s.rep for s in table.sectors]

    def fuse(a, b):
        mults = table.multiplicities(wk.monoidal_product(z3, reps[a], reps[b]))
        assert sorted(mults) == [0, 0, 1]
        return int(np.argmax(mults))

    vac = int(np.argmax(table.multiplicities(wk.gns_counit_rep(z3))))
    for a in range(3):
        assert fuse(a, vac) == a and fuse(vac, a) == a
        # inverse: conjugation fuses back to the vacuum
        abar = next(b for b in range(3) if fuse(a, b) == vac)
        assert fuse(abar, a) == vac
    for a in range(3):
        for b in range(3):
            assert fuse(a, b) == fuse(b, a)
            for c in range(3):
                assert fuse(fuse(a, b), c) == fuse(a, fuse(b, c))
    # some element generates the whole group (order three, not a product)
    gen = next(a for a in range(3) if a != vac)
    assert fuse(gen, gen) != vac


def test_s3_fusion_of_the_two_dimensional_sector(s3):
    table = wk.sector_dimensions(s3)
    two = next(s.rep for s in table.sectors if s.size == 2)
    mults = table.multiplicities(wk.monoidal_product(s3, two, two))
    # 2 (x) 2 = trivial + sign + 2
    np.testing.assert_array_equal(mults, [1, 1, 1])


def test_fibonacci_fusion(m23):
    table = wk.sector_dimensions(m23)
    tau = next(s.rep for s in table.sectors if s.size == 3)
    mults = table.multiplicities(wk.monoidal_product(m23, tau, tau))
    # tau (x) tau = 1 + tau
    np.testing.assert_array_equal(mults, [1, 1])


def test_fusion_is_associative_up_to_equivalence(s3):
    table = wk.sector_dimensions(s3)
    reps = [s.rep for s in table.sectors]
    a, b, c = reps[1], reps[2], reps[2]
    left = wk.monoidal_product(s3, wk.monoidal_product(s3, a, b), c)
    right = wk.monoidal_product(s3, a, wk.monoidal_product(s3, b, c))
    np.testing.assert_array_equal(table.multiplicities(left), table.multiplicities(right))


def test_conjugation_transposes_the_dimension_matrix(fp2):
    table = wk.sector_dimensions(fp2)
    for s in table.sectors:
        dm = table.dimension_matrix(s.rep)
        dm_conj = table.dimension_matrix(wk.conjugate_rep(fp2, s.rep))
        np.testing.assert_allclose(dm_conj, dm.T, atol=1e-8)


def test_fp2_sector_grid(fp2):
    # four one-dimensional sectors laid out over the two vacua
    table = wk.sector_dimensions(fp2)
    assert [s.size for s in table.sectors] == [1, 1, 1, 1]
    assert [s.vacuum_left for s in table.sectors] == [0, 0, 1, 1]
    assert [s.vacuum_right for s in table.sectors] == [0, 1, 0, 1]
    np.testing.assert_allclose(table.d_matrix, [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)


# --------------------------------------------------------------------------
# quantum dimensions and the index


SECTOR_TABLE = {
    # key -> (sizes, d-values, delta)
    "z2": ([1, 1], [1.0, 1.0], 2.0),
    "z3": ([1, 1, 1], [1.0, 1.0, 1.0], 3.0),
    "s3": ([1, 1, 2], [1.0, 1.0, 2.0], 6.0),
    "p2": ([2], [1.0], 2.0),
    "p3": ([3], [1.0], 3.0),
    "m23": ([2, 3], [1.0, PHI], 2 + 3 * PHI),
}


@pytest.mark.parametrize("key", sorted(SECTOR_TABLE))
def test_sector_dimensions(examples, key):
    sizes, dvals, delta = SECTOR_TABLE[key]
    table = wk.sector_dimensions(examples[key])
    assert [s.size for s in table.sectors] == sizes
    np.testing.assert_allclose([s.d for s in table.sectors], dvals, atol=1e-9)
    assert table.delta == pytest.approx(delta, abs=1e-9)
    assert all(s.d >= 1 - 1e-12 for s in table.sectors)


def test_quantum_dimension_from_standard_solutions(m23):
    sol = wk.standard_solutions(m23, 1)
    assert sol.d == pytest.approx(PHI, abs=1e-9)
    assert sol.zigzag_left == pytest.approx(sol.zigzag_right, abs=1e-9)


def test_zigzags_are_one_whatever_the_rounding_or_the_basis(m23, ising, rotated):
    """The phase of R is a gauge (lambda1 -> e^{i theta} lambda1, lambda2 -> e^{-i theta}
    lambda2) and the unitors' phases are canonical; rounding noise in the antipode,
    a complex basis or the dual must not move the zigzags off 1.  Ising and its
    dual are non-Kac, with a block of size 4."""
    noise = 1e-15j * np.random.default_rng(0).standard_normal(m23.antipode.shape)
    noisy = wk.WeakHopfAlgebra(m23.algebra, m23.delta, m23.eps, m23.antipode + noise)
    for w in (noisy, rotated(m23, seed=2), m23.dual, ising, rotated(ising.dual, seed=3)):
        for q in range(len(w.algebra.block_decomposition())):
            sol = wk.standard_solutions(w, q)
            assert sol.zigzag_left == pytest.approx(1.0, abs=1e-9)
            assert sol.zigzag_right == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("key", ["m23", "ising"])
def test_twisted_conjugate_matches_the_per_element_formula(examples, ising, key):
    """conj(D(g^(1/2) S(e_j)* g^(-1/2))) one basis element at a time, against the
    stacked form read through the derived conjugation; g is far from 1 on both
    (|g - 1| = 0.73 on m23)."""
    w = ising if key == "ising" else examples[key]
    cg = w.derived().grouplike
    assert np.linalg.norm(cg.g - w.unit) > 0.5
    k = w.algebra.involution @ np.conj(w.antipode)  # S(a)* = K conj(a)
    for d in wk.irreducible_representations(w):
        want = np.stack(
            [np.conj(d.apply(w.mul(cg.g_half, w.mul(k[:, j], cg.g_half_inv)))) for j in range(w.dim)]
        )
        got = reptheory._conjugates(w, w.derived().conjugation, d.matrices[None], [d.name], wk.DEFAULT_TOL)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, float(np.linalg.norm(want)))


def test_monoidal_product_matches_the_einsum_contraction(m23):
    """The pairwise contractions give (D1 (x) D2)(Delta(e_j)) compressed to the carrier."""
    d1, d2 = wk.irreducible_representations(m23)
    prod = wk.monoidal_product(m23, d1, d2)
    t = np.einsum("pqj,pac,qbd->jabcd", m23.delta3, d1.matrices, d2.matrices)
    t = t.reshape(m23.dim, d1.dim * d2.dim, d1.dim * d2.dim)
    v = prod.isometry
    want = np.einsum("am,jab,bk->jmk", np.conj(v), t, v)
    assert np.linalg.norm(prod.matrices - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(v @ v.conj().T - np.einsum("j,jab->ab", m23.unit, t)) <= 1e-12


def _unitor_failure(w, d_eps, reps, side):
    """The CrossCheckMismatch message of the unitors of ``reps``, solved as one stack."""
    with pytest.raises(wk.CrossCheckMismatch) as err:
        reptheory._unitors(w, d_eps, np.stack([r.matrices for r in reps]), [r.name for r in reps], side, wk.DEFAULT_TOL)
    return str(err.value)


def _turned(rep, seed):
    """``rep`` conjugated by a seeded random unitary: the same sector in another basis of its carrier."""
    g = np.random.default_rng(seed).normal(size=(2, rep.dim, rep.dim))
    u, _ = np.linalg.qr(g[0] + 1j * g[1])
    return wk.Representation(rep.wha, u.conj().T @ rep.matrices @ u, name=f"turned({rep.name})")


def test_unitor_must_be_an_isometry_onto_the_range_of_delta_one(m23):
    """Padding the sector with a zero block keeps it intertwining but makes
    the canonical left unitor vanish on the padding.  Stacked beside healthy
    representations of its dimension, it raises the message it raises alone."""
    d_eps = wk.vacua(m23).counit_rep
    small, tau = wk.irreducible_representations(m23)
    unitor = reptheory._unitors(m23, d_eps, tau.matrices[None], [tau.name], "left", wk.DEFAULT_TOL)
    assert unitor.shape == (1, d_eps.dim * tau.dim, tau.dim)
    padded = tau.direct_sum(wk.Representation(m23, np.zeros((m23.dim, 1, 1))))
    alone = _unitor_failure(m23, d_eps, [padded], "left")
    assert "left unitor of irrep[3](+) is not an isometry" in alone
    twice = small.direct_sum(small)
    healthy = [twice, _turned(twice, 3)]
    stack = np.stack([r.matrices for r in healthy])
    assert reptheory._unitors(m23, d_eps, stack, ["a", "b"], "left", wk.DEFAULT_TOL).shape == (2, 8, 4)
    assert _unitor_failure(m23, d_eps, [healthy[0], padded, healthy[1]], "left") == alone


def test_unitor_must_intertwine(m23):
    """The right unitor sees D only on A^R, through Delta(1) in A^R (x) A^L; a
    perturbation of D that vanishes on A^R leaves it an isometry onto the same
    range but breaks the intertwining, alone or stacked beside healthy sectors."""
    d_eps = wk.vacua(m23).counit_rep
    tau = wk.irreducible_representations(m23)[1]
    ar = m23.derived().counital_subalgebras.right.basis
    off_ar = np.eye(m23.dim) - ar @ np.linalg.pinv(ar)
    x = 1e-3 * np.random.default_rng(1).standard_normal((m23.dim, tau.dim, tau.dim))
    bent = wk.Representation(m23, tau.matrices + np.einsum("ij,iab->jab", off_ar, x), name="bent")
    alone = _unitor_failure(m23, d_eps, [bent], "right")
    assert "right unitor of bent fails to intertwine" in alone
    assert _unitor_failure(m23, d_eps, [tau, _turned(tau, 4), bent], "right") == alone
    assert _unitor_failure(m23, d_eps, [bent, tau], "right") == alone


def test_dimension_is_additive_and_multiplicative(s3):
    table = wk.sector_dimensions(s3)
    reps = [s.rep for s in table.sectors]
    two = reps[2]
    d = lambda rep: float(table.dimension_matrix(rep)[0, 0])
    assert d(two.direct_sum(reps[0])) == pytest.approx(d(two) + d(reps[0]), abs=1e-8)
    assert d(wk.monoidal_product(s3, two, two)) == pytest.approx(d(two) ** 2, abs=1e-8)


def test_dimension_factorization(examples):
    x, xt = wk.dimension_factorization(examples["p2"])
    np.testing.assert_allclose(x, [[1.0, 1.0]], atol=1e-9)
    np.testing.assert_allclose(xt, [[1.0], [1.0]], atol=1e-9)
    x3, _ = wk.dimension_factorization(examples["z3"])
    np.testing.assert_allclose(x3, [[np.sqrt(3)]], atol=1e-9)
    # d_A = x x^T against the sector table
    table = wk.sector_dimensions(examples["p2"])
    np.testing.assert_allclose(x @ x.T, table.d_matrix, atol=1e-9)


def _tensor(a: wk.WeakHopfAlgebra, b: wk.WeakHopfAlgebra) -> wk.WeakHopfAlgebra:
    """A ⊗ B on the basis e_i ⊗ f_a, index i * dim B + a, with the componentwise structure."""
    n = a.dim * b.dim
    c = np.einsum("ijk,abc->iajbkc", a.algebra.c, b.algebra.c).reshape(n, n, n)
    delta = np.einsum("pqi,xya->pxqyia", a.delta3, b.delta3).reshape(n * n, n)
    inv = np.kron(a.algebra.involution, b.algebra.involution)
    alg = wk.FinDimAlgebra(c, np.kron(a.unit, b.unit), involution=inv, name=f"{a.name}(x){b.name}")
    return wk.WeakHopfAlgebra(alg, delta, np.kron(a.eps, b.eps), np.kron(a.antipode, b.antipode))


def test_dimension_factorization_with_several_vacua_on_both_sides(examples):
    """p2 ⊗ fp2 has two vacua on A and two on the dual, so neither side is a single vacuum."""
    w = _tensor(examples["p2"], examples["fp2"])
    assert wk.validate_wha(w).ok
    x, xt = wk.dimension_factorization(w)
    np.testing.assert_allclose(x, [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)
    np.testing.assert_allclose(xt, x.T)


def test_dimension_factorization_refuses_a_decomposable_algebra():
    """On p2 ⊔ Z_3 the dimension matrix is not rank one, so no factor √δ u s^T fits."""
    w = wk.groupoid_wha(wk.disjoint_union(wk.pair_groupoid(2), wk.cyclic_group(3)))
    with pytest.raises(wk.FactorizationResidualTooLarge):
        wk.dimension_factorization(w)


MARKOV = {
    "z2": 2.0, "z3": 3.0, "z4": 4.0, "z5": 5.0, "s3": 6.0,
    "p2": 2.0, "p3": 3.0, "p4": 4.0, "fp2": 2.0, "m23": 2 + 3 * PHI,
}


@pytest.mark.parametrize("key", sorted(MARKOV))
def test_markov_index(examples, key):
    assert wk.markov_index(examples[key]) == pytest.approx(MARKOV[key], abs=1e-6)


def test_markov_index_needs_a_connected_algebra():
    w = wk.groupoid_wha(wk.disjoint_union(wk.pair_groupoid(2), wk.cyclic_group(2)))
    with pytest.raises(wk.NotConnected):
        wk.markov_index(w)


def test_markov_index_agrees_with_the_sector_delta(examples):
    for key in ("s3", "fp2", "m23"):
        table = wk.sector_dimensions(examples[key])
        assert wk.markov_index(examples[key]) == pytest.approx(float(table.delta), abs=1e-6)


@pytest.mark.parametrize("seed", [None, 7], ids=["canonical", "complex"])
@pytest.mark.parametrize("key", ["m23", "s3", "fp3", "p4"])
def test_irreducible_representations_are_the_wedderburn_map_conjugated(examples, rotated, key, seed):
    """rho_q(e_j) = W^-1 phi_q(e_j) W equals the restriction of L(e_j) to the carrier
    V_q W orthonormalized in the Haar state's inner product G, on A and on A^."""
    w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
    if seed is not None:
        w = rotated(w, seed)
    for v in (w, w.dual):
        gram = v.derived().haar_state.gram
        irreps = wk.irreducible_representations(v)
        ideals = v.algebra.wedderburn_map().ideals
        assert len(irreps) == len(ideals)
        for rep, ideal in zip(irreps, ideals):
            k = ideal.conj().T @ gram @ ideal
            vals, vecs = np.linalg.eigh((k + k.conj().T) / 2)
            basis = ideal @ (vecs / np.sqrt(vals))
            want = (basis.conj().T @ gram) @ v.algebra.c.transpose(0, 2, 1) @ basis  # over the L(e_j) = c[j].T
            assert float(np.max(np.abs(rep.matrices - want))) <= 1e-12, (key, v.name)
