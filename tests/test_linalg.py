import numpy as np
import pytest

from whakit.config import DEFAULT_TOL, Tolerance
from whakit.errors import DimensionMismatch, NotNonnegative
from whakit.linalg import (
    Subspace,
    _phase_normalized,
    coimage_and_kernel,
    hermitian_sqrt,
    idempotent_range,
    is_irreducible_nonneg,
    kernel,
    kron_sum,
    lstsq,
    matrix_rank,
    normalize_phase,
    orth,
    perron_frobenius,
    pivoted_basis,
    span_and_complement,
)

RNG = np.random.default_rng(0x57484131)


def test_orth_orthonormal_and_span():
    a = RNG.normal(size=(7, 4)) + 1j * RNG.normal(size=(7, 4))
    a[:, 3] = a[:, 0] + a[:, 1]  # force rank 3
    q = orth(a)
    assert q.shape == (7, 3)
    assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    # original columns lie in the span of q
    assert np.linalg.norm(a - q @ (q.conj().T @ a)) < 1e-10


def test_kernel_wide_and_tall():
    for shape in ((3, 8), (8, 3), (6, 6)):
        a = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
        a[:, -1] = a[:, 0]  # guarantee a nontrivial kernel
        k = kernel(a)
        assert k.shape[1] >= 1
        assert np.linalg.norm(a @ k) < 1e-10
        assert np.allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-12)
        # rank-nullity
        assert k.shape[1] == shape[1] - np.linalg.matrix_rank(a, tol=1e-10)


def test_span_and_complement_split_the_ambient_space():
    for shape in ((4, 9), (9, 4), (5, 5)):
        a = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
        a[:, -1] = a[:, 0] - a[:, 1]  # rank one below full on every shape
        for mat in (a, np.zeros(shape)):
            span, comp = span_and_complement(mat)
            m = shape[0]
            assert span.shape[1] == matrix_rank(mat) == orth(mat).shape[1]
            assert span.shape[1] + comp.shape[1] == m
            both = np.hstack([span, comp])
            assert np.allclose(both.conj().T @ both, np.eye(m), atol=1e-12)
            assert np.linalg.norm(mat - span @ (span.conj().T @ mat)) < 1e-10
            if span.shape[1]:
                assert np.allclose(span, orth(mat), atol=1e-12)
    span, comp = span_and_complement(np.zeros((3, 4)))
    assert span.shape == (3, 0) and np.array_equal(comp, np.eye(3))


def _svd_test_matrix(m, k, rank, real, seed):
    """A random (m, k) matrix of the given rank, real or complex."""
    r = np.random.default_rng(seed)
    draw = (lambda *s: r.normal(size=s)) if real else (lambda *s: r.normal(size=s) + 1j * r.normal(size=s))
    return draw(m, rank) @ draw(rank, k)


SVD_CASES = {
    f"{m}x{k}-rank{rank}-{'real' if real else 'complex'}": (m, k, rank, real)
    for m, k in ((9, 4), (4, 9), (6, 6), (7, 1), (400, 20), (20, 400))
    for rank in sorted({min(m, k), max(1, min(m, k) - 2)})
    for real in (True, False)
}


def _full_svd_reference(a):
    """(span, complement, kernel) of ``a`` from one full SVD and the helpers' cut."""
    u, s, vh = np.linalg.svd(a)
    r = int(np.sum(s > DEFAULT_TOL.bound(s[0])))
    return u[:, :r], u[:, r:], vh[r:].conj().T


def _assert_same_subspace_and_phases(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T, 2) <= 1e-12
    for col in got.T:  # first entry above 0.1 max|col| is real positive, to roundoff
        pivot = col[np.flatnonzero(np.abs(col) > 0.1 * np.max(np.abs(col)))[0]]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-15 * pivot.real


@pytest.mark.parametrize("case", sorted(SVD_CASES))
def test_one_sided_svds_match_the_full_svd(case):
    m, k, rank, real = SVD_CASES[case]
    a = _svd_test_matrix(m, k, rank, real, seed=m * k + rank)
    span_ref, comp_ref, ker_ref = _full_svd_reference(a)
    assert span_ref.shape[1] == rank
    span, comp = span_and_complement(a)
    _assert_same_subspace_and_phases(orth(a), span_ref)
    _assert_same_subspace_and_phases(span, span_ref)
    _assert_same_subspace_and_phases(comp, comp_ref)
    _assert_same_subspace_and_phases(kernel(a), ker_ref)


@pytest.mark.parametrize("case", sorted(k for k in SVD_CASES if "400" not in k))
def test_coimage_and_kernel_split_the_domain(case):
    m, k, rank, real = SVD_CASES[case]
    a = _svd_test_matrix(m, k, rank, real, seed=m * k + rank)
    coimage, ker = coimage_and_kernel(a)
    _assert_same_subspace_and_phases(ker, _full_svd_reference(a)[2])
    assert coimage.shape == (k, rank)
    both = np.hstack([coimage, ker])
    assert np.allclose(both.conj().T @ both, np.eye(k), atol=1e-12)


def test_the_pivoted_basis_depends_only_on_the_span():
    """Any orthonormal basis of a span gives the same pivoted basis; a span of
    standard basis vectors gets those vectors."""
    coimage, ker = coimage_and_kernel(np.diag([1.0, 0.0, 1.0, 1.0, 0.0]))
    assert ker.shape == (5, 2)
    assert np.allclose(pivoted_basis(coimage), np.eye(5)[:, [0, 2, 3]], atol=1e-15)
    q, _ = coimage_and_kernel(_svd_test_matrix(7, 7, 4, real=False, seed=9))
    u, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
    want, got = pivoted_basis(q), pivoted_basis(q @ u)
    assert np.linalg.norm(got - want) <= 1e-12
    assert np.allclose(got.conj().T @ got, np.eye(4), atol=1e-12)
    assert np.linalg.norm(got @ got.conj().T - q @ q.conj().T) <= 1e-12


def _oblique_idempotent(n, r, seed, real=False):
    """``a (b a)^-1 b`` for random (n, r) a and (r, n) b: an idempotent of rank r that is not Hermitian."""
    a = _svd_test_matrix(n, r, r, real, seed)
    b = _svd_test_matrix(r, n, r, real, seed + 1)
    return a @ np.linalg.solve(b @ a, b)


@pytest.mark.parametrize("n, r, real", [(12, 5, True), (30, 12, False), (64, 1, False), (50, 49, True)])
def test_the_range_of_an_idempotent_is_the_full_svd_range(n, r, real):
    p = _oblique_idempotent(n, r, seed=n + r, real=real)
    q = idempotent_range(p)
    u = orth(p)
    assert q.shape == u.shape == (n, r)
    assert np.allclose(q.conj().T @ q, np.eye(r), atol=1e-12)
    assert np.linalg.norm(q @ q.conj().T - u @ u.conj().T) <= 1e-12
    _assert_same_subspace_and_phases(q, q)  # first significant entry of each column real positive


def test_the_identity_is_its_own_range_without_a_sketch(monkeypatch):
    monkeypatch.setattr("whakit.linalg.rng", lambda *args: pytest.fail("a sketch was drawn"))
    assert np.array_equal(idempotent_range(np.eye(7)), np.eye(7))
    assert idempotent_range(np.eye(7) + 1e-6 * np.eye(7)[:, ::-1]) is None  # trace 7, but 1 is not what it is


def test_a_matrix_whose_trace_is_not_its_rank_cut_is_refused():
    p = _oblique_idempotent(20, 6, seed=3)
    assert idempotent_range(np.zeros((5, 5))) is None  # trace 0
    assert idempotent_range(2 * p) is None  # trace 12, rank 6
    # a 1e-6 perturbation keeps the trace but lifts 14 singular values above the cut of matrix_rank
    noisy = p + 1e-6 * RNG.normal(size=(20, 20))
    assert round(np.trace(noisy).real) == 6 and matrix_rank(noisy) == 20
    assert idempotent_range(noisy) is None
    # below the cut the sketch decides, and the cut keeps 6
    quiet = p + 1e-13 * RNG.normal(size=(20, 20))
    assert matrix_rank(quiet) == 6 and idempotent_range(quiet).shape == (20, 6)
    assert idempotent_range(np.full((4, 4), np.nan)) is None
    assert idempotent_range(np.ones((3, 4))) is None


class _Constant:
    """A stand-in generator whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def test_a_sketch_that_misses_the_range_is_refused(monkeypatch):
    # Omega = 0 misses ran p, Q_0 is then the first 6 unit vectors, and p kills the first of them
    a = _svd_test_matrix(20, 6, 6, False, 5)
    b = _svd_test_matrix(6, 20, 6, False, 6)
    b[:, 0] = 0.0
    p = a @ np.linalg.solve(b @ a, b)
    monkeypatch.setattr("whakit.linalg.rng", lambda *args: _Constant(0.0))
    assert idempotent_range(p) is None


def test_the_second_product_repairs_a_sketch_of_rank_one(monkeypatch):
    # p Omega has rank 1 for Omega = 1, but the completion of its QR factor is generic, and p maps it onto ran p
    p = _oblique_idempotent(20, 6, seed=5)
    monkeypatch.setattr("whakit.linalg.rng", lambda *args: _Constant(1.0))
    q = idempotent_range(p)
    u = orth(p)
    assert np.linalg.norm(q @ q.conj().T - u @ u.conj().T) <= 1e-12


@pytest.mark.parametrize(
    "helper, shape", [(kernel, (400, 20)), (orth, (20, 400)), (span_and_complement, (20, 400))]
)
def test_far_from_square_inputs_reach_the_svd_as_their_square_factor(monkeypatch, helper, shape):
    """A tall kernel never forms the (m, n) U and a wide span never the (m, k) V^H."""
    shapes = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    helper(_svd_test_matrix(*shape, rank=20, real=False, seed=3))
    assert shapes == [(20, 20)]


def test_phase_normalized_matches_normalize_phase_column_by_column():
    r = np.random.default_rng(5)
    for m, k in ((1, 1), (5, 3), (8, 12), (30, 7)):
        q = r.normal(size=(m, k)) + 1j * r.normal(size=(m, k))
        q[:, r.integers(k)] = 0.0  # a zero column is left alone
        q[r.integers(m), :] *= 1e-12  # a row of tiny entries is never a pivot
        want = np.column_stack([normalize_phase(q[:, j]) for j in range(k)])
        assert np.max(np.abs(_phase_normalized(q) - want)) <= 1e-15
    assert _phase_normalized(np.zeros((3, 0), dtype=complex)).shape == (3, 0)


def test_kron_sum_matches_np_kron():
    x = RNG.normal(size=(3, 2, 2)) + 1j * RNG.normal(size=(3, 2, 2))
    y = RNG.normal(size=(3, 4, 4))
    want = np.stack([np.kron(x[b], np.eye(4)) - np.kron(np.eye(2), y[b]) for b in range(3)])
    np.testing.assert_array_equal(kron_sum(x, y), want)
    assert kron_sum(x[:0], y[:0]).shape == (0, 8, 8)


def test_matrix_rank_uses_the_orth_cut():
    a = RNG.normal(size=(6, 4)) + 1j * RNG.normal(size=(6, 4))
    a[:, 3] = a[:, 0] - 2 * a[:, 1]
    assert matrix_rank(a) == orth(a).shape[1] == 3
    assert matrix_rank(1e-12 * a) == orth(1e-12 * a).shape[1] == 0
    assert matrix_rank(1e-12 * a, Tolerance(1e-14, 1e-9)) == 3
    assert matrix_rank(np.zeros((0, 3))) == 0


def test_lstsq_exact_and_inconsistent():
    a = RNG.normal(size=(5, 3))
    x = RNG.normal(size=3)
    sol, resid = lstsq(a, a @ x)
    assert np.allclose(sol, x, atol=1e-10)
    assert resid < 1e-10
    # an inconsistent system reports a nonzero residual
    b = np.zeros(5)
    b[0] = 1.0
    a_bad = np.zeros((5, 1))
    a_bad[1, 0] = 1.0
    _, resid = lstsq(a_bad, b)
    assert resid > 0.9


def test_subspace_operations():
    s1 = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), 3)
    s2 = Subspace(np.array([[0.0], [1.0], [0.0]]), 3)
    assert s1.dim == 2 and s2.dim == 1
    assert s1.contains(s2) and not s2.contains(s1)
    inter = s1.intersection(s2)
    assert inter.dim == 1 and inter.equals(s2)
    assert s1.contains_vector([1.0, 2.0, 0.0])
    assert not s1.contains_vector([0.0, 0.0, 1.0])
    assert s2.distance([0.0, 0.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        Subspace(np.eye(3), ambient=4)


def test_contains_columns_is_contains_vector_per_column():
    """Each column against tol.bound(|v|): the distance of v from the span, written out."""
    r = np.random.default_rng(0)
    s = Subspace(r.normal(size=(6, 3)) + 1j * r.normal(size=(6, 3)), 6)
    inside = s.basis @ (r.normal(size=(3, 4)) + 1j * r.normal(size=(3, 4)))
    for eps in (0.0, 1e-12, 1e-9, 1e-6):
        off = inside + eps * (np.eye(6)[:, :4] - s.project(np.eye(6)[:, :4]))
        dist = np.linalg.norm(off - s.basis @ (s.basis.conj().T @ off), axis=0)
        want = all(x <= DEFAULT_TOL.bound(np.linalg.norm(v)) for x, v in zip(dist, off.T))
        assert s.contains_columns(off) == want == all(s.contains_vector(v) for v in off.T), eps
    normal = np.eye(6)[:, 5] - s.project(np.eye(6)[:, 5])
    assert s.contains_columns(inside) and not s.contains_columns(np.column_stack([inside, normal]))


def test_perron_frobenius_known_matrix():
    # golden-ratio graph: largest eigenvalue of [[0,1],[1,1]] is (1+sqrt 5)/2
    lam, vec = perron_frobenius(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert lam == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)
    assert np.all(vec > 0)
    with pytest.raises(NotNonnegative):
        perron_frobenius(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_irreducibility_of_support_graph():
    assert is_irreducible_nonneg(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_irreducible_nonneg(np.diag([1.0, 2.0]))


def test_hermitian_sqrt():
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    h = a @ a.conj().T + np.eye(4)
    r = hermitian_sqrt(h)
    assert np.allclose(r @ r, h, atol=1e-10)
    assert np.allclose(r, r.conj().T, atol=1e-10)
