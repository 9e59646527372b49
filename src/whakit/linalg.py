"""Tolerance-aware dense linear algebra helpers shared by all modules.

Everything here is a thin, deterministic wrapper around numpy's SVD/eig:
rank decisions go through a :class:`~whakit.config.Tolerance`, and every
basis or eigenvector that leaves this module is normalized the same way
on every run (first significant entry real positive).  Where a basis should
not depend on how an SVD rotates singular vectors of equal singular value,
:func:`pivoted_basis` replaces it by one that depends on its span alone.

The SVD helpers compute only the factor they return.  A matrix far from
square is first reduced to the square triangular factor of its QR
decomposition (Chan's R-SVD): ``a = Q R`` for tall ``a`` keeps the right
singular vectors, ``a = R^H Q^H`` for wide ``a`` keeps the left ones, and
``Q``, having orthonormal columns, changes no singular value.  Householder
QR is backward stable, so the rank cut sees ``a``'s singular values to
roundoff; no Gram matrix is formed, which would square them.

The rank of an idempotent is its trace, so its range needs no SVD:
:func:`idempotent_ranges` takes round(tr p) columns of each small one by a
pivoted Gram-Schmidt search, and returns them only when the residual of the
search shows that rank.  The large idempotents of a relative tensor product
are never formed: :func:`whakit.algebra.relative_tensor_carrier` builds
their ranges block by block from small ones.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import INT_ROUNDING_TOL, Tolerance, get_tol
from .errors import DimensionMismatch, NotNonnegative, NotPositive, RankDeficient

__all__ = [
    "orth",
    "kernel",
    "span_and_complement",
    "orth_stack",
    "kernel_stack",
    "idempotent_ranges",
    "pivoted_basis",
    "lstsq",
    "matrix_rank",
    "kron_sum",
    "contract",
    "normalize_phase",
    "Subspace",
    "perron_frobenius",
    "is_irreducible_nonneg",
    "hermitian_sqrt",
]


def _as_matrix(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    return a


def _svd_cut(s, tol: Tolerance, scale: float) -> int:
    """Number of singular values considered nonzero."""
    return int(np.count_nonzero(s > tol.bound(scale)))


def _svd_cuts(s, tol: Tolerance) -> list[int]:
    """:func:`_svd_cut` of each row of the (m, k) singular values ``s``, relative to its largest."""
    return np.count_nonzero(s > tol.bounds(s[:, :1]), axis=1).tolist()


def normalize_phase(v, tol: Tolerance | None = None):
    """Rescale so the first entry of significant magnitude is real positive."""
    tol = get_tol(tol)
    v = np.asarray(v, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        return v
    idx = np.flatnonzero(np.abs(v) > 0.1 * np.max(np.abs(v)))
    if idx.size == 0:
        return v
    pivot = v.flat[int(idx[0])]
    return v * (abs(pivot) / pivot)


def _phase_normalized(q):
    """The columns of ``q``, or of each matrix of an (m, r, c) stack ``q``, each
    scaled as :func:`normalize_phase` scales a vector.

    The first entry above 0.1 max|column| is made real positive; zero columns
    are left alone.
    """
    if q.ndim == 3:  # the columns of a stack side by side
        m, r, c = q.shape
        return _phase_normalized(q.transpose(1, 0, 2).reshape(r, m * c)).reshape(r, m, c).transpose(1, 0, 2)
    mag = np.abs(q)
    top = mag.max(axis=0, initial=0.0)
    first, cols = np.argmax(mag > 0.1 * top, axis=0), np.arange(q.shape[1])
    phase = np.divide(mag[first, cols], q[first, cols], out=np.ones(q.shape[1], dtype=complex), where=top > 0)
    return q * phase


def orth(a, tol: Tolerance | None = None):
    """Orthonormal basis (columns) of the column space of ``a``.

    Reads the left singular vectors only.  A tall or square ``a`` takes the
    economy SVD.  A wide (m, k) ``a`` is first replaced by the (m, m) factor
    ``R^H`` of ``a^H = Q R``, which has the same left singular vectors and
    singular values, so the (m, k) factor V^H is never formed.
    """
    tol = get_tol(tol)
    a = _as_matrix(a)
    if min(a.shape) == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=complex)
    if a.shape[0] < a.shape[1]:
        a = np.linalg.qr(a.conj().T, mode="r").conj().T
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = _svd_cut(s, tol, s[0])
    return _phase_normalized(u[:, :r])


def kernel(a, tol: Tolerance | None = None):
    """Orthonormal basis (columns) of the null space of ``a``.

    Reads the right singular vectors only.  A wide or square ``a`` takes the
    full SVD, since the kernel needs all of V.  A tall (m, n) ``a`` is first
    replaced by the (n, n) factor R of ``a = Q R``, which has the same right
    singular vectors and singular values, so the (m, n) factor U is never
    formed.
    """
    tol = get_tol(tol)
    a = _as_matrix(a)
    if a.shape[1] == 0:
        return np.zeros((a.shape[1], 0), dtype=complex)
    if a.shape[0] == 0 or not np.any(a):
        return np.eye(a.shape[1], dtype=complex)
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a)
    r = _svd_cut(s, tol, s[0])
    return _phase_normalized(vh[r:, :].conj().T)


def span_and_complement(a, tol: Tolerance | None = None):
    """Orthonormal bases ``(span, complement)`` of the column space of ``a`` and
    of its orthogonal complement, both from one SVD.

    ``span`` is what :func:`orth` returns (same cut, same phases); the columns
    of ``complement`` span ``kernel(span^H)``.  Reads the full U only.  A
    tall or square ``a`` takes the full SVD.  A wide (m, k) ``a`` is first
    replaced by the (m, m) factor ``R^H`` of ``a^H = Q R``, as in
    :func:`orth`, so the (m, k) factor V^H is never formed.
    """
    tol = get_tol(tol)
    a = _as_matrix(a)
    m = a.shape[0]
    if min(a.shape) == 0 or not np.any(a):
        return np.zeros((m, 0), dtype=complex), np.eye(m, dtype=complex)
    if m < a.shape[1]:
        a = np.linalg.qr(a.conj().T, mode="r").conj().T
    u, s, _ = np.linalg.svd(a)
    r = _svd_cut(s, tol, s[0])
    return _phase_normalized(u[:, :r]), _phase_normalized(u[:, r:])


def orth_stack(mats, tol: Tolerance | None = None) -> list[np.ndarray]:
    """:func:`orth` of each matrix in the (m, r, c) stack ``mats``, from one batched SVD.

    Basis j holds the left singular vectors of mats[j] above the cut relative
    to its own largest singular value, with the phases of :func:`orth`: the
    basis :func:`orth` returns for that matrix alone, to roundoff, where those
    singular values are distinct.
    """
    tol = get_tol(tol)
    u, s, _ = np.linalg.svd(np.asarray(mats, dtype=complex))
    return [u_j[:, :r] for u_j, r in zip(_phase_normalized(u), _svd_cuts(s, tol))]


def kernel_stack(mats, tol: Tolerance | None = None) -> list[np.ndarray]:
    """:func:`kernel` of each matrix in the (m, r, c) stack ``mats``, from one batched QR and SVD.

    Basis j holds the right singular vectors of mats[j] below the cut relative
    to its own largest singular value, with the phases of :func:`kernel`.  A
    tall stack is first reduced to the (c, c) triangular factors of its QRs,
    as :func:`kernel` reduces one matrix.
    """
    tol = get_tol(tol)
    a = np.asarray(mats, dtype=complex)
    m, rows, cols = a.shape
    if cols == 0:
        return [np.zeros((0, 0), dtype=complex) for _ in range(m)]
    if rows == 0:
        return [np.eye(cols, dtype=complex) for _ in range(m)]
    if rows > cols:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a)
    return [v[:, r:] for v, r in zip(_phase_normalized(vh.conj().swapaxes(1, 2)), _svd_cuts(s, tol))]


def _positive_qr(a):
    """The orthonormal factor of the QR of each matrix in the stack ``a``, its columns scaled so
    that the triangular factor's diagonal is real positive where it is nonzero, and that diagonal's moduli."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(diag)
    return q * np.divide(diag, size, out=np.ones_like(diag), where=size > 0)[..., None, :], size


def idempotent_ranges(mats, tol: Tolerance | None = None) -> list[tuple[np.ndarray, list[int]]] | None:
    """Pivoted orthonormal bases of the ranges of the square idempotents in ``mats``, with their pivots, or None.

    The rank of an idempotent is its trace, r = round(tr p).  Basis j is the
    orthonormal factor of the QR of the r columns ``p e_k`` that a
    column-pivoted Gram-Schmidt search of p takes, its diagonal made real
    positive, and the pivots are those k in order.  The search takes the
    column of largest residual, ties broken as in :func:`pivoted_basis`.  No
    SVD is taken, and the basis depends on p alone: where p's columns are
    standard basis vectors or 0, it is those vectors.  For r = n the basis
    is the identity, with no search.  Against the cut ``tol.bound(|p|_F)``,
    every diagonal entry of the triangular factor (the residual of each
    pivot) must exceed the cut and the residual after r steps must not, or
    ``|p - 1|_F`` must not for r = n.  None when one of these misses, a
    trace lies farther than ``INT_ROUNDING_TOL`` from its integer, or a
    matrix is not square or not finite.  Matrices of one shape and rank are
    searched together, one step per column over the whole stack.  This is
    for the small idempotents of the blocks of a semisimple algebra, such as
    the ranges X f of its minimal projections f acting on a module X.
    """
    tol = get_tol(tol)
    mats = [np.asarray(a, dtype=complex) for a in mats]
    if any(a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)) for a in mats):
        return None
    traces = np.array([np.trace(a) for a in mats])
    ranks = np.round(traces.real).astype(int)
    if np.any(np.abs(traces - ranks) > INT_ROUNDING_TOL):
        return None
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (a, r) in enumerate(zip(mats, ranks)):
        groups.setdefault((a.shape[0], int(r)), []).append(j)
    out: list = [None] * len(mats)
    for (n, r), members in groups.items():
        stack = np.stack([mats[j] for j in members])
        cuts = np.array([tol.bound(np.linalg.norm(p)) for p in stack])
        if r == n:
            if np.any(np.linalg.norm(stack - np.eye(n), axis=(1, 2)) > cuts):
                return None
            for j in members:
                out[j] = np.eye(n, dtype=complex), list(range(n))
            continue
        # step t takes the column p e_k of largest residual in every matrix and projects it out of the others
        res = stack.copy()
        norms = np.einsum("irk,irk->ik", res.conj(), res).real
        rows = np.arange(len(members))
        pivots = np.zeros((len(members), r), dtype=int)
        for t in range(r):
            top = norms.max(axis=1, keepdims=True)
            k = np.argmax(norms >= top - 1e-8 * top, axis=1)
            pivots[:, t] = k
            col = res[rows, :, k]
            length = np.linalg.norm(col, axis=1)
            unit = col / np.where(length > 0, length, 1.0)[:, None]
            proj = np.einsum("ir,irk->ik", unit.conj(), res)
            res -= unit[:, :, None] * proj[:, None, :]
            norms -= proj.real**2 + proj.imag**2
        bases, diag = _positive_qr(np.take_along_axis(stack, pivots[:, None, :], axis=2))
        if np.any(np.linalg.norm(res, axis=(1, 2)) > cuts) or np.any(diag <= cuts[:, None]):
            return None
        for j, basis, piv in zip(members, bases, pivots):
            out[j] = basis, piv.tolist()
    return out


def pivoted_basis(q):
    """The column-pivoted Gram-Schmidt basis of the span of the orthonormal columns ``q``.

    With P the orthogonal projector onto that span, step t takes the column
    ``P e_k`` with the largest residual against the columns taken so far (the
    first within 1e-8 relative of the largest, so that roundoff does not
    break ties).  The result depends on the span alone, not on which
    orthonormal basis of it ``q`` is, and where P fixes standard basis
    vectors it picks them first.  Column k of ``q^H`` holds the coordinates
    of ``P e_k`` in the basis q, so the search costs O(r^2 n) for r columns of
    length n and P is never formed.  Column t is scaled so that its entry at
    the t-th pivot is real positive.  A basis of the whole space gives the
    identity, which is returned without the search.
    """
    if q.shape[0] == q.shape[1]:
        return np.eye(q.shape[0], dtype=complex)
    res = q.conj().T.copy()
    norms = np.einsum("ij,ij->j", res.conj(), res).real
    pivots: list[int] = []
    for _ in range(res.shape[0]):
        top = norms.max()
        k = int(np.argmax(norms >= top - 1e-8 * top))
        pivots.append(k)
        unit = res[:, k] / np.sqrt(norms[k])
        proj = unit.conj() @ res
        res -= unit[:, None] * proj
        norms -= proj.real**2 + proj.imag**2
    # the columns P e_k over the pivots are q (q^H e_k) = (q Q) R
    qr_q, qr_r = np.linalg.qr(q.conj().T[:, pivots])
    diag = np.diagonal(qr_r)
    return q @ (qr_q * (diag / np.abs(diag)))


def matrix_rank(a, tol: Tolerance | None = None) -> int:
    """Number of singular values of ``a`` kept by the cut of :func:`orth` and :func:`kernel`."""
    tol = get_tol(tol)
    a = _as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return _svd_cut(s, tol, s[0])


def kron_sum(x, y):
    """The stack ``X_b (x) 1 - 1 (x) Y_b`` for square ``x`` (..., B, p, p) and ``y`` (..., B, r, r).

    Returns shape (..., B, p r, p r) in row-major Kronecker order, entry
    ``[..., b, (i, k), (j, l)] = X_b[i, j] delta_kl - delta_ij Y_b[k, l]``; the
    leading axes broadcast.  The kernel of the stacked rows is a Hom space;
    the span of the stacked columns is the relation space of a relative tensor
    product.
    """
    x, y = np.asarray(x), np.asarray(y)
    p, r = x.shape[-1], y.shape[-1]
    out = x[..., :, None, :, None] * np.eye(r)[:, None, :] - np.eye(p)[:, None, :, None] * y[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], p * r, p * r)


def contract(subscripts: str, *operands):
    """``np.einsum(subscripts, *operands, optimize=True)``, with the greedy contraction path
    computed once per subscripts and operand shapes instead of on every call."""
    path = _contraction_path(subscripts, tuple(np.shape(op) for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


@lru_cache(maxsize=256)
def _contraction_path(subscripts: str, shapes: tuple) -> list:
    """The path ``optimize=True`` takes, which depends on the shapes alone."""
    return np.einsum_path(subscripts, *(np.broadcast_to(0.0, shape) for shape in shapes), optimize="greedy")[0]


def lstsq(a, b, tol: Tolerance | None = None):
    """Least squares solve; returns ``(x, residual)`` with the actual residual norm."""
    tol = get_tol(tol)
    a = _as_matrix(a)
    b = np.asarray(b, dtype=complex)
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    resid = float(np.linalg.norm(a @ x - b))
    return x, resid


def hermitian_sqrt(m, tol: Tolerance | None = None):
    """Square root of a positive semidefinite Hermitian matrix via eigh.

    Raises :class:`~whakit.errors.RankDeficient` on non-Hermitian input and
    :class:`~whakit.errors.NotPositive` below ``-tol.bound`` of the largest
    eigenvalue magnitude; eigenvalues in ``[-bound, 0)`` are clamped to zero.
    """
    tol = get_tol(tol)
    m = _as_matrix(m)
    herm_resid = np.linalg.norm(m - m.conj().T)
    if herm_resid > tol.bound(np.linalg.norm(m)):
        raise RankDeficient(f"matrix is not Hermitian (residual {herm_resid:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    scale = max(abs(w[0]), abs(w[-1])) if w.size else 0.0
    if w.size and w[0] < -tol.bound(scale):
        raise NotPositive(f"matrix has negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


class Subspace:
    """A subspace of C^n stored as orthonormal columns.

    Supports the handful of set operations the algebra layer needs:
    membership, containment, equality (via projector distance) and
    intersection (via stacked complements).
    """

    @classmethod
    def orthonormal(cls, basis, tol: Tolerance | None = None) -> "Subspace":
        """The span of the orthonormal columns ``basis``, which are kept as they are."""
        out = cls.__new__(cls)
        out.basis, out.ambient, out.tol = basis, basis.shape[0], get_tol(tol)
        return out

    def __init__(self, basis, ambient: int | None = None, tol: Tolerance | None = None):
        tol = get_tol(tol)
        basis = _as_matrix(basis)
        if ambient is not None and basis.shape[0] != ambient:
            raise DimensionMismatch(f"ambient {ambient} != rows {basis.shape[0]}")
        # the input may be any spanning set
        self.basis = orth(basis, tol) if basis.shape[1] else basis
        self.ambient = basis.shape[0]
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.conj().T

    def project(self, v):
        return self.basis @ (self.basis.conj().T @ np.asarray(v, dtype=complex))

    def distance(self, v) -> float:
        """Norm of the component of ``v`` outside the subspace."""
        v = np.asarray(v, dtype=complex)
        return float(np.linalg.norm(v - self.project(v)))

    def contains_vector(self, v, tol: Tolerance | None = None) -> bool:
        return self.contains_columns(np.reshape(v, (-1, 1)), tol)

    def contains_columns(self, vs, tol: Tolerance | None = None) -> bool:
        """Whether each column v of ``vs`` lies within ``tol.bound(|v|)`` of the subspace, from one projection."""
        tol = get_tol(tol) if tol is not None else self.tol
        vs = _as_matrix(vs)
        outside = np.linalg.norm(vs - self.project(vs), axis=0)
        return all(o <= tol.bound(s) for o, s in zip(outside, np.linalg.norm(vs, axis=0)))

    def contains(self, other: "Subspace", tol: Tolerance | None = None) -> bool:
        tol = get_tol(tol) if tol is not None else self.tol
        if other.dim == 0:
            return True
        resid = np.linalg.norm(other.basis - self.project(other.basis))
        return float(resid) <= tol.bound(np.sqrt(other.dim))

    def equals(self, other: "Subspace", tol: Tolerance | None = None) -> bool:
        return self.dim == other.dim and self.contains(other, tol) and other.contains(self, tol)

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        eye = np.eye(self.ambient, dtype=complex)
        stacked = np.vstack([eye - self.projector(), eye - other.projector()])
        return Subspace(kernel(stacked, self.tol), self.ambient, self.tol)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def is_irreducible_nonneg(m, tol: Tolerance | None = None) -> bool:
    """Connectivity of the support graph of a nonnegative square matrix."""
    tol = get_tol(tol)
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 0:
        return True
    adj = (np.abs(m) > tol.bound(np.max(np.abs(m)) if m.size else 1.0)) | np.eye(n, dtype=bool)
    adj = adj | adj.T
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.flatnonzero(adj[i]):
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == n


def perron_frobenius(m, tol: Tolerance | None = None):
    """Perron eigenvalue and eigenvector of an entrywise nonnegative matrix.

    The eigenvector is normalized deterministically: entrywise nonnegative,
    unit 1-norm, first significant entry positive.  Raises
    :class:`~whakit.errors.NotNonnegative` if ``m`` has a negative entry.
    """
    tol = get_tol(tol)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 1.0
    if np.any(m.real < -tol.bound(scale)) or np.any(np.abs(m.imag) > tol.bound(scale)):
        raise NotNonnegative("matrix has negative or non-real entries")
    m = m.real.astype(float)
    if m.shape[0] == 0:
        raise DimensionMismatch("empty matrix has no Perron data")
    vals, vecs = np.linalg.eig(m)
    k = int(np.argmax(vals.real - 1e3 * np.abs(vals.imag)))
    lam = vals[k]
    if abs(lam.imag) > tol.bound(abs(lam)):
        raise NotNonnegative(f"leading eigenvalue {lam} is not real")
    v = vecs[:, k]
    v = normalize_phase(v, tol)
    if np.any(v.real < -np.sqrt(tol.bound(1.0))) and np.any(v.real > 0):
        # reducible matrices can hand back mixed-sign vectors; fall back to
        # power iteration from a strictly positive start, which stays nonneg
        v = np.ones(m.shape[0])
        for _ in range(10000):
            w = m @ v + 1e-30
            w /= np.linalg.norm(w)
            if np.linalg.norm(w - v) < 1e-15:
                break
            v = w
    v = np.abs(v.real)
    v = v / np.sum(v)
    return float(lam.real), v
