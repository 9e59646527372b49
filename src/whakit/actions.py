"""Weak Hopf actions on finite-dimensional algebras.

An action is a rank-3 array ``alpha`` with ``alpha_{e_i}(m_j) = sum_k
alpha[i,j,k] m_k``.  On top of axiom validation this module builds invariant
subalgebras (two independent routes), the crossed product ``M x| A`` on the
relative tensor product over ``A^L``, the regularity clauses that make
``M^A c M c M x| A`` a basic construction, the itemized basic-construction
checks, the Galois map, and the smash product ``A # A^``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import FinDimAlgebra, induced_algebra, inclusion_matrix, watatani_index
from .config import Tolerance, get_tol
from .errors import (
    CrossCheckMismatch,
    IllDefinedProduct,
    InvariantMismatch,
    NoQuasiBasis,
    NotConditionalExpectation,
    NotSemisimple,
)
from .linalg import Subspace, kernel, kron_sum, matrix_rank, orth
from .report import AxiomReport
from .wha import WeakHopfAlgebra

__all__ = [
    "WhaAction",
    "validate_action",
    "invariants",
    "m_r_subalgebra",
    "CrossedProduct",
    "crossed_product",
    "RegularityResult",
    "is_regular",
    "verify_basic_construction",
    "galois_map",
    "smash_product",
    "dual_regular_action",
    "arrow_action",
    "trivial_action",
]


@dataclass
class WhaAction:
    """A left action of a weak Hopf algebra on a finite-dimensional algebra."""

    wha: WeakHopfAlgebra
    module: FinDimAlgebra
    alpha: np.ndarray  # (dim A, dim M, dim M)
    name: str = "action"

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=complex)
        expected = (self.wha.dim, self.module.dim, self.module.dim)
        if self.alpha.shape != expected:
            from .errors import DimensionMismatch

            raise DimensionMismatch(f"alpha must have shape {expected}, got {self.alpha.shape}")

    def amat(self, a) -> np.ndarray:
        """Operator matrix of alpha_a on coordinate vectors."""
        return np.einsum("i,ijk->kj", np.asarray(a, dtype=complex).ravel(), self.alpha)

    def apply(self, a, m) -> np.ndarray:
        return self.amat(a) @ np.asarray(m, dtype=complex).ravel()

    def validate(self, tol: Tolerance | None = None) -> AxiomReport:
        return validate_action(self, tol)


def validate_action(action: WhaAction, tol: Tolerance | None = None) -> AxiomReport:
    """Residuals of the four action axioms."""
    tol = get_tol(tol)
    w, m_alg, alpha = action.wha, action.module, action.alpha
    rep = AxiomReport(f"{action.name}: {w.name} on {m_alg.name}")
    scale = max(1.0, float(np.linalg.norm(alpha)))
    ops = alpha.transpose(0, 2, 1)  # operator matrix of alpha_{e_i}
    lhs = np.einsum("iab,jbc->ijac", ops, ops, optimize=True)
    rhs = np.einsum("ijk,kac->ijac", w.algebra.c, ops, optimize=True)
    rep.add("action-algebra-map", np.linalg.norm(lhs - rhs), tol.bound(scale**2) * 10)
    rep.add(
        "action-unital",
        np.linalg.norm(action.amat(w.unit) - np.eye(m_alg.dim)),
        tol.bound(scale) * 10,
    )
    cm = m_alg.c
    lhs2 = np.einsum("jJr,trk->tjJk", cm, alpha, optimize=True)
    rhs2 = np.einsum("pqt,pja,qJb,abk->tjJk", w.delta3, alpha, alpha, cm, optimize=True)
    rep.add("action-module-algebra", np.linalg.norm(lhs2 - rhs2), tol.bound(scale**2) * 10)
    pi_l, _ = w.counital_maps
    unit_m = m_alg.unit
    lhs3 = np.einsum("tjk,j->kt", alpha, unit_m)
    rhs3 = np.einsum("it,ijk,j->kt", pi_l, alpha, unit_m, optimize=True)
    rep.add("action-unit-invariance", np.linalg.norm(lhs3 - rhs3), tol.bound(scale) * 10)
    if m_alg.involution is not None and w.algebra.involution is not None:
        k = w.algebra.involution @ np.conj(w.antipode)  # columns S(e_t)*
        inv_m = m_alg.involution
        lhs4 = np.einsum("kr,tjr->tjk", inv_m, np.conj(alpha), optimize=True)
        rhs4 = np.einsum("it,irk,rj->tjk", k, alpha, inv_m, optimize=True)
        rep.add("action-star", np.linalg.norm(lhs4 - rhs4), tol.bound(scale) * 10)
    return rep


def invariants(action: WhaAction, tol: Tolerance | None = None) -> Subspace:
    """The invariant subalgebra M^A, computed two ways.

    (a) the stacked linear condition ``alpha_a(n) = alpha_{pi^L(a)}(n)`` for
    all ``a``, and (b) the image of ``alpha_h`` for the Haar integral ``h``;
    the two must agree (InvariantMismatch otherwise).  The result is checked
    to be a unital *-subalgebra of M.
    """
    tol = get_tol(tol)
    w, m_alg = action.wha, action.module
    pi_l, _ = w.counital_maps
    rows = []
    for t in range(w.dim):
        rows.append(action.amat(w.algebra.basis_vector(t)) - action.amat(pi_l[:, t]))
    fixed = Subspace(kernel(np.vstack(rows), tol), m_alg.dim, tol)
    h = w.derived(tol).haar
    if h is None:
        raise NotSemisimple(f"{w.name} has no Haar integral; invariants need one")
    image = Subspace(action.amat(h), m_alg.dim, tol)
    if not fixed.equals(image, tol):
        raise InvariantMismatch(
            f"fixed-point space (dim {fixed.dim}) differs from alpha_h(M) (dim {image.dim})"
        )
    if not fixed.contains_vector(m_alg.unit, tol):
        raise InvariantMismatch("invariants do not contain the unit of M")
    for i in range(fixed.dim):
        for j in range(fixed.dim):
            prod = m_alg.mul(fixed.basis[:, i], fixed.basis[:, j])
            if not fixed.contains_vector(prod, tol):
                raise InvariantMismatch("invariants are not closed under the product")
    if m_alg.involution is not None:
        for i in range(fixed.dim):
            if not fixed.contains_vector(m_alg.star(fixed.basis[:, i]), tol):
                raise InvariantMismatch("invariants are not closed under the involution")
    return fixed


def m_r_subalgebra(action: WhaAction, tol: Tolerance | None = None) -> tuple[Subspace, bool]:
    """``M^R = span{alpha_l(1_M) : l in A^L}`` and injectivity of ``l -> alpha_l(1_M)``."""
    tol = get_tol(tol)
    al = action.wha.derived(tol).counital_subalgebras.left
    cols = np.einsum("ijk,j->ki", action.alpha, action.module.unit) @ al.basis  # alpha_l(1_M)
    span = Subspace(cols, action.module.dim, tol)
    injective = matrix_rank(cols, tol) == al.dim
    return span, injective


# ---------------------------------------------------------------------------
# crossed product


@dataclass
class CrossedProduct:
    """The algebra M x| A on the relative tensor product M (x)_{A^L} A."""

    action: WhaAction
    algebra: FinDimAlgebra
    carrier: np.ndarray  # (dim M * dim A, d): orthonormal basis of the quotient
    embed_m: np.ndarray  # (d, dim M)
    embed_a: np.ndarray  # (d, dim A)
    report: AxiomReport

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def element(self, m, a) -> np.ndarray:
        """Quotient coordinates of ``m x| a``."""
        m = np.asarray(m, dtype=complex).ravel()
        a = np.asarray(a, dtype=complex).ravel()
        return self.carrier.conj().T @ np.kron(m, a)


def _relation_span(action: WhaAction, l_mats: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal span of ``m alpha_l(1) (x) x - m (x) l.x`` inside M (x) X.

    ``l_mats[b]`` is the matrix of ``x -> l.x`` on the second leg X for the
    b-th basis vector l of A^L.  The spanning vectors run over the basis of
    A^L (outermost), then the bases of M and of X.
    """
    m_alg = action.module
    lb = action.wha.derived(tol).counital_subalgebras.left.basis
    al1 = np.einsum("pb,pjr,j->br", lb, action.alpha, m_alg.unit, optimize=True)  # alpha_l(1_M)
    rel = kron_sum(np.einsum("irk,br->bki", m_alg.c, al1), l_mats)  # m -> m alpha_l(1_M)
    return orth(rel.transpose(1, 0, 2).reshape(rel.shape[1], -1), tol)


def _multiplicativity_residual(out: FinDimAlgebra, emb: np.ndarray, c_src: np.ndarray) -> float:
    """Largest ``|emb(e_i) emb(e_j) - emb(e_i e_j)|`` over all pairs of basis vectors."""
    got = np.einsum("ai,bj,abg->ijg", emb, emb, out.c, optimize=True)
    want = np.einsum("gk,ijk->ijg", emb, c_src, optimize=True)
    return float(np.max(np.linalg.norm(got - want, axis=2)))


def crossed_product(action: WhaAction, tol: Tolerance | None = None) -> CrossedProduct:
    """Build M x| A with the product ``(m x| a)(n x| b) = m alpha_{a_(1)}(n) x| a_(2) b``.

    The carrier is the orthogonal complement of the A^L-relation span.  On
    M (x) A the product is the tensor ``big[(i,a),(j,b),(k,c)] = sum_pqr
    Delta[p,q,a] alpha[p,j,r] c_M[i,r,k] c_A[q,b,c]``; it is contracted from
    these factors with its output leg already projected onto the carrier, so
    memory is O(d_full^2 * d) for d_full = dim M * dim A and the quotient
    dimension d, not the d_full^3 of ``big`` itself.

    Checks; the descent and multiplicativity residuals are compared with
    ``tol.bound(scale) * 100``, where ``scale`` is the Frobenius norm of ``big``:

    * left and right descent: a relation vector in either input slot of the
      product has no component off the relation span (IllDefinedProduct);
    * star descent: the star maps the relation span into itself
      (IllDefinedProduct);
    * the quotient is a unital (star-)algebra (:meth:`FinDimAlgebra.validate`);
      from dimension ``CERTIFY_ASSOCIATIVITY_FROM_DIM`` on, its associativity
      is certified through its Wedderburn blocks in O(d^4), and those blocks
      stay cached on the result for ``smash_product`` and the ``crossprod``
      command to reuse;
    * ``m -> m x| 1`` and ``a -> 1 x| a`` are multiplicative, and
      ``m -> m x| 1`` is injective.
    """
    tol = get_tol(tol)
    w, m_alg, alpha = action.wha, action.module, action.alpha
    dm, da = m_alg.dim, w.dim
    d_full = dm * da
    lb = w.derived(tol).counital_subalgebras.left.basis
    v_rel = _relation_span(action, np.einsum("qb,qac->bca", lb, w.algebra.c), tol)  # a -> l a
    carrier = kernel(v_rel.conj().T, tol)
    d = carrier.shape[1]
    cbar = carrier.conj().reshape(dm, da, d)

    # bp[(i,a),(j,b),g] = sum_pqk Delta[p,q,a] K[p,i,j,k] U[q,b,k,g] = carrier^H big[(i,a),(j,b),:]
    k_fac = np.einsum("pjr,irk->pijk", alpha, m_alg.c, optimize=True)
    u_fac = np.einsum("qbc,kcg->qkbg", w.algebra.c, cbar, optimize=True)
    t = np.einsum("pqa,pijk->iajqk", w.delta3, k_fac, optimize=True).reshape(d_full * dm, da * dm)
    bp = (t @ u_fac.reshape(da * dm, da * d)).reshape(d_full, d_full, d)
    del t, u_fac

    # |big|_F^2 = sum_a <Delta[:,:,a], (G_K (x) G_A) Delta[:,:,a]> with the Gram
    # matrices of the alpha- and c_A-factors
    k_rows = k_fac.reshape(da, -1)
    a_rows = w.algebra.c.reshape(da, -1)
    norm2 = np.einsum(
        "pqa,pP,qQ,PQa->",
        w.delta3,
        k_rows @ k_rows.conj().T,
        a_rows @ a_rows.conj().T,
        np.conj(w.delta3),
        optimize=True,
    ).real
    scale = max(1.0, float(np.sqrt(max(norm2, 0.0))))

    # the carrier is orthonormal, so |carrier^H y| = |y off the relation span|:
    # a relation vector in either input slot of bp gives its descent residual
    worst = 0.0
    if v_rel.shape[1]:
        vt = v_rel.T
        left = np.zeros(vt.shape[0])
        right = np.zeros(vt.shape[0])
        for x in range(d_full):
            left += np.sum(np.abs(vt @ bp[:, x, :]) ** 2, axis=1)
            right += np.sum(np.abs(vt @ bp[x]) ** 2, axis=1)
        worst = float(np.sqrt(max(left.max(), right.max())))
    if worst > tol.bound(scale) * 100:
        raise IllDefinedProduct(
            f"product does not descend to M (x)_(A^L) A (residual {worst:.3e})"
        )
    half = (carrier.T @ bp.reshape(d_full, d_full * d)).reshape(d, d_full, d)
    del bp
    cq = np.matmul(carrier.T, half)
    unit_q = carrier.conj().T @ np.kron(m_alg.unit, w.unit)

    inv_q = None
    if m_alg.involution is not None and w.algebra.involution is not None:
        # (m x| a)* = alpha_{(a*)_(1)}(m*) x| (a*)_(2), antilinear in (m, a):
        # Delta(a*) carries the conjugated coefficients of Delta(a)
        st = np.einsum(
            "pqa,mp,mjr,ji,nq->rnia",
            np.conj(w.delta3),
            w.algebra.involution,
            alpha,
            m_alg.involution,
            w.algebra.involution,
            optimize=True,
        ).reshape(d_full, d_full)
        star_resid = float(np.linalg.norm(carrier.conj().T @ (st @ np.conj(v_rel))))
        if star_resid > tol.bound(scale) * 100:
            raise IllDefinedProduct(f"star does not descend to the quotient ({star_resid:.3e})")
        inv_q = carrier.conj().T @ st @ np.conj(carrier)

    name = f"{m_alg.name}x|{w.name}"
    out = FinDimAlgebra(cq, unit_q, involution=inv_q, name=name)
    rep = out.validate(tol)

    embed_m = np.einsum("icg,c->gi", cbar, w.unit)  # carrier^H (e_i (x) 1_A)
    embed_a = np.einsum("kag,k->ga", cbar, m_alg.unit)  # carrier^H (1_M (x) e_a)
    rep.add(
        "embedding-M-multiplicative",
        _multiplicativity_residual(out, embed_m, m_alg.c),
        tol.bound(scale) * 100,
    )
    rep.add(
        "embedding-M-injective",
        float(dm - matrix_rank(embed_m, tol)),
        0.5,
    )
    rep.add(
        "embedding-A-multiplicative",
        _multiplicativity_residual(out, embed_a, w.algebra.c),
        tol.bound(scale) * 100,
    )
    rep.raise_if_failed()
    return CrossedProduct(
        action=action, algebra=out, carrier=carrier, embed_m=embed_m, embed_a=embed_a, report=rep
    )


# ---------------------------------------------------------------------------
# regularity, basic construction, Galois map


def _subspace_distance(s1: Subspace, s2: Subspace) -> float:
    return float(np.linalg.norm(s1.projector() - s2.projector()))


@dataclass
class RegularityResult:
    """The three regularity clauses with diagnostics."""

    m_r_isomorphic: bool  # (i)  l -> alpha_l(1_M) injective on A^L
    relative_commutant: bool  # (ii) M' in (M x| A) equals A^R
    finite_index: bool  # (iii) alpha_h has a quasi-basis
    details: dict

    @property
    def regular(self) -> bool:
        return self.m_r_isomorphic and self.relative_commutant and self.finite_index

    def failing_clauses(self) -> list[str]:
        out = []
        if not self.m_r_isomorphic:
            out.append("(i) M^R is a proper quotient of A^L")
        if not self.relative_commutant:
            out.append("(ii) relative commutant M' in M x| A differs from A^R")
        if not self.finite_index:
            out.append("(iii) alpha_h has no quasi-basis (infinite index)")
        return out


def is_regular(
    action: WhaAction,
    crossed: CrossedProduct | None = None,
    tol: Tolerance | None = None,
) -> RegularityResult:
    """Check the three clauses of regularity; never raises on a failing clause."""
    tol = get_tol(tol)
    w, m_alg = action.wha, action.module
    if crossed is None:
        crossed = crossed_product(action, tol)
    details: dict = {}

    _, injective = m_r_subalgebra(action, tol)
    details["m_r_injective"] = injective

    big = crossed.algebra
    gens = [crossed.embed_m[:, i] for i in range(m_alg.dim)]
    comm = big.commutant_in(gens, tol=tol)
    ar = w.derived(tol).counital_subalgebras.right
    ar_image = Subspace(crossed.embed_a @ ar.basis, big.dim, tol)
    details["relative_commutant_dim"] = comm.dim
    details["a_r_dim"] = ar_image.dim
    clause_ii = comm.equals(ar_image, tol)

    h = w.derived(tol).haar
    clause_iii = False
    if h is not None:
        try:
            wat = watatani_index(m_alg, action.amat(h), tol)
            details["watatani_index"] = wat.scalar if wat.is_scalar else wat.element
            clause_iii = True
        except (NotConditionalExpectation, NoQuasiBasis) as exc:
            details["watatani_failure"] = str(exc)
    else:
        details["watatani_failure"] = "no Haar integral"
    return RegularityResult(
        m_r_isomorphic=injective,
        relative_commutant=clause_ii,
        finite_index=clause_iii,
        details=details,
    )


def _generated_subalgebra(alg: FinDimAlgebra, seeds, tol: Tolerance) -> Subspace:
    """Span closure of ``seeds`` (plus the unit) under the product."""
    basis = orth(np.column_stack([alg.unit, *seeds]), tol)
    while True:
        prods = np.einsum("ia,jb,ijk->kab", basis, basis, alg.c, optimize=True)
        new = orth(np.hstack([basis, prods.reshape(alg.dim, -1)]), tol)
        if new.shape[1] == basis.shape[1]:
            return Subspace(new, alg.dim, tol)
        basis = new


def verify_basic_construction(
    action: WhaAction,
    crossed: CrossedProduct | None = None,
    tol: Tolerance | None = None,
) -> AxiomReport:
    """Itemized checks that M^A c M c M x| A is the basic construction.

    Besides the Jones-type projection ``e = 1_M x| h`` (idempotent,
    self-adjoint, implementing alpha_h, generating M_2 together with M,
    commuting with the invariants), the relative commutants and centers are
    compared against the canonical copies of A^L, A^R, A, Z^L, Z^R and
    A^L n A^R as subspace equalities.
    """
    tol = get_tol(tol)
    w, m_alg = action.wha, action.module
    if crossed is None:
        crossed = crossed_product(action, tol)
    big = crossed.algebra
    rep = AxiomReport(f"basic construction of {m_alg.name}^{w.name} c {m_alg.name}")
    h = w.derived(tol).haar
    if h is None:
        raise NotSemisimple(f"{w.name} has no Haar integral")
    n_sub = invariants(action, tol)
    sub = w.derived(tol).counital_subalgebras
    thr = 1e-8

    e = crossed.element(m_alg.unit, h)
    rep.add("jones-idempotent", np.linalg.norm(big.mul(e, e) - e), thr)
    if big.involution is not None:
        rep.add("jones-selfadjoint", np.linalg.norm(big.star(e) - e), thr)
    exp = action.amat(h)
    worst = 0.0
    for i in range(m_alg.dim):
        x = crossed.embed_m[:, i]
        lhs = big.mul(big.mul(e, x), e)
        rhs = big.mul(crossed.embed_m @ (exp @ m_alg.basis_vector(i)), e)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    rep.add("jones-implements-expectation", worst, thr)
    worst = 0.0
    for i in range(n_sub.dim):
        x = crossed.embed_m @ n_sub.basis[:, i]
        worst = max(worst, float(np.linalg.norm(big.mul(e, x) - big.mul(x, e))))
    rep.add("jones-commutes-with-invariants", worst, thr)
    gen = _generated_subalgebra(big, [crossed.embed_m[:, i] for i in range(m_alg.dim)] + [e], tol)
    rep.add("M2-generated-by-M-and-e", float(big.dim - gen.dim), 0.5)

    # relative commutants against the canonical copies
    m_r, _ = m_r_subalgebra(action, tol)
    n_comm_m = m_alg.commutant_in([n_sub.basis[:, i] for i in range(n_sub.dim)], tol=tol)
    rep.add("item2: N' in M = A^L", _subspace_distance(n_comm_m, m_r), thr)

    gens_m = [crossed.embed_m[:, i] for i in range(m_alg.dim)]
    m_comm = big.commutant_in(gens_m, tol=tol)
    ar_image = Subspace(crossed.embed_a @ sub.right.basis, big.dim, tol)
    rep.add("item3: M' in M2 = A^R", _subspace_distance(m_comm, ar_image), thr)

    gens_n = [crossed.embed_m @ n_sub.basis[:, i] for i in range(n_sub.dim)]
    n_comm = big.commutant_in(gens_n, tol=tol)
    a_image = Subspace(crossed.embed_a, big.dim, tol)
    rep.add("item4: N' in M2 = A", _subspace_distance(n_comm, a_image), thr)

    n_alg, n_coords = induced_algebra(m_alg, n_sub, tol=tol, name="invariants")
    center_n = Subspace(n_coords @ n_alg.center(tol).basis, m_alg.dim, tol)
    on_unit = np.einsum("ijk,j->ki", action.alpha, m_alg.unit)  # a -> alpha_a(1_M)
    zl_image = Subspace(on_unit @ sub.center_left.basis, m_alg.dim, tol)
    rep.add("item5: Center N = Z^L", _subspace_distance(center_n, zl_image), thr)

    lr = sub.left.intersection(sub.right)
    lr_image = Subspace(on_unit @ lr.basis, m_alg.dim, tol)
    rep.add("item5: Center M = A^L n A^R", _subspace_distance(m_alg.center(tol), lr_image), thr)

    zr_image = Subspace(crossed.embed_a @ sub.center_right.basis, big.dim, tol)
    rep.add("item5: Center M2 = Z^R", _subspace_distance(big.center(tol), zr_image), thr)
    return rep


def galois_map(action: WhaAction, tol: Tolerance | None = None):
    """Canonical map M (x)_N M -> M (x)_(A^L) A^, (m (x) m') -> (m (x) 1^) rho(m').

    The coaction is the dual-basis transposition ``rho(m) = sum_i alpha_{e_i}(m)
    (x) e^_i``, so the map sends ``m (x) m'`` to ``sum_i m alpha_{e_i}(m') (x)
    e^_i``; both sides are relative-tensor quotients.  On the dual leg, ``l``
    acts by right multiplication with ``l > 1^`` (the canonical copy of A^L
    inside A^), i.e. ``<l . phi, x> = <phi, x_(1)> eps(x_(2) l)``; this is the
    balancing for which the map restricts to an isomorphism on regular
    actions.  Returns ``(matrix, is_isomorphism)``.
    """
    tol = get_tol(tol)
    w, m_alg, alpha = action.wha, action.module, action.alpha
    dm, da = m_alg.dim, w.dim
    n_sub = invariants(action, tol)

    # domain M (x)_N M: quotient by m n (x) m' - m (x) n m'
    nb = n_sub.basis
    rel = kron_sum(np.einsum("jb,ijk->bki", nb, m_alg.c), np.einsum("ib,ijk->bkj", nb, m_alg.c))
    v_dom = orth(rel.transpose(1, 0, 2).reshape(dm * dm, -1), tol)
    w_dom = kernel(v_dom.conj().T, tol)

    # target M (x)_(A^L) A^: quotient by m alpha_l(1) (x) phi - m (x) l.phi,
    # where <l.phi, x> = <phi, x_(1)> eps(x_(2) l)
    lb = w.derived(tol).counital_subalgebras.left.basis
    el = np.einsum("qst,sb,t->bq", w.algebra.c, lb, w.eps, optimize=True)
    v_tgt = _relation_span(action, np.einsum("aqk,bq->bka", w.delta3, el), tol)  # phi -> l.phi
    w_tgt = kernel(v_tgt.conj().T, tol)

    g_full = np.einsum("tjr,irk->ktij", alpha, m_alg.c, optimize=True).reshape(dm * da, dm * dm)
    g_tgt = w_tgt.conj().T @ g_full
    resid = float(np.linalg.norm(g_tgt @ v_dom))
    if resid > tol.bound(max(1.0, float(np.linalg.norm(g_full)))) * 100:
        raise IllDefinedProduct(f"Galois map does not descend to the quotients ({resid:.3e})")
    mat = g_tgt @ w_dom
    bijective = mat.shape[0] == mat.shape[1] == matrix_rank(mat, tol)
    return mat, bijective


# ---------------------------------------------------------------------------
# canonical actions


def dual_regular_action(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> WhaAction:
    """The arrow action of A^ on A, ``alpha_phi(x) = phi > x = x_(1) <phi, x_(2)>``."""
    tol = get_tol(tol)
    wd = w.dual
    alpha = w.delta3.transpose(1, 2, 0).copy()  # alpha[phi, x, out]
    action = WhaAction(wd, w.algebra, alpha, name="dual regular action")
    action.validate(tol).raise_if_failed()
    return action


def arrow_action(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> WhaAction:
    """The arrow action of A on its dual, ``alpha_a(phi) = a > phi = phi(. a)``.

    For a group algebra this is the translation action on the function algebra.
    """
    tol = get_tol(tol)
    wd = w.dual
    alpha = np.ascontiguousarray(np.einsum("bia->iab", w.algebra.c))
    action = WhaAction(w, wd.algebra, alpha, name="arrow action")
    action.validate(tol).raise_if_failed()
    return action


def trivial_action(w: WeakHopfAlgebra, module: FinDimAlgebra, tol: Tolerance | None = None) -> WhaAction:
    """``alpha_a = eps(a) id``; a valid action only when eps is multiplicative."""
    tol = get_tol(tol)
    alpha = np.einsum("i,jk->ijk", w.eps, np.eye(module.dim))
    return WhaAction(w, module, alpha, name="trivial action")


def smash_product(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> CrossedProduct:
    """The smash product A # A^ = crossed product of the dual regular action.

    Structural consequences are verified: the result is semisimple, its block
    count equals the block count of A^L, and its inclusion data over A is the
    transpose of the inclusion matrix of A^L c A (basic construction).
    """
    tol = get_tol(tol)
    action = dual_regular_action(w, tol)
    out = crossed_product(action, tol)
    big = out.algebra
    if not big.is_semisimple(tol):
        raise CrossCheckMismatch("smash product is not semisimple")

    al = w.derived(tol).counital_subalgebras.left
    al_alg, _ = induced_algebra(w.algebra, al, tol=tol, name=f"{w.name}^L")
    n_left = len(al_alg.block_decomposition(tol).blocks)
    n_big = len(big.block_decomposition(tol).blocks)
    if n_big != n_left:
        raise CrossCheckMismatch(
            f"smash product has {n_big} blocks but A^L has {n_left}"
        )
    if w.algebra.is_semisimple(tol):
        # basic construction: Lambda(A c A#A^) is the transpose of
        # Lambda(A^L c A), up to reordering of the isomorphic copies' blocks
        lam_base, blocks_l, blocks_a = inclusion_matrix(w.algebra, al, tol)
        a_sub = Subspace(out.embed_m, big.dim, tol)
        lam_top, blocks_copy, blocks_big = inclusion_matrix(big, a_sub, tol)
        ok = _same_up_to_permutations(
            lam_top,
            lam_base.T,
            [b.size for b in blocks_copy.blocks],
            [b.size for b in blocks_a.blocks],
        )
        if not ok:
            raise CrossCheckMismatch(
                f"inclusion data of A c A#A^\n{lam_top}\nis not a reordering of the"
                f" transpose of Lambda(A^L c A)\n{lam_base.T}"
            )
    return out


def _same_up_to_permutations(a, b, row_sizes_a, row_sizes_b) -> bool:
    """Whether integer matrices agree after size-preserving row and column permutations."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    target = sorted(map(tuple, b.T.tolist()))
    for pr in itertools.permutations(range(a.shape[0])):
        if [row_sizes_a[i] for i in pr] != list(row_sizes_b):
            continue
        if sorted(map(tuple, a[list(pr)].T.tolist())) == target:
            return True
    return False
