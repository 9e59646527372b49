"""Weak Hopf actions on finite-dimensional algebras.

An action is a rank-3 array ``alpha`` with ``alpha_{e_i}(m_j) = sum_k
alpha[i,j,k] m_k``.  On top of axiom validation this module builds invariant
subalgebras (two independent routes), the crossed product ``M x| A`` on the
relative tensor product over ``A^L``, the regularity clauses that make
``M^A c M c M x| A`` a basic construction, the itemized basic-construction
checks, the Galois map ``M (x)_{M^A} M -> (M (x) A^) rho(1)`` into the corner
of the coaction's unit, and the smash product ``A # A^``.  An action keeps its
axiom report per tolerance in ``derived(tol)``; construction, crossed product
and CLI share it.

The crossed product comes from one of two routes (:func:`crossed_product`).
When the action is Galois, ``m x| a -> L(m) alpha_a`` is a faithful
representation of M x| A on M (Caenepeel-De Groot; for the smash product the
Heisenberg representation A # A^ = End_{A^L}(A) of Nikshych-Vainerman) onto
End_N(M) = R(N)' for the invariants N = M^A, and the product is held in
Wedderburn form, a :class:`~whakit.algebra.WedderburnAlgebra`, once a
commutation residual and a dimension count certify that image; otherwise, as
for the trivial action or without a Haar integral, a dense route contracts
its structure constants.  N, its induced algebra and N' n M are computed once
per action and tolerance (:meth:`WhaAction.derived`).

Both relative tensor products, M (x)_{A^L} A of the crossed product and
M (x)_N M of the Galois map, are quotients by a relation span, read off a
separability idempotent of the algebra they are taken over when it decides
and off the SVD of the relation span otherwise (:func:`_relative_quotient`).
An idempotent's range is read off its trace and one seeded sketch
(:func:`~whakit.linalg.idempotent_range`), with a full SVD deciding when the
sketch does not certify; no basis of a relation span is formed, since the
residual of a map X on the relations is ``|X - (X C) C^H|_F`` for the
carrier C.

The canonical actions copy nothing: :func:`arrow_action` of A on A^ has
``alpha = c_A.transpose(1, 2, 0)``, and :func:`dual_regular_action` is the
arrow action of A^, whose structure constants are A's comultiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    _NO_DECOMPOSITION,
    FinDimAlgebra,
    WedderburnAlgebra,
    _covariance_defect,
    _dense_associator_norm,
    _inclusion_matrix,
    induced_algebra,
    watatani_index,
)
from .config import Derived, HasDerived, Tolerance, get_tol, round_to_int
from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    EmptyQuotient,
    IllDefinedProduct,
    InvariantMismatch,
    NonIntegerMultiplicity,
    NoQuasiBasis,
    NotConditionalExpectation,
    NotSemisimple,
    ValidationError,
)
from .linalg import (
    Subspace,
    _svd_cut,
    coimage_and_kernel,
    contract,
    idempotent_range,
    kernel,
    kron_sum,
    matrix_rank,
    orth,
    pivoted_basis,
    span_and_complement,
)
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


class ActionDerived(Derived):
    """What an action derives at one tolerance, each computed on first use.

    The entries are the :attr:`report` of :func:`validate_action`, N = M^A
    (:attr:`invariants`), the :attr:`induced` algebra N with its coordinates
    in M (N's blocks and Wedderburn map are kept in that algebra's own
    ``derived``), and the :attr:`relative_commutant` N' n M.  The Galois map,
    the Wedderburn form of the crossed product, regularity clause (ii) and
    the basic-construction items read them, so N is found once.
    """

    @cached_property
    def report(self) -> AxiomReport:
        return _validate_action(self.owner, self.tol)

    @cached_property
    def invariants(self) -> Subspace:
        return _invariants(self.owner, self.tol)

    @cached_property
    def induced(self) -> tuple[FinDimAlgebra, np.ndarray]:
        return induced_algebra(self.owner.module, self.invariants, tol=self.tol, name="invariants")

    @cached_property
    def relative_commutant(self) -> Subspace:
        return self.owner.module.commutant_in(self.invariants.basis.T, tol=self.tol)


@dataclass
class WhaAction(HasDerived):
    """A left action of a weak Hopf algebra on a finite-dimensional algebra, deriving an :class:`ActionDerived`."""

    wha: WeakHopfAlgebra
    module: FinDimAlgebra
    alpha: np.ndarray  # (dim A, dim M, dim M)
    name: str = "action"

    Derived = ActionDerived

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=complex)
        expected = (self.wha.dim, self.module.dim, self.module.dim)
        if self.alpha.shape != expected:
            raise DimensionMismatch(f"alpha must have shape {expected}, got {self.alpha.shape}")

    @cached_property
    def unit_map(self) -> np.ndarray:
        """The (dim M, dim A) matrix of ``a -> alpha_a(1_M)``, computed once (alpha is not changed)."""
        return np.einsum("ijk,j->ki", self.alpha, self.module.unit)

    def amat(self, a) -> np.ndarray:
        """Operator matrix of alpha_a on coordinate vectors."""
        return np.einsum("i,ijk->kj", np.asarray(a, dtype=complex).ravel(), self.alpha)

    def apply(self, a, m) -> np.ndarray:
        return self.amat(a) @ np.asarray(m, dtype=complex).ravel()

    def validate(self, tol: Tolerance | None = None) -> AxiomReport:
        return validate_action(self, tol)


def validate_action(action: WhaAction, tol: Tolerance | None = None) -> AxiomReport:
    """Residuals of the action axioms, computed once per tolerance and kept in
    ``action.derived(tol)``.  ``action-module-algebra`` is
    :func:`~whakit.algebra._covariance_defect`, the sliced kernel that also
    checks the multiplicativity of Delta in :func:`~whakit.wha.validate_wba`."""
    return action.derived(tol).report


def _validate_action(action: WhaAction, tol: Tolerance) -> AxiomReport:
    """:func:`validate_action`, computed."""
    w, m_alg, alpha = action.wha, action.module, action.alpha
    rep = AxiomReport(f"{action.name}: {w.name} on {m_alg.name}")
    scale = max(1.0, float(np.linalg.norm(alpha)))
    ops = alpha.transpose(0, 2, 1)  # operator matrix of alpha_{e_i}
    rep.add("action-algebra-map", w.algebra.homomorphism_defect(ops), tol.bound(scale**2) * 10)
    rep.add("action-unital", np.linalg.norm(action.amat(w.unit) - np.eye(m_alg.dim)), tol.bound(scale) * 10)
    rep.add("action-module-algebra", _covariance_defect(m_alg.c, alpha, w.delta3), tol.bound(scale**2) * 10)
    on_unit = action.unit_map  # alpha_a(1_M) = alpha_{pi^L(a)}(1_M)
    rep.add("action-unit-invariance", np.linalg.norm(on_unit - on_unit @ w.counital_maps[0]), tol.bound(scale) * 10)
    if m_alg.involution is not None and w.algebra.involution is not None:
        inv_m = m_alg.involution
        lhs4 = contract("kr,tjr->tjk", inv_m, np.conj(alpha))
        rhs4 = contract("it,irk,rj->tjk", w.star_antipode, alpha, inv_m)
        rep.add("action-star", np.linalg.norm(lhs4 - rhs4), tol.bound(scale) * 10)
    return rep


def invariants(action: WhaAction, tol: Tolerance | None = None) -> Subspace:
    """The invariant subalgebra M^A, computed two ways, once per action and tolerance.

    (a) the stacked linear condition ``alpha_a(n) = alpha_{pi^L(a)}(n)`` for
    all ``a``, and (b) the image of ``alpha_h`` for the Haar integral ``h``;
    the two must agree (InvariantMismatch otherwise).  The result is checked
    to be a unital *-subalgebra of M.  It is kept in :meth:`WhaAction.derived`.
    """
    return action.derived(tol).invariants


def _invariants(action: WhaAction, tol: Tolerance) -> Subspace:
    """:func:`invariants`, computed."""
    w, m_alg = action.wha, action.module
    pi_l, _ = w.counital_maps
    # row block t is alpha_{e_t - pi^L(e_t)}, all blocks from one GEMM
    dm = m_alg.dim
    rows = ((np.eye(w.dim) - pi_l).T @ action.alpha.reshape(w.dim, dm * dm)).reshape(w.dim, dm, dm)
    fixed = Subspace(kernel(rows.transpose(0, 2, 1).reshape(w.dim * dm, dm), tol), dm, tol)
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
    q = fixed.basis
    prods = m_alg._left_products(q, q)  # column j of prods[i] is q_i q_j, all from one GEMM
    if not fixed.contains_columns(prods.transpose(1, 0, 2).reshape(dm, -1), tol):
        raise InvariantMismatch("invariants are not closed under the product")
    if m_alg.involution is not None and not fixed.contains_columns(m_alg.involution @ np.conj(q), tol):
        raise InvariantMismatch("invariants are not closed under the involution")
    return fixed


def m_r_subalgebra(action: WhaAction, tol: Tolerance | None = None) -> tuple[Subspace, bool]:
    """``M^R = span{alpha_l(1_M) : l in A^L}`` and injectivity of ``l -> alpha_l(1_M)``."""
    tol = get_tol(tol)
    al = action.wha.derived(tol).counital_subalgebras.left
    cols = action.unit_map @ al.basis  # alpha_l(1_M)
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

    @property
    def route(self) -> str:
        """Which route of :func:`crossed_product` holds the product: "wedderburn" or "dense"."""
        return "wedderburn" if isinstance(self.algebra, WedderburnAlgebra) else "dense"

    def element(self, m, a) -> np.ndarray:
        """Quotient coordinates of ``m x| a``."""
        m = np.asarray(m, dtype=complex).ravel()
        a = np.asarray(a, dtype=complex).ravel()
        return self.carrier.conj().T @ np.kron(m, a)


def crossed_product(action: WhaAction, tol: Tolerance | None = None) -> CrossedProduct:
    """Build M x| A with the product ``(m x| a)(n x| b) = m alpha_{a_(1)}(n) x| a_(2) b``.

    The carrier is the orthogonal complement of the A^L-relation span, the span
    of ``m u(l) (x) a - m (x) l a`` for ``u(l) = alpha_l(1_M)``, and the
    structure constants are those of the product on M (x) A, ``big[(i,a),
    (j,b),(k,c)] = sum_pqr Delta[p,q,a] alpha[p,j,r] c_M[i,r,k] c_A[q,b,c]``,
    restricted to the carrier.  ``scale`` is the Frobenius norm of ``big``,
    read off Gram matrices of its factors without forming it, and ``bound =
    tol.bound(scale) * 100``.

    The quotient comes from the separability idempotent ``e = (S (x)
    id) Delta(1) = sum_ij e_ij l_i (x) l_j`` of A^L, over an orthonormal basis
    l_i of A^L: ``E = sum_ij e_ij R(u(l_i)) (x) L(l_j)`` on M (x) A has the
    relation span as its kernel and the carrier as its coimage, and ``d = tr
    E``.  The coimage is read off one seeded (d_full, d) sketch of E^H,
    certified against the rank cut of E's SVD, or is the whole space when
    E = 1 (every Hopf algebra, whose A^L is C1); the full SVD of the
    (d_full, d_full) matrix E decides when the sketch does not certify.  The
    idempotent decides when e lies in A^L (x) A^L, u is multiplicative on
    A^L and the residuals of :func:`_separable_quotient` pass, all against
    ``bound``; otherwise the SVD of the stacked relations decides.  No basis
    of the relation span is formed: with the carrier C, the residual of a
    map X on the relations, ``|X V_rel|_F`` for an orthonormal basis V_rel of
    them, is ``|X - (X C) C^H|_F``, and the dense route alone derives V_rel
    from C.  Either way the carrier's basis is
    :func:`~whakit.linalg.pivoted_basis` of the complement, which depends on
    the quotient alone, not on how an SVD rotates singular vectors of equal
    singular value; for a groupoid's smash product its columns are standard
    basis vectors of M (x) A.  Two routes then compute the product.

    * Wedderburn (Galois actions): ``pi(m (x) a) = L(m) alpha_a`` maps M (x)
      A into End(M), and for a Galois action it is faithful on the quotient
      (Caenepeel-De Groot).  With ``Pi_g`` the image of carrier vector g, a
      dim M x dim M matrix, neither the (d, d, d) tensor nor the dense
      route's (d_full, d_full, d) one is formed.  This route decides only
      when alpha is multiplicative, ``alpha_a L(n) = sum Delta[p,q,a]
      L(alpha_p(n)) alpha_q``, M is associative and pi kills the relation
      span; then pi is a homomorphism with kernel the relation span, so the
      product descends and equals the abstract one.  The image of pi is
      End_N(M) = R(N)' for the invariants N: when every Pi_g commutes with
      R(N) and rank Pi = sum_l m_l^2, the multiplicities m_l of N's blocks in
      M, the result is the :class:`~whakit.algebra.WedderburnAlgebra` on ⊕_l
      M_{m_l}, whose closure is a bound read off ``Pi - E T``
      (:func:`_wedderburn_product`): no product of two Pi_g is formed.  It
      certifies associativity through Pi and the star row through the inner
      product its regular trace makes on M, at every dimension.
    * Dense (everything else: the trivial action, an acting algebra without
      a Haar integral such as Sweedler's H4, or any input failing one of
      those checks): the product is contracted from the factors of
      ``big`` into the (d_full, d_full, d) tensor ``carrier^H big`` with
      d_full = dim M * dim A, checked for left and right descent (a relation
      vector in either input slot has no component off the relation span,
      IllDefinedProduct) and validated by :meth:`FinDimAlgebra.validate`.

    A 0-dimensional quotient, as for the trivial action through a counit
    that is not multiplicative, raises :class:`~whakit.errors.EmptyQuotient`
    before either route runs.  Star descent (the star maps the relation span
    into itself, IllDefinedProduct) is raised after the route, so that the
    dense route's product-descent error comes first.  Both routes then check
    the unit and star rows of ``validate``, and that ``m -> m x| 1`` and ``a
    -> 1 x| a`` are multiplicative (against the scale of their own terms,
    :func:`_add_embedding_row`) and ``m -> m x| 1`` is injective.  Descent,
    closure and star rows are compared with ``bound``.
    """
    tol = get_tol(tol)
    w, m_alg, alpha = action.wha, action.module, action.alpha
    dm, da = m_alg.dim, w.dim
    d_full = dm * da

    # K[p,i,j,k]: the coefficient of e_k in e_i alpha_p(e_j)
    k_fac = contract("pjr,irk->pijk", alpha, m_alg.c)
    # |big|_F^2 = sum_a <Delta[:,:,a], (G_K (x) G_A) Delta[:,:,a]> with the Gram
    # matrices of the alpha- and c_A-factors
    k_rows = k_fac.reshape(da, -1)
    a_rows = w.algebra.c.reshape(da, -1)
    norm2 = contract(
        "pqa,pP,qQ,PQa->",
        w.delta3,
        k_rows @ k_rows.conj().T,
        a_rows @ a_rows.conj().T,
        np.conj(w.delta3),
    ).real
    scale = max(1.0, float(np.sqrt(max(norm2, 0.0))))
    bound = tol.bound(scale) * 100

    # M is a right A^L-module through u(l) = alpha_l(1_M) and A a left one, over the basis lb of A^L
    lb = w.derived(tol).counital_subalgebras.left.basis
    u_l = action.unit_map @ lb
    rho, lam = m_alg._right_stack(u_l), w.algebra._left_stack(lb)
    # e = (S (x) id) Delta(1) = sum_ij coef[i, j] l_i (x) l_j, a separability idempotent of A^L
    e_full = w.antipode @ w.delta1
    coef = lb.conj().T @ e_full @ np.conj(lb)
    legs = float(np.linalg.norm(e_full - lb @ coef @ lb.T))
    # u(l_i l_j) - u(l_i) u(l_j)
    u_defect = float(np.linalg.norm(action.unit_map @ (lam @ lb) - m_alg._left_stack(u_l) @ u_l))
    carrier = _relative_quotient(rho, lam, coef if max(legs, u_defect) <= bound else None, bound, tol)
    if carrier.shape[1] == 0:  # e.g. a trivial action through a counit that is not multiplicative
        raise EmptyQuotient(f"M (x)_(A^L) A is 0-dimensional: the relations span all of M (x) A (dim {d_full})")
    carrier = pivoted_basis(carrier)

    unit_q = carrier.conj().T @ np.kron(m_alg.unit, w.unit)
    inv_q, star_resid = None, 0.0
    if m_alg.involution is not None and w.algebra.involution is not None:
        # (m x| a)* = alpha_{(a*)_(1)}(m*) x| (a*)_(2), antilinear in (m, a):
        # Delta(a*) carries the conjugated coefficients of Delta(a)
        st = contract(
            "pqa,mp,mjr,ji,nq->rnia",
            np.conj(w.delta3),
            w.algebra.involution,
            alpha,
            m_alg.involution,
            w.algebra.involution,
        ).reshape(d_full, d_full)
        half = carrier.conj().T @ st
        del st  # the product route below peaks on top of what is kept
        inv_q = half @ np.conj(carrier)
        # conj(carrier) and conj(V_rel) span complementary subspaces, so |half conj(V_rel)|_F is this
        star_resid = float(np.linalg.norm(half - inv_q @ carrier.T))
        del half

    name = f"{m_alg.name}x|{w.name}"
    out = _wedderburn_product(action, k_fac, carrier, unit_q, inv_q, name, bound, tol)
    if out is None:
        out = FinDimAlgebra(_dense_product(action, k_fac, carrier, bound, tol), unit_q, involution=inv_q, name=name)
    del k_fac  # validation below peaks on top of the product
    # raised after the product route, so that the dense route's product-descent error comes first
    if star_resid > bound:
        raise IllDefinedProduct(f"star does not descend to the quotient ({star_resid:.3e})")
    rep = out.validate(tol)

    cbar = carrier.conj().reshape(dm, da, -1)
    embed_m = np.einsum("icg,c->gi", cbar, w.unit)  # carrier^H (e_i (x) 1_A)
    embed_a = np.einsum("kag,k->ga", cbar, m_alg.unit)  # carrier^H (1_M (x) e_a)
    _add_embedding_row(rep, "embedding-M-multiplicative", m_alg, embed_m, out, tol)
    rep.add("embedding-M-injective", float(dm - matrix_rank(embed_m, tol)), 0.5)
    _add_embedding_row(rep, "embedding-A-multiplicative", w.algebra, embed_a, out, tol)
    rep.raise_if_failed()
    return CrossedProduct(
        action=action, algebra=out, carrier=carrier, embed_m=embed_m, embed_a=embed_a, report=rep
    )


def _add_embedding_row(rep: AxiomReport, name: str, src: FinDimAlgebra, emb, out: FinDimAlgebra, tol: Tolerance):
    """The row ``|f(e_i e_j) - f(e_i) f(e_j)|_F`` of the embedding f = ``emb`` of ``src`` into ``out``.

    Its threshold is ``tol.bound(|c_src|_F |emb|_F + |c_out|_F |emb|_F^2)``,
    the scale of the two terms of the defect.
    """
    e_norm = float(np.linalg.norm(emb))
    threshold = tol.bound(src.norm * e_norm + out.norm * e_norm**2)
    rep.add(name, src.homomorphism_defect(emb, into=out), threshold)


def _relative_quotient(rho, lam, e, bound: float, tol: Tolerance):
    """The carrier of X (x)_B Y, an orthonormal basis of the orthogonal complement of its
    relation span, by :func:`_separable_quotient` when it certifies the separability
    idempotent ``e`` of B: ``(S (x) id) Delta(1)`` in A^L (x) A^L (Boehm-Nill-Szlachanyi) for
    the crossed product, the Casimir ``sum_ij (T^-1)_ij n_i (x) n_j`` of N = M^A's regular
    trace form T for the Galois map.  Otherwise, as for a broken action, and whenever ``e`` is
    None, the SVD of the relation span of ``rho_b x (x) y - x (x) lam_b y`` itself decides.

    No basis of the relation span is returned: for the carrier C, whose columns and those of
    a relation basis V_rel make a unitary, ``|X V_rel|_F = |X - (X C) C^H|_F``, which is how
    every caller reads the residual of a map X on the relations."""
    carrier = None if e is None else _separable_quotient(rho, lam, e, bound, tol)
    if carrier is None:
        rel = kron_sum(rho, lam)
        carrier = span_and_complement(rel.transpose(1, 0, 2).reshape(rel.shape[1], -1), tol)[1]
    return carrier


def _separable_quotient(rho, lam, e, bound: float, tol: Tolerance):
    """The carrier of X (x)_B Y from a separability idempotent of B, or None.

    B acts on X from the right by the (k, dim X, dim X) stack ``rho`` and on Y
    from the left by the (k, dim Y, dim Y) stack ``lam``, both over a basis
    b_1..b_k of B; the relation span is spanned by ``rho_b x (x) y - x (x)
    lam_b y``, and ``e = sum_ij e[i, j] b_i (x) b_j``.  On X (x) Y let
    ``E = sum_ij e[i, j] rho_i (x) lam_j``.  Two residuals make E the
    idempotent whose kernel is the relation span:

    * unit, ``sum_ij e[i, j] lam_i lam_j = 1`` on Y: then ``x (x) y - E(x (x)
      y) = sum_ij e[i, j] (x (x) lam_i lam_j y - rho_i x (x) lam_j y)`` is a
      sum of relations;
    * kills, ``E (rho_k (x) 1) = E (1 (x) lam_k)`` for every k: E vanishes on
      the relation span.

    So the carrier is E's coimage, the orthogonal complement of its kernel
    and the range of E^H, and ``tr E`` is the dimension of the quotient.
    :func:`~whakit.linalg.idempotent_range` of E^H reads it off one seeded
    sketch of rank round(tr E), or off E = 1 when tr E = dim X dim Y, when
    it certifies the rank cut of E's SVD; otherwise one SVD of E
    (:func:`~whakit.linalg.coimage_and_kernel`) decides.  Returns None when
    a residual exceeds ``bound``, ``tr E`` differs from the rank by more than
    ``bound`` or LAPACK's SVD of E does not converge;
    :func:`_relative_quotient` then takes the SVD of the relation span
    itself.  No (k, dim X dim Y, dim X dim Y) stack of relations is formed.
    """
    k, dx, dy = rho.shape[0], rho.shape[1], lam.shape[1]
    right = np.tensordot(e, lam, axes=([1], [0]))  # right[i] = sum_j e[i, j] lam_j
    unit = float(np.linalg.norm(lam.transpose(1, 0, 2).reshape(dy, -1) @ right.reshape(-1, dy) - np.eye(dy)))
    if unit > bound:
        return None
    x = np.tensordot(e, rho, axes=([0], [0]))  # x[j] = sum_i e[i, j] rho_i, so E = sum_j x_j (x) lam_j
    x_flat, lam_flat = x.reshape(k, -1), lam.reshape(k, -1)
    r2 = 0.0
    for rho_k, lam_k in zip(rho, lam):
        # E (rho_k (x) 1) - E (1 (x) lam_k) = sum_j x_j rho_k (x) lam_j - x_j (x) lam_j lam_k, entries permuted
        lhs = np.concatenate([(x @ rho_k).reshape(k, -1), x_flat])
        rhs = np.concatenate([lam_flat, -(lam @ lam_k).reshape(k, -1)])
        r2 += float(np.linalg.norm(lhs.T @ rhs)) ** 2
    if np.sqrt(r2) > bound:
        return None
    # E^H, whose range is the carrier: E[(a, b), (c, d)] is (x_flat.T @ lam_flat)[a, c, b, d]
    big_eh = np.conj(x_flat.T @ lam_flat).reshape(dx, dx, dy, dy).transpose(1, 3, 0, 2).reshape(dx * dy, dx * dy)
    carrier = idempotent_range(big_eh, tol)
    if carrier is None:
        try:
            carrier = coimage_and_kernel(big_eh.conj().T, tol)[0]
        except np.linalg.LinAlgError:  # LAPACK's SVD did not converge: this route does not certify
            return None
    if abs(np.trace(big_eh) - carrier.shape[1]) > bound:  # |tr E - d| = |tr E^H - d|
        return None
    return carrier


def _wedderburn_product(
    action: WhaAction, k_fac, carrier, unit, involution, name: str, bound: float, tol: Tolerance
) -> WedderburnAlgebra | None:
    """M x| A on the carrier as R(N)' = End_N(M) in Wedderburn form, or None when it is not certified.

    The representation ``m x| a -> L(m) alpha_a`` gives the d operators Pi_g
    on M.  It is a homomorphism with kernel the relation span when alpha is
    multiplicative and covariant (the kept :func:`validate_action` rows), M is
    associative and pi kills the relation span, each against ``bound``.
    For a Galois action with invariants N = M^A, pi then maps M x| A onto
    R(N)', the commutant of right multiplication by N on M (Kreimer-Takeuchi;
    Caenepeel-De Groot for weak Hopf actions).  N = ⊕_l M_{n_l}, and M as a
    right N-module is ⊕_l C^{m_l} (x) C^{n_l}, so R(N)' = ⊕_l M_{m_l} (x) 1.
    Two checks make span{Pi_g} = R(N)', which is closed under products:

    * the commutation residual ``|Pi_g R(n) - R(n) Pi_g|_F`` over g and a
      basis of N, against ``tol.bound(2 |Pi|_F |R(N)|_F)``, O(d dim N k^3)
      for k = dim M;
    * the count ``rank Pi = sum_l m_l^2 = d``, with m_l the rank of the
      idempotent R(f_11) for a matrix unit f_11 of N's block l, read off N's
      (cached) Wedderburn map, and rank Pi by the cut of
      :func:`~whakit.linalg.matrix_rank` on the algebra's singular values.

    The frame of block l is ``embed[j] = R(f_1j) V`` and ``restrict[j] = V^H
    R(f_j1)`` for V an orthonormal basis of M f_11, the range of R(f_11),
    which every Pi_g maps into itself.  The algebra's closure bound must meet
    ``bound`` too.  None, so that the dense route decides, when a
    precondition fails, the action has no invariants (no Haar integral, as
    for Sweedler's H4), N does not decompose, or a check misses.
    """
    m_alg = action.module
    dm, da = m_alg.dim, action.wha.dim
    d = carrier.shape[1]
    # alpha_a alpha_b = alpha_{ab}; covariance alpha_a L(e_n) = sum_pq Delta[p,q,a] L(alpha_p(e_n)) alpha_q
    axioms = {check.name: check.residual for check in validate_action(action, tol).checks}
    if axioms["action-algebra-map"] > bound or axioms["action-module-algebra"] > bound:
        return None
    # L(e_i) L(e_j) = L(e_i e_j)
    if _dense_associator_norm(m_alg.c) > bound:
        return None
    # pi_full[(k,l), (i,a)] = (L(e_i) alpha_a)[k, l] = K[a,i,l,k], which kills the relation span
    pi_full = k_fac.transpose(3, 2, 1, 0).reshape(dm * dm, dm * da)
    pi_c = pi_full @ carrier
    if d < dm * da and np.linalg.norm(pi_full - pi_c @ carrier.conj().T) > bound:  # |pi_full V_rel|_F
        return None
    ops = pi_c.T.reshape(d, dm, dm)  # Pi_g, the image of carrier vector g
    try:
        n_alg, n_basis = action.derived(tol).induced
        wedderburn = n_alg.wedderburn_map(tol)
        units = n_basis @ np.linalg.inv(wedderburn.matrix)  # matrix units of N in M's coordinates
    except (InvariantMismatch, ValidationError, *_NO_DECOMPOSITION):
        return None
    right_n = m_alg._right_stack(n_basis)
    commutation = np.sqrt(sum(float(np.linalg.norm(ops @ r - r @ ops)) ** 2 for r in right_n))
    if commutation > tol.bound(2.0 * float(np.linalg.norm(ops)) * float(np.linalg.norm(right_n))):
        return None
    sizes = [phi.shape[1] for phi in wedderburn.phis]
    frames, lo = [], 0
    for size in sizes:
        f = units[:, lo : lo + size * size].reshape(dm, size, size)  # f[:, a, b] = f_ab
        lo += size * size
        embed, back = m_alg._right_stack(f[:, 0, :]), m_alg._right_stack(f[:, :, 0])  # R(f_1j), R(f_j1)
        corner = orth(embed[0], tol)
        try:
            mult = round_to_int(np.trace(embed[0]), "multiplicity of a block of N in M")
        except NonIntegerMultiplicity:
            return None
        if corner.shape[1] != mult:
            return None
        frames.append((embed @ corner, corner.conj().T @ back))
    mults = [embed.shape[2] for embed, _ in frames]
    if sum(m * m for m in mults) != d or sum(m * n for m, n in zip(mults, sizes)) != dm:
        return None
    try:
        out = WedderburnAlgebra(ops, frames, unit, involution, name=name)
    except np.linalg.LinAlgError:
        return None
    s = out.singular_values
    if _svd_cut(s, tol, s[0]) != d or not out.closure <= bound:
        return None
    return out


def _dense_product(action: WhaAction, k_fac, carrier, bound: float, tol: Tolerance) -> np.ndarray:
    """Structure constants of M x| A on the carrier from the (d_full, d_full, d) tensor ``carrier^H big``.

    Raises IllDefinedProduct when a relation vector in either input slot of
    the product has a component off the relation span above ``bound``; the
    relation vectors are an orthonormal basis of the carrier's orthogonal
    complement, derived here from the carrier.
    """
    w, m_alg = action.wha, action.module
    dm, da = m_alg.dim, w.dim
    d_full, d = carrier.shape
    v_rel = kernel(carrier.conj().T, tol)
    cbar = carrier.conj().reshape(dm, da, d)
    # bp[(i,a),(j,b),g] = sum_pqk Delta[p,q,a] K[p,i,j,k] U[q,b,k,g] = carrier^H big[(i,a),(j,b),:]
    u_fac = contract("qbc,kcg->qkbg", w.algebra.c, cbar)
    t = contract("pqa,pijk->iajqk", w.delta3, k_fac).reshape(d_full * dm, da * dm)
    bp = (t @ u_fac.reshape(da * dm, da * d)).reshape(d_full, d_full, d)
    del t, u_fac

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
    if worst > bound:
        raise IllDefinedProduct(
            f"product does not descend to M (x)_(A^L) A (residual {worst:.3e})"
        )
    half = (carrier.T @ bp.reshape(d_full, d_full * d)).reshape(d, d_full, d)
    del bp
    return np.matmul(carrier.T, half)


# ---------------------------------------------------------------------------
# regularity, basic construction, Galois map


def _subspace_distance(s1: Subspace, s2: Subspace) -> float:
    return float(np.linalg.norm(s1.projector() - s2.projector()))


def _relative_commutant_and_a_r(crossed: CrossedProduct, tol: Tolerance) -> tuple[Subspace, Subspace]:
    """M' n (M x| A) and the image of A^R in M x| A, the two sides of regularity clause (ii).

    On the Wedderburn form the relative commutant is ``pi^-1(R(N' n M))``:
    pi(M) = L(M), whose commutant in End(M) is R(M), and R(z) lies in
    pi(M x| A) = R(N)' exactly when z commutes with N.  That is a commutant
    inside M; the other forms take the commutant of embed_m's columns.
    """
    big, action = crossed.algebra, crossed.action
    ar = action.wha.derived(tol).counital_subalgebras.right
    if isinstance(big, WedderburnAlgebra):
        z = action.derived(tol).relative_commutant.basis
        comm = Subspace(big.pullback(action.module._right_stack(z)), big.dim, tol)
    else:
        comm = big.commutant_in(crossed.embed_m.T, tol=tol)
    return comm, Subspace(crossed.embed_a @ ar.basis, big.dim, tol)


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

    comm, ar_image = _relative_commutant_and_a_r(crossed, tol)
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
    return RegularityResult(injective, clause_ii, clause_iii, details)


def _generated_subalgebra(alg: FinDimAlgebra, seeds, tol: Tolerance) -> Subspace:
    """Span closure of ``seeds`` (plus the unit) under the product."""
    basis = orth(np.column_stack([alg.unit, *seeds]), tol)
    while True:
        prods = alg._left_products(basis, basis)  # column b of prods[a] is basis_a basis_b
        new = orth(np.hstack([basis, prods.transpose(1, 0, 2).reshape(alg.dim, -1)]), tol)
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
    thr = 5 * tol.bound(1.0)  # 1e-8 at DEFAULT_TOL

    e = crossed.element(m_alg.unit, h)
    rep.add("jones-idempotent", np.linalg.norm(big.mul(e, e) - e), thr)
    if big.involution is not None:
        rep.add("jones-selfadjoint", np.linalg.norm(big.star(e) - e), thr)
    l_e, r_e = big.left_mult(e), big.right_mult(e)
    # e x e = E(x) e over the basis of M, and e x = x e over the basis of N
    implements = r_e @ (l_e @ crossed.embed_m - crossed.embed_m @ action.amat(h))
    rep.add("jones-implements-expectation", float(np.max(np.linalg.norm(implements, axis=0))), thr)
    commutes = (l_e - r_e) @ crossed.embed_m @ n_sub.basis
    rep.add("jones-commutes-with-invariants", float(np.max(np.linalg.norm(commutes, axis=0))), thr)
    gen = _generated_subalgebra(big, [*crossed.embed_m.T, e], tol)
    rep.add("M2-generated-by-M-and-e", float(big.dim - gen.dim), 0.5)

    # relative commutants against the canonical copies
    m_r, _ = m_r_subalgebra(action, tol)
    n_comm_m = action.derived(tol).relative_commutant
    rep.add("item2: N' in M = A^L", _subspace_distance(n_comm_m, m_r), thr)

    m_comm, ar_image = _relative_commutant_and_a_r(crossed, tol)
    rep.add("item3: M' in M2 = A^R", _subspace_distance(m_comm, ar_image), thr)

    n_comm = big.commutant_in((crossed.embed_m @ n_sub.basis).T, tol=tol)
    a_image = Subspace(crossed.embed_a, big.dim, tol)
    rep.add("item4: N' in M2 = A", _subspace_distance(n_comm, a_image), thr)

    n_alg, n_coords = action.derived(tol).induced
    center_n = Subspace(n_coords @ n_alg.center(tol).basis, m_alg.dim, tol)
    zl_image = Subspace(action.unit_map @ sub.center_left.basis, m_alg.dim, tol)
    rep.add("item5: Center N = Z^L", _subspace_distance(center_n, zl_image), thr)

    lr = sub.left.intersection(sub.right)
    lr_image = Subspace(action.unit_map @ lr.basis, m_alg.dim, tol)
    rep.add("item5: Center M = A^L n A^R", _subspace_distance(m_alg.center(tol), lr_image), thr)

    zr_image = Subspace(crossed.embed_a @ sub.center_right.basis, big.dim, tol)
    rep.add("item5: Center M2 = Z^R", _subspace_distance(big.center(tol), zr_image), thr)
    return rep


def galois_map(action: WhaAction, tol: Tolerance | None = None):
    """Canonical map M (x)_N M -> (M (x) A^) rho(1), (m (x) m') -> (m (x) 1^) rho(m').

    The coaction is the dual-basis transposition ``rho(m) = sum_t alpha_{e_t}(m)
    (x) e^_t``, so the map sends ``m (x) m'`` to ``sum_t m alpha_{e_t}(m') (x)
    e^_t``.  The domain is the relative tensor quotient over the invariants
    N; the target is the corner of M (x) A^ cut out by right multiplication
    with ``rho(1) = sum_t alpha_{e_t}(1_M) (x) e^_t``, which holds the image
    because ``rho(m') = rho(m') rho(1)``.  The map is bijective when its rank,
    dim M (x)_N M and the rank of ``rho(1)`` agree.  Bijective is not regular:
    the dual regular action of S_3 is Galois but fails the relative-commutant
    clause of :func:`is_regular`.

    The domain's quotient comes from the separability idempotent of N, the
    Casimir ``e = sum_ij (T^-1)_ij n_i (x) n_j`` of the regular trace form T of
    N over an orthonormal basis n_i: ``E = sum_ij e_ij R(n_i) (x) L(n_j)`` on
    M (x) M, as in :func:`crossed_product`.  It decides when T is invertible
    and the residuals of :func:`_separable_quotient` pass; otherwise the SVD
    of the stacked relations decides.  The corner is the range of right
    multiplication by rho(1), an idempotent too, read off its trace and one
    seeded sketch by :func:`~whakit.linalg.idempotent_range` (the whole space
    when rho(1) = 1, as for every Hopf algebra), with
    :func:`~whakit.linalg.orth` deciding when the sketch does not certify.

    Checks, both against ``tol.bound(|g|_F) * 100`` for the map ``g`` on the
    unquotiented M (x) M: the image of the domain's relations, ``|g -
    (g W) W^H|_F`` for the domain's orthonormal basis W (IllDefinedProduct),
    and the image's component outside the corner (CrossCheckMismatch).
    Returns ``(matrix, bijective)``, the matrix in orthonormal bases of the
    domain and of the corner.
    """
    tol = get_tol(tol)
    w, m_alg, alpha = action.wha, action.module, action.alpha
    dm, da = m_alg.dim, w.dim
    n_sub = invariants(action, tol)

    # target: the range of (m (x) phi) -> (m (x) phi) rho(1) on M (x) A^, whose
    # product is the transpose of Delta
    rho1 = contract("rt,irk,stu->kuis", action.unit_map, m_alg.c, w.delta3).reshape(dm * da, -1)
    corner = idempotent_range(rho1, tol)
    if corner is None:
        corner = orth(rho1, tol)
    del rho1  # the domain's quotient below peaks on top of what is kept

    g_full = contract("tjr,irk->ktij", alpha, m_alg.c).reshape(dm * da, dm * dm)
    bound = tol.bound(max(1.0, float(np.linalg.norm(g_full)))) * 100

    # domain M (x)_N M: quotient by m n (x) m' - m (x) n m', N acting by R(n) and L(n)
    nb = n_sub.basis
    r_n, l_n = m_alg._right_stack(nb), m_alg._left_stack(nb)
    restricted = nb.conj().T @ l_n @ nb  # L(n_i) on N
    t = np.einsum("iab,jba->ij", restricted, restricted)  # regular trace form of N
    # sum_ij (T^-1)_ij n_i (x) n_j is a separability idempotent of N when T is invertible
    e = np.linalg.inv(t) if matrix_rank(t, tol) == nb.shape[1] else None
    w_dom = _relative_quotient(r_n, l_n, e, bound, tol)
    image = g_full @ w_dom
    # |g_full V_dom|_F for a basis V_dom of the relations, the complement of w_dom
    resid = float(np.linalg.norm(g_full - image @ w_dom.conj().T)) if w_dom.shape[1] < dm * dm else 0.0
    if resid > bound:
        raise IllDefinedProduct(f"Galois map does not descend to M (x)_N M ({resid:.3e})")
    mat = corner.conj().T @ image
    outside = float(np.linalg.norm(image - corner @ mat))
    if outside > bound:
        raise CrossCheckMismatch(f"Galois map leaves the corner (M (x) A^) rho(1) ({outside:.3e})")
    bijective = mat.shape[0] == mat.shape[1] == matrix_rank(mat, tol)
    return mat, bijective


# ---------------------------------------------------------------------------
# canonical actions


def dual_regular_action(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> WhaAction:
    """The arrow action of A^ on A, ``alpha_phi(x) = phi > x = x_(1) <phi, x_(2)>``.

    It is :func:`arrow_action` of ``w.dual``, whose structure constants are
    A's comultiplication: alpha is a view of ``w.delta``, not a copy.
    """
    return _arrow(w.dual, "dual regular action", tol)


def arrow_action(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> WhaAction:
    """The arrow action of A on its dual, ``alpha_a(phi) = a > phi = phi(. a)``.

    For a group algebra this is the translation action on the function algebra.
    """
    return _arrow(w, "arrow action", tol)


def _arrow(w: WeakHopfAlgebra, name: str, tol: Tolerance | None) -> WhaAction:
    """The validated arrow action of ``w`` on ``w.dual.algebra``; alpha is the view ``c.transpose(1, 2, 0)``."""
    tol = get_tol(tol)
    action = WhaAction(w, w.dual.algebra, w.algebra.c.transpose(1, 2, 0), name=name)
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
    count equals that of A^L (induced once), and for semisimple A the columns of
    Lambda(A c A # A^) are the rows of Lambda(A^L c A) as multisets (the basic
    construction).  Lambda(A c A # A^) is read off A's own blocks through
    ``embed_m``, which :func:`crossed_product` checked multiplicative and injective.
    """
    tol = get_tol(tol)
    action = dual_regular_action(w, tol)
    out = crossed_product(action, tol)
    big = out.algebra
    try:
        n_big = len(big.block_decomposition(tol).blocks)
    except NotSemisimple as exc:
        raise CrossCheckMismatch("smash product is not semisimple") from exc

    al = w.derived(tol).counital_subalgebras.left
    al_alg, al_coords = induced_algebra(w.algebra, al, tol=tol, name=f"{w.name}^L")
    blocks_l = al_alg.block_decomposition(tol)
    if n_big != len(blocks_l):
        raise CrossCheckMismatch(f"smash product has {n_big} blocks but A^L has {len(blocks_l)}")
    if w.algebra.is_semisimple(tol):
        lam_base = _inclusion_matrix(w.algebra, blocks_l, al_coords, tol)
        lam_top = _inclusion_matrix(big, w.algebra.block_decomposition(tol), out.embed_m, tol)
        if sorted(map(tuple, lam_top.T.tolist())) != sorted(map(tuple, lam_base.tolist())):
            raise CrossCheckMismatch(
                f"the columns of Lambda(A c A#A^)\n{lam_top}\nare not the rows of"
                f" Lambda(A^L c A)\n{lam_base}"
            )
    return out
