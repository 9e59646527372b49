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
M (x)_N M of the Galois map, are quotients by a relation span over a
semisimple algebra B (A^L or N), and split block by block (Morita): X (x)_B Y
= ⊕_l X f_l (x) f_l Y for the minimal projections f_l = e^l_11 of B.
:func:`~whakit.algebra.relative_tensor_carrier` reads the quotient off B's
cached Wedderburn map, the small ranges X f_l and f_l Y and the separability
idempotent of B applied through its Kronecker factors; the SVD of the
relation span decides when B does not decompose or a check misses
(:func:`_relative_quotient`).  No (dim X dim Y)^2 array is formed, and no
basis of a relation span, since the residual of a map X on the relations is
``|X - (X C) C^H|_F`` for the carrier C.  The Galois corner (M (x) A^)
rho(1) needs no basis when the map is onto it (:func:`_onto_the_corner`).

The canonical actions copy nothing: :func:`arrow_action` of A on A^ has
``alpha = c_A.transpose(1, 2, 0)``, and :func:`dual_regular_action` is the
arrow action of A^, whose structure constants are A's comultiplication.  The
covariance row of an arrow action is the multiplicativity row of the dual's
Delta, which it reads from the dual's derived structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    _NO_DECOMPOSITION,
    FinDimAlgebra,
    WedderburnAlgebra,
    WedderburnMap,
    _covariance_defect,
    _dense_associator_norm,
    _inclusion_matrix,
    induced_algebra,
    relative_tensor_carrier,
    watatani_index,
)
from .config import Derived, HasDerived, Tolerance, get_tol
from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    EmptyQuotient,
    IllDefinedProduct,
    InvariantMismatch,
    NoQuasiBasis,
    NotConditionalExpectation,
    NotSemisimple,
    ValidationError,
)
from .linalg import (
    Subspace,
    _svd_cut,
    contract,
    idempotent_ranges,
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
    # a weak Hopf algebra whose Delta-multiplicativity residual is this action's covariance row, or None
    covariance_of: WeakHopfAlgebra | None = None

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
    checks the multiplicativity of Delta in :func:`~whakit.wha.validate_wba`.
    The arrow action of A on A^ is the one action whose covariance row is that
    of Delta_{A^}: it reads the residual kept in ``A^.derived(tol)``
    (``covariance_of``), against its own threshold."""
    return action.derived(tol).report


def _validate_action(action: WhaAction, tol: Tolerance) -> AxiomReport:
    """:func:`validate_action`, computed."""
    w, m_alg, alpha = action.wha, action.module, action.alpha
    rep = AxiomReport(f"{action.name}: {w.name} on {m_alg.name}")
    scale = max(1.0, float(np.linalg.norm(alpha)))
    ops = alpha.transpose(0, 2, 1)  # operator matrix of alpha_{e_i}
    rep.add("action-algebra-map", w.algebra.homomorphism_defect(ops), tol.bound(scale**2) * 10)
    rep.add("action-unital", np.linalg.norm(action.amat(w.unit) - np.eye(m_alg.dim)), tol.bound(scale) * 10)
    source = action.covariance_of
    covariance = _covariance_defect(m_alg.c, alpha, w.delta3) if source is None else source.derived(tol).multiplicativity
    rep.add("action-module-algebra", covariance, tol.bound(scale**2) * 10)
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

    The quotient is read off the matrix units of A^L, over an orthonormal
    basis l_i of A^L and its Wedderburn map, kept in ``w.derived(tol)``: M is
    a right A^L-module through ``m . l = m u(l)`` and A a left one, and
    :func:`~whakit.algebra.relative_tensor_carrier` builds the carrier from
    the ranges M u(f_l) and f_l A of the minimal projections f_l and from the
    separability idempotent of A^L applied through its Kronecker factors, when
    its unit, kills, fixes and count checks pass against ``bound``
    (:func:`_relative_quotient`).  For every Hopf algebra A^L = C1 and the
    carrier is the identity.  Otherwise, and when A^L does not decompose, the
    SVD of the stacked relations decides.  No (d_full, d_full) array is
    formed for the quotient, and no basis of the relation span: with the
    carrier C, the residual of a map X on the relations, ``|X V_rel|_F`` for
    an orthonormal basis V_rel of them, is ``|X - (X C) C^H|_F``, and the
    dense route alone derives V_rel from C.  Either way the carrier's basis
    depends on the quotient alone, not on how an SVD rotates singular
    vectors of equal singular value: through pivoted bases of the small
    ranges, or as the :func:`~whakit.linalg.pivoted_basis` of the complement;
    for a groupoid's smash product in its canonical basis both give the
    same standard basis vectors of M (x) A.  Two routes then compute the
    product.

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
    carrier = _relative_quotient(rho, lam, _wedderburn_of(lambda: w.derived(tol).left_algebra, tol), bound, tol)
    if carrier.shape[1] == 0:  # e.g. a trivial action through a counit that is not multiplicative
        raise EmptyQuotient(f"M (x)_(A^L) A is 0-dimensional: the relations span all of M (x) A (dim {d_full})")

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


def _relative_quotient(rho, lam, wedderburn: WedderburnMap | None, bound: float, tol: Tolerance):
    """The carrier of X (x)_B Y, an orthonormal basis of the orthogonal complement of its relation span.

    B acts on X from the right by the stack ``rho`` and on Y from the left by
    ``lam``; the relations are ``rho_b x (x) y - x (x) lam_b y``.  With B's
    Wedderburn map ``wedderburn`` (A^L's for the crossed product, N = M^A's
    for the Galois map), :func:`~whakit.algebra.relative_tensor_carrier`
    reads the carrier off B's matrix units block by block, when its checks
    pass against ``bound``.  Otherwise, as for a broken action, and whenever
    ``wedderburn`` is None (B does not decompose), the SVD of the relation
    span decides, and the carrier is the :func:`~whakit.linalg.pivoted_basis`
    of its complement.  Either basis depends on the quotient alone.

    No basis of the relation span is returned: for the carrier C, whose columns and those of
    a relation basis V_rel make a unitary, ``|X V_rel|_F = |X - (X C) C^H|_F``, which is how
    every caller reads the residual of a map X on the relations."""
    carrier = None if wedderburn is None else relative_tensor_carrier(wedderburn, rho, lam, bound, tol)
    if carrier is None:
        rel = kron_sum(rho, lam)
        carrier = pivoted_basis(span_and_complement(rel.transpose(1, 0, 2).reshape(rel.shape[1], -1), tol)[1])
    return carrier


def _wedderburn_of(induced, tol: Tolerance) -> WedderburnMap | None:
    """The Wedderburn map of the algebra B in the pair ``(B, coordinates) = induced()``, or None
    when B cannot be induced or does not decompose at ``tol``."""
    try:
        return induced()[0].wedderburn_map(tol)
    except (InvariantMismatch, ValidationError, *_NO_DECOMPOSITION):
        return None


def _wedderburn_product(
    action: WhaAction, k_fac, carrier, unit, involution, name: str, bound: float, tol: Tolerance
) -> WedderburnAlgebra | None:
    """M x| A on the carrier as R(N)' = End_N(M) in Wedderburn form, or None when it is not certified.

    The representation ``m x| a -> L(m) alpha_a`` gives the d operators Pi_g
    on M.  It is a homomorphism with kernel the relation span when alpha is
    multiplicative and covariant (the kept :func:`validate_action` rows), M is
    associative (M's associativity row, kept in ``M.derived(tol)``; a
    certified bound that misses ``bound`` is redone densely) and pi kills the
    relation span, each against ``bound``.
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
    # L(e_i) L(e_j) = L(e_i e_j): M's associativity row, kept per tolerance; a certificate over bound is redone densely
    assoc, certified = m_alg.derived(tol).associativity
    if certified and assoc > bound:
        assoc = _dense_associator_norm(m_alg.c)
    if assoc > bound:
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
        units = n_basis @ wedderburn.units  # matrix units of N in M's coordinates
    except (InvariantMismatch, ValidationError, *_NO_DECOMPOSITION):
        return None
    right_n = m_alg._right_stack(n_basis)
    commutation = np.sqrt(sum(float(np.linalg.norm(ops @ r - r @ ops)) ** 2 for r in right_n))
    if commutation > tol.bound(2.0 * float(np.linalg.norm(ops)) * float(np.linalg.norm(right_n))):
        return None
    sizes = wedderburn.sizes
    ends = np.cumsum([n * n for n in sizes])
    blocks = [units[:, hi - n * n : hi].reshape(dm, n, n) for hi, n in zip(ends, sizes)]  # f[:, a, b] = f_ab
    # the ranges M f_11 of R(f_11), whose ranks are the multiplicities of N's blocks in M
    corners = idempotent_ranges(m_alg._right_stack(np.stack([f[:, 0, 0] for f in blocks], axis=1)), tol)
    if corners is None:
        return None
    frames = []
    for f, (corner, _) in zip(blocks, corners):
        embed, back = m_alg._right_stack(f[:, 0, :]), m_alg._right_stack(f[:, :, 0])  # R(f_1j), R(f_j1)
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

    The domain's quotient is read off the matrix units of N, through N's
    cached Wedderburn map (:func:`_relative_quotient`), with the SVD of the
    stacked relations deciding when N does not decompose or a check misses.
    When the map is onto the corner, the corner needs no basis of its own
    (:func:`_onto_the_corner`): the orthonormal factor of the image's QR is
    one, and the triangular factor is the matrix.
    Otherwise, as when the map is not bijective or a check of that route
    misses, the corner is :func:`~whakit.linalg.orth` of the dense
    (dim M dim A, dim M dim A) matrix of right multiplication by rho(1).

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

    g_full = contract("tjr,irk->ktij", alpha, m_alg.c).reshape(dm * da, dm * dm)
    bound = tol.bound(max(1.0, float(np.linalg.norm(g_full)))) * 100

    # domain M (x)_N M: quotient by m n (x) m' - m (x) n m', N acting by R(n) and L(n)
    nb = n_sub.basis
    r_n, l_n = m_alg._right_stack(nb), m_alg._left_stack(nb)
    w_dom = _relative_quotient(r_n, l_n, _wedderburn_of(lambda: action.derived(tol).induced, tol), bound, tol)
    image = g_full @ w_dom
    # |g_full V_dom|_F for a basis V_dom of the relations, the complement of w_dom
    resid = float(np.linalg.norm(g_full - image @ w_dom.conj().T)) if w_dom.shape[1] < dm * dm else 0.0
    del g_full
    if resid > bound:
        raise IllDefinedProduct(f"Galois map does not descend to M (x)_N M ({resid:.3e})")
    mat = _onto_the_corner(action, image, bound, tol)
    if mat is not None:
        return mat, True
    # the range of (m (x) phi) -> (m (x) phi) rho(1) on M (x) A^, whose product is the transpose of Delta
    corner = orth(contract("rt,irk,stu->kuis", action.unit_map, m_alg.c, w.delta3).reshape(dm * da, -1), tol)
    mat = corner.conj().T @ image
    outside = float(np.linalg.norm(image - corner @ mat))
    if outside > bound:
        raise CrossCheckMismatch(f"Galois map leaves the corner (M (x) A^) rho(1) ({outside:.3e})")
    bijective = mat.shape[0] == mat.shape[1] == matrix_rank(mat, tol)
    return mat, bijective


def _onto_the_corner(action: WhaAction, image, bound: float, tol: Tolerance) -> np.ndarray | None:
    """The Galois map's matrix when it is onto the corner (M (x) A^) rho(1), or None.

    Right multiplication by ``rho(1) = sum_t u_t (x) e^_t``, u_t = alpha_{e_t}(1_M),
    is ``sum_t R_M(u_t) (x) R_A^(e^_t)`` and is never formed.  The image, of
    d = dim M (x)_N M columns, spans the corner when

    * rho(1) is idempotent, ``|rho(1)^2 - rho(1)|_F <= bound``, so the rank
      of right multiplication by it is its trace, ``sum_t tr R_M(u_t) tr
      R_A^(e^_t)``, which must lie within ``bound`` of d;
    * the image lies in the corner, ``|image rho(1) - image|_F <= bound``,
      applied through the factors: with the SVD ``(u_t)_t = sum_s m_s
      phi_s^T`` cut at its rank (at most dim A^L), ``rho(1) = sum_s m_s (x)
      phi_s``, two GEMMs per term s;
    * the image has rank d: ``image = Q R`` (QR), and the singular values of
      the triangular R, which are the image's, pass the cut of
      :func:`~whakit.linalg.orth`.

    Q is then an orthonormal basis of the corner, never formed, and R the
    matrix of the map in the domain's basis and Q, which is returned: the
    map is bijective.  None when a check misses or the image has a smaller
    rank, so that the dense corner decides.  Costs O(r n^3 d) for r = rank of
    the u_t and n = max(dim M, dim A); no (dim M dim A)^2 array is formed.
    """
    m_alg, hat = action.module, action.wha.dual_algebra
    dm, da, d = m_alg.dim, action.wha.dim, image.shape[1]
    units = action.unit_map  # column t is u_t
    square = contract("is,jt,ijk,stu->ku", units, units, m_alg.c, hat.c)  # rho(1)^2 in M (x) A^
    trace = complex(np.einsum("iri,rt,sts->", m_alg.c, units, hat.c))
    if float(np.linalg.norm(square - units)) > bound or abs(trace - d) > bound:
        return None
    u, s, vh = np.linalg.svd(units, full_matrices=False)
    r = _svd_cut(s, tol, s[0]) if s.size and s[0] > 0 else 0
    # image rho(1)[k, b, g] = sum_s sum_ia R_M(m_s)[k, i] R_A^(phi_s)[b, a] image[i, a, g], one term s at a time
    legs = image.reshape(dm, da, d).transpose(1, 0, 2).reshape(da, -1)  # [a, (i, g)]
    moved = -image.reshape(dm, -1)
    for r_m, r_a in zip(m_alg._right_stack(u[:, :r] * s[:r]), hat._right_stack(vh[:r].T)):
        moved += r_m @ (r_a @ legs).reshape(da, dm, d).transpose(1, 0, 2).reshape(dm, -1)
    if float(np.linalg.norm(moved)) > bound:
        return None
    mat = np.linalg.qr(image, mode="r")
    sv = np.linalg.svd(mat, compute_uv=False)
    return mat if sv.size == d and _svd_cut(sv, tol, sv[0]) == d else None


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
    """The validated arrow action of ``w`` on ``w.dual.algebra``; alpha is the view ``c.transpose(1, 2, 0)``.

    Its covariance row is Delta's multiplicativity row of ``w.dual``: with M =
    A^ and alpha = c_A.transpose(1, 2, 0), whose coproduct tensor is
    c_{A^}, :func:`~whakit.algebra._covariance_defect` receives the arrays
    that :func:`~whakit.wha.validate_wba` of ``w.dual`` gives it, so the action
    reads that residual from ``w.dual.derived(tol)``.
    """
    tol = get_tol(tol)
    action = WhaAction(w, w.dual.algebra, w.algebra.c.transpose(1, 2, 0), name=name, covariance_of=w.dual)
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
