"""Weak bialgebras and weak Hopf algebras from structure constants.

A weak bialgebra is an algebra plus a comultiplication (stored densely as an
n^2 x n matrix over the Kronecker basis ``e_i (x) e_j``) and a counit
covector.  Comultiplication is multiplicative but need not preserve the unit;
instead the weakened compatibility conditions tie ``Delta(1)`` and the counit
to two distinguished "counital" subalgebras A^L and A^R.  The antipode is the
unique solution of its two defining equations, with the third as a
consistency check.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import FinDimAlgebra, induced_algebra
from .config import DEFAULT_TOL, Tolerance, get_tol
from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    NoAntipode,
    NoInvolution,
    NonUniqueAntipode,
    NotSeparable,
    ValidationError,
    WhakitError,
)
from .linalg import Subspace, kernel, lstsq, matrix_rank
from .report import AxiomReport

__all__ = [
    "WeakBialgebra",
    "WeakHopfAlgebra",
    "Derived",
    "CounitalSubalgebras",
    "validate_wba",
    "validate_wha",
    "solve_antipode",
    "dual_wha",
    "SweedlerArrows",
    "sweedler_arrows",
    "validate_star",
    "is_weak_kac",
    "SeparabilityStructure",
    "separability_structure",
    "hypercentral_components",
]


class WeakBialgebra:
    """Algebra + comultiplication + counit (validation is a separate step)."""

    def __init__(self, algebra: FinDimAlgebra, delta, eps):
        n = algebra.dim
        delta = np.asarray(delta, dtype=complex)
        eps = np.asarray(eps, dtype=complex).ravel()
        if delta.shape != (n * n, n):
            raise DimensionMismatch(f"comultiplication must be ({n*n},{n}), got {delta.shape}")
        if eps.shape != (n,):
            raise DimensionMismatch(f"counit must have shape ({n},), got {eps.shape}")
        self.algebra = algebra
        self.delta = delta
        self.eps = eps
        self._derived: dict[Tolerance, Derived] = {}

    # convenience pass-throughs
    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def name(self) -> str:
        return self.algebra.name

    @property
    def unit(self):
        return self.algebra.unit

    def mul(self, a, b):
        return self.algebra.mul(a, b)

    @cached_property
    def delta3(self):
        """Comultiplication as a (left, right, input) tensor."""
        n = self.dim
        return self.delta.reshape(n, n, n)

    @cached_property
    def delta1(self):
        """Delta(1) as an (n, n) matrix (left leg = row index)."""
        return (self.delta @ self.unit).reshape(self.dim, self.dim)

    def coproduct(self, a):
        """Delta(a) as an (n, n) matrix."""
        return (self.delta @ np.asarray(a, dtype=complex).ravel()).reshape(self.dim, self.dim)

    def counit(self, a) -> complex:
        return complex(self.eps @ np.asarray(a, dtype=complex).ravel())

    @cached_property
    def counital_maps(self):
        """Matrices of pi^L and pi^R.

        ``pi^L(a) = eps(1_(1) a) 1_(2)`` and ``pi^R(a) = 1_(1) eps(a 1_(2))``.
        """
        c, eps, w = self.algebra.c, self.eps, self.delta1
        feps = np.einsum("ijm,m->ij", c, eps)  # eps(e_i e_j)
        pi_l = np.einsum("pk,pj->kj", w, feps)
        pi_r = np.einsum("kq,jq->kj", w, feps)
        return pi_l, pi_r

    def derived(self, tol: Tolerance | None = None) -> "Derived":
        """The structures derived from this algebra at ``tol`` (one cache per tolerance)."""
        tol = get_tol(tol)
        if tol not in self._derived:
            self._derived[tol] = Derived(self, tol)
        return self._derived[tol]

    @property
    def counital_subalgebras(self) -> "CounitalSubalgebras":
        """A^L, A^R and their centers at ``DEFAULT_TOL``."""
        return self.derived(DEFAULT_TOL).counital_subalgebras

    def validate(self, tol: Tolerance | None = None) -> AxiomReport:
        return validate_wba(self, tol)


class WeakHopfAlgebra(WeakBialgebra):
    """Weak bialgebra with an antipode matrix ``S`` (``S(e_j) = sum_k S[k,j] e_k``)."""

    def __init__(self, algebra: FinDimAlgebra, delta, eps, antipode):
        super().__init__(algebra, delta, eps)
        antipode = np.asarray(antipode, dtype=complex)
        if antipode.shape != (algebra.dim, algebra.dim):
            raise DimensionMismatch("antipode must be a square matrix over the basis")
        self.antipode = antipode

    def s(self, a):
        return self.antipode @ np.asarray(a, dtype=complex).ravel()

    @cached_property
    def dual(self) -> "WeakHopfAlgebra":
        """The dual, built once; its own ``dual`` is this algebra.

        The construction makes no rank decision, so one dual serves every
        tolerance.
        """
        d = dual_wha(self)
        d.__dict__["dual"] = self
        return d

    @classmethod
    def from_wba(cls, wba: WeakBialgebra, tol: Tolerance | None = None) -> "WeakHopfAlgebra":
        """Complete ``wba`` with its solved antipode; raises ValidationError naming
        the first failed weak bialgebra axiom before any antipode is solved."""
        validate_wba(wba, tol).raise_if_failed()
        solved = solve_antipode(wba, tol)
        w = cls(wba.algebra, wba.delta, wba.eps, solved)
        w.derived(tol).__dict__["solved_antipode"] = solved  # what validate_wha compares with
        return w


def _entry(module: str, function: str) -> cached_property:
    """A cached ``function(w, tol)``, looked up in ``whakit.<module>`` when first computed
    so that a wrapper rebound to that module attribute sees every computation."""

    def compute(self: "Derived"):
        return getattr(importlib.import_module(f".{module}", __package__), function)(self.wha, self.tol)

    return cached_property(compute)


class Derived:
    """Structures derived from one algebra at one tolerance, each computed on first use.

    The entries are the counital subalgebras, the (left, right) integral
    spaces, the Haar pair (``haar`` = h, ``haar_functional`` = the dual's h as
    a covector on A), the GNS data of the Haar state (None without the dual's
    h), the canonical grouplike (None without the Haar pair),
    the vacua, the irreducible representations in block order, the sector
    table and the antipode solved from the comultiplication.  They are kept
    because an algebra is treated as immutable: build a new one instead of
    changing its arrays.  An entry that raises is not kept.
    """

    def __init__(self, w: WeakBialgebra, tol: Tolerance):
        self.wha = w
        self.tol = tol

    counital_subalgebras = _entry("wha", "_counital_subalgebras")
    integral_spaces = _entry("integrals", "integral_spaces")
    haar = _entry("integrals", "haar_integral")
    haar_state = _entry("integrals", "haar_state")
    grouplike = _entry("integrals", "canonical_grouplike")
    vacua = _entry("reptheory", "vacua")
    irreps = _entry("reptheory", "irreducible_representations")
    sectors = _entry("reptheory", "sector_dimensions")
    solved_antipode = _entry("wha", "solve_antipode")

    @property
    def haar_functional(self):
        return self.wha.dual.derived(self.tol).haar


@dataclass
class CounitalSubalgebras:
    """The distinguished subalgebras cut out by the counital maps."""

    left: Subspace  # A^L = im pi^L
    right: Subspace  # A^R = im pi^R
    center_left: Subspace  # Z^L = A^L ∩ Center(A)
    center_right: Subspace  # Z^R = A^R ∩ Center(A)
    hypercenter: Subspace  # Z^L ∩ Z^R

    @property
    def pure(self) -> bool:
        return self.center_left.dim == 1

    @property
    def indecomposable(self) -> bool:
        return self.hypercenter.dim == 1


def _counital_subalgebras(w: WeakBialgebra, tol: Tolerance) -> CounitalSubalgebras:
    n = w.dim
    pi_l, pi_r = w.counital_maps
    left = Subspace(pi_l, n, tol)
    right = Subspace(pi_r, n, tol)
    c, w1 = w.algebra.c, w.delta1
    # cross-check A^L against {a : Delta(a) = (a x 1) Delta(1) = Delta(1) (a x 1)}
    d_flat = w.delta
    m1 = np.einsum("jpa,pb->abj", c, w1).reshape(n * n, n)
    m2 = np.einsum("pja,pb->abj", c, w1).reshape(n * n, n)
    alt_left = Subspace(kernel(np.vstack([d_flat - m1, d_flat - m2]), tol), n, tol)
    if not alt_left.equals(left, tol.scaled(1e3)):
        raise CrossCheckMismatch(
            f"A^L via pi^L (dim {left.dim}) disagrees with its comultiplication description (dim {alt_left.dim})"
        )
    m3 = np.einsum("aq,jqb->abj", w1, c).reshape(n * n, n)
    m4 = np.einsum("aq,qjb->abj", w1, c).reshape(n * n, n)
    alt_right = Subspace(kernel(np.vstack([d_flat - m3, d_flat - m4]), tol), n, tol)
    if not alt_right.equals(right, tol.scaled(1e3)):
        raise CrossCheckMismatch(
            f"A^R via pi^R (dim {right.dim}) disagrees with its comultiplication description (dim {alt_right.dim})"
        )
    center = w.algebra.center(tol)
    zl = left.intersection(center)
    zr = right.intersection(center)
    return CounitalSubalgebras(left, right, zl, zr, zl.intersection(zr))


def validate_wba(w: WeakBialgebra, tol: Tolerance | None = None) -> AxiomReport:
    """Full named-residual validation of the weak bialgebra axioms."""
    tol = get_tol(tol)
    rep = w.algebra.validate(tol)
    rep.subject = w.name
    c, d3, eps = w.algebra.c, w.delta3, w.eps
    n = w.dim
    scale = max(1.0, float(np.linalg.norm(c)), float(np.linalg.norm(d3)))

    t1 = np.einsum("abp,pqj->abqj", d3, d3, optimize=True)
    t2 = np.einsum("pqj,bcq->pbcj", d3, d3, optimize=True)
    rep.add("coassociativity", np.linalg.norm(t1 - t2), tol.bound(scale**2))

    eye = np.eye(n)
    rep.add("counit-left", np.linalg.norm(np.einsum("p,pkj->kj", eps, d3) - eye), tol.bound(scale**2))
    rep.add("counit-right", np.linalg.norm(np.einsum("q,kqj->kj", eps, d3) - eye), tol.bound(scale**2))

    lhs = np.einsum("ijm,abm->abij", c, d3, optimize=True)
    rhs = np.einsum("pqi,PQj,pPa,qQb->abij", d3, d3, c, c, optimize=True)
    rep.add("comultiplication-multiplicative", np.linalg.norm(lhs - rhs), tol.bound(scale**3))

    w1 = w.delta1
    d2_unit = np.einsum("abp,pq->abq", d3, w1)
    r1 = np.einsum("ai,jc,ijm->amc", w1, w1, c, optimize=True)
    r2 = np.einsum("pq,ij,pjm->imq", w1, w1, c, optimize=True)
    rep.add("unit-comultiplication-compatibility", np.linalg.norm(d2_unit - r1), tol.bound(scale**2))
    rep.add("unit-comultiplication-compatibility-opposite", np.linalg.norm(d2_unit - r2), tol.bound(scale**2))

    feps = np.einsum("ijm,m->ij", c, eps)
    lhs1 = np.einsum("pqj,ip,qk->ijk", d3, feps, feps, optimize=True)
    lhs2 = np.einsum("pqj,iq,pk->ijk", d3, feps, feps, optimize=True)
    rhs3 = np.einsum("ijm,mkl,l->ijk", c, c, eps, optimize=True)
    rep.add("counit-weak-multiplicativity", np.linalg.norm(lhs1 - rhs3), tol.bound(scale**3))
    rep.add("counit-weak-multiplicativity-opposite", np.linalg.norm(lhs2 - rhs3), tol.bound(scale**3))

    if w.algebra.involution is not None:
        _add_star_coalgebra_checks(rep, w, tol)
    return rep


def _add_star_coalgebra_checks(rep: AxiomReport, w: WeakBialgebra, tol: Tolerance) -> None:
    """The rows tying the involution to the comultiplication and the counit."""
    inv, d3, eps = w.algebra.involution, w.delta3, w.eps
    scale = max(1.0, float(np.linalg.norm(w.algebra.c)), float(np.linalg.norm(d3)))
    lhs_star = np.einsum("abm,mj->abj", d3, inv)
    rhs_star = np.einsum("pqj,ap,bq->abj", np.conj(d3), inv, inv, optimize=True)
    rep.add("comultiplication-star-compatible", np.linalg.norm(lhs_star - rhs_star), tol.bound(scale**2))
    rep.add("counit-star-compatible", np.linalg.norm(eps @ inv - np.conj(eps)), tol.bound(scale))


def solve_antipode(w: WeakBialgebra, tol: Tolerance | None = None):
    """Solve the antipode equations for S as one linear system.

    ``a_(1) S(a_(2)) = pi^L(a)`` and ``S(a_(1)) a_(2) = pi^R(a)`` are linear
    in S but do not determine it alone.  Given those two, the third equation
    ``S(a_(1)) a_(2) S(a_(3)) = S(a)`` is equivalent to the linear pair
    ``S(a_(1)) pi^L(a_(2)) = S(a)`` and ``pi^R(a_(1)) S(a_(2)) = S(a)``;
    stacking all four blocks yields a system with a unique solution whenever
    an antipode exists.  The original third equation stays as a post-check.
    """
    tol = get_tol(tol)
    c, d3 = w.algebra.c, w.delta3
    n = w.dim
    pi_l, pi_r = w.counital_maps
    m1 = np.einsum("pqj,pmk->kjmq", d3, c, optimize=True).reshape(n * n, n * n)
    m2 = np.einsum("pqj,mqk->kjmp", d3, c, optimize=True).reshape(n * n, n * n)
    m3 = np.einsum("pqj,rq,mrk->kjmp", d3, pi_l, c, optimize=True).reshape(n * n, n * n)
    m4 = np.einsum("pqj,rp,rmk->kjmq", d3, pi_r, c, optimize=True).reshape(n * n, n * n)
    eye = np.eye(n * n, dtype=complex)
    stacked = np.vstack([m1, m2, m3 - eye, m4 - eye])
    zeros = np.zeros(n * n, dtype=complex)
    target = np.concatenate([pi_l.reshape(n * n), pi_r.reshape(n * n), zeros, zeros])
    vec_s, resid = lstsq(stacked, target, tol)
    if resid > 1e-7 * np.sqrt(n) * max(1.0, float(np.linalg.norm(target))):
        raise NoAntipode(f"antipode equations have no solution (residual {resid:.3e})")
    svals = np.linalg.svd(stacked, compute_uv=False)
    scale = float(svals[0]) if svals.size else 1.0
    if svals.size and svals[-1] <= tol.bound(scale) * 10:
        raise NonUniqueAntipode(
            f"antipode equations are degenerate (smallest singular value {svals[-1]:.3e})"
        )
    s = vec_s.reshape(n, n)
    # post-check: S(a_(1)) a_(2) S(a_(3)) = S(a)
    d2 = np.einsum("abp,pqj->abqj", d3, d3, optimize=True)
    t1 = np.einsum("ma,abqj->mbqj", s, d2, optimize=True)
    t2 = np.einsum("mbqj,mbr->rqj", t1, c, optimize=True)
    t3 = np.einsum("rqj,sq,rsk->kj", t2, s, c, optimize=True)
    resid3 = float(np.linalg.norm(t3 - s))
    if resid3 > tol.bound(float(np.linalg.norm(s)) ** 3) * 1e3:
        raise NoAntipode(f"solved antipode fails its consistency equation (residual {resid3:.3e})")
    return s


def antipode_report(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> AxiomReport:
    """Residuals of the derived antipode laws (antimultiplicativity, S(A^L)=A^R)."""
    tol = get_tol(tol)
    rep = AxiomReport(f"{w.name} antipode")
    c, s = w.algebra.c, w.antipode
    scale = max(1.0, float(np.linalg.norm(c)) * float(np.linalg.norm(s)))
    lhs = np.einsum("ijm,km->ijk", c, s)  # S(e_i e_j)
    rhs = np.einsum("pj,qi,pqk->ijk", s, s, c, optimize=True)  # S(e_j) S(e_i)
    rep.add("antipode-antimultiplicative", np.linalg.norm(lhs - rhs), tol.bound(scale**2))
    rep.add("antipode-unit", np.linalg.norm(w.s(w.unit) - w.unit), tol.bound(1.0))
    sub = w.derived(tol).counital_subalgebras
    image_l = Subspace(s @ sub.left.basis, w.dim, tol)
    rep.add(
        "antipode-swaps-counital-subalgebras",
        0.0 if image_l.equals(sub.right, tol.scaled(100)) else 1.0,
        0.5,
    )
    svals = np.linalg.svd(s, compute_uv=False)
    rep.add("antipode-invertible", 0.0 if svals[-1] > tol.bound(svals[0]) else 1.0, 0.5)
    return rep


def validate_wha(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> AxiomReport:
    """The weak Hopf algebra gate: every axiom an input must pass, in two stages.

    Stage 1 is the rows of :func:`validate_wba`.  Only when all of them pass,
    stage 2 compares the stored antipode with the solved one, adds the rows of
    :func:`antipode_report` and, for a star algebra, ``antipode-star-compatible``.
    A stage-2 computation that raises becomes one failed row named after the
    stage and the error (residual inf, threshold 0); the other stages still run.
    """
    tol = get_tol(tol)
    rep = validate_wba(w, tol)
    if not rep.ok:
        return rep

    try:
        solved = w.derived(tol).solved_antipode
    except WhakitError as exc:
        rep.add(f"antipode solvable ({type(exc).__name__})", float("inf"), 0.0)
    else:
        bound = tol.bound(max(1.0, float(np.linalg.norm(solved)))) * 100
        rep.add("antipode agrees with solved antipode", np.linalg.norm(w.antipode - solved), bound)
    try:
        laws = antipode_report(w, tol)
    except WhakitError as exc:
        rep.add(f"antipode laws ({type(exc).__name__})", float("inf"), 0.0)
    else:
        rep.checks.extend(laws.checks)
    if w.algebra.involution is not None:
        _add_antipode_star_check(rep, w, tol)
    return rep


def dual_wha(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> WeakHopfAlgebra:
    """The dual weak Hopf algebra on the dual basis.

    Multiplication is the transpose of comultiplication and vice versa; the
    unit is the counit covector; the antipode is the transpose; the involution
    (when the primal carries one) is ``<phi*, a> = conj <phi, S(a)*>``.
    """
    tol = get_tol(tol)
    n = w.dim
    c_dual = w.delta3.copy()
    delta_dual = w.algebra.c.reshape(n * n, n).copy()
    inv_dual = None
    if w.algebra.involution is not None:
        k = w.algebra.involution @ np.conj(w.antipode)
        inv_dual = np.conj(k).T
    labels = [f"{lbl}^" for lbl in w.algebra.basis_labels]
    alg = FinDimAlgebra(c_dual, unit=w.eps.copy(), involution=inv_dual, basis_labels=labels, name=f"{w.name}^")
    return WeakHopfAlgebra(alg, delta_dual, eps=w.unit.copy(), antipode=w.antipode.T.copy())


@dataclass
class SweedlerArrows:
    """The four canonical arrow actions between A and its dual."""

    wha: WeakHopfAlgebra

    def act(self, a, phi):
        """a ⇀ phi = phi_(1) <phi_(2), a>  (left action of A on the dual)."""
        a = np.asarray(a, dtype=complex).ravel()
        phi = np.asarray(phi, dtype=complex).ravel()
        return np.einsum("a,k,iak->i", a, phi, self.wha.algebra.c)

    def ract(self, phi, a):
        """phi ↼ a = <phi_(1), a> phi_(2)  (right action of A on the dual)."""
        a = np.asarray(a, dtype=complex).ravel()
        phi = np.asarray(phi, dtype=complex).ravel()
        return np.einsum("a,k,ajk->j", a, phi, self.wha.algebra.c)

    def dact(self, phi, x):
        """phi ⇀ x = x_(1) <phi, x_(2)>  (left action of the dual on A)."""
        x = np.asarray(x, dtype=complex).ravel()
        phi = np.asarray(phi, dtype=complex).ravel()
        return np.einsum("pqj,j,q->p", self.wha.delta3, x, phi)

    def rdact(self, x, phi):
        """x ↼ phi = <phi, x_(1)> x_(2)  (right action of the dual on A)."""
        x = np.asarray(x, dtype=complex).ravel()
        phi = np.asarray(phi, dtype=complex).ravel()
        return np.einsum("pqj,j,p->q", self.wha.delta3, x, phi)


def sweedler_arrows(w: WeakHopfAlgebra) -> SweedlerArrows:
    return SweedlerArrows(w)


def validate_star(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> AxiomReport:
    """Involution axioms, including the antipode compatibility S(S(a)*)* = a."""
    tol = get_tol(tol)
    if w.algebra.involution is None:
        raise NoInvolution(f"{w.name} carries no involution")
    rep = w.algebra.validate(tol)
    rep.subject = f"{w.name} star"
    _add_antipode_star_check(rep, w, tol)
    _add_star_coalgebra_checks(rep, w, tol)
    return rep


def _add_antipode_star_check(rep: AxiomReport, w: WeakHopfAlgebra, tol: Tolerance) -> None:
    """The row S(S(a)*)* = a, as the composite of two antilinear maps."""
    inv, s = w.algebra.involution, w.antipode
    comp = inv @ np.conj(s @ inv @ np.conj(s))
    rep.add("antipode-star-compatible", np.linalg.norm(comp - np.eye(w.dim)), tol.bound(float(np.linalg.norm(s)) ** 2))


def is_weak_kac(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> bool:
    """True when S^2 = id (the involutive / weak Kac case)."""
    tol = get_tol(tol)
    s2 = w.antipode @ w.antipode
    return float(np.linalg.norm(s2 - np.eye(w.dim))) <= tol.bound(float(np.linalg.norm(s2)))


@dataclass
class SeparabilityStructure:
    """Rank factorization Delta(1) = sum_i u_i (x) w_i with u_i in A^R, w_i in A^L."""

    left_legs: np.ndarray  # columns u_i (in A^R)
    right_legs: np.ndarray  # columns w_i (in A^L)
    report: AxiomReport


def separability_structure(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> SeparabilityStructure:
    """Factor Delta(1) through A^R (x) A^L and verify the induced Frobenius
    structure on A^L.

    The left legs span A^R and the right legs span A^L (this orientation is
    forced by ``pi^L(a) = eps(1_(1) a) 1_(2)``); the left legs are transported
    to A^L through the antipode to build the separability idempotent
    ``delta(x) = sum_i x S(u_i) (x) w_i`` with counit ``eps`` restricted.
    """
    tol = get_tol(tol)
    sub = w.derived(tol).counital_subalgebras
    w1 = w.delta1
    n = w.dim
    p_r = sub.right.projector()
    p_l = sub.left.projector()
    eye = np.eye(n)
    left_resid = float(np.linalg.norm((eye - p_r) @ w1))
    right_resid = float(np.linalg.norm((eye - p_l) @ w1.T))
    bound = tol.bound(float(np.linalg.norm(w1))) * 100
    if left_resid > bound or right_resid > bound:
        raise NotSeparable(
            f"Delta(1) legs leave the counital subalgebras (residuals {left_resid:.3e}, {right_resid:.3e})"
        )
    u_mat, sing, vh = np.linalg.svd(w1)
    rank = matrix_rank(w1, tol)
    lefts = u_mat[:, :rank] * np.sqrt(sing[:rank])
    rights = (vh[:rank, :].conj().T) * np.sqrt(sing[:rank])  # columns w_i
    rep = AxiomReport(f"{w.name} separability")
    rep.add("rank-factorization", np.linalg.norm(lefts @ rights.T - w1), tol.bound(np.linalg.norm(w1)))
    s_lefts = w.antipode @ lefts  # S(u_i) in A^L
    # separability idempotent: m(delta(x)) = x on A^L
    basis_l = sub.left.basis
    worst_sep = 0.0
    for j in range(basis_l.shape[1]):
        x = basis_l[:, j]
        acc = np.zeros(n, dtype=complex)
        for i in range(rank):
            acc += w.mul(w.mul(x, s_lefts[:, i]), rights[:, i])
        worst_sep = max(worst_sep, float(np.linalg.norm(acc - x)))
    rep.add("separability-idempotent", worst_sep, tol.bound(float(np.linalg.norm(w1)) ** 2) * 100)
    # Frobenius compatibility: sum_i x S(u_i) (x) w_i y = sum_i (xy) S(u_i) (x) w_i on A^L
    worst_frob = 0.0
    for j in range(basis_l.shape[1]):
        for k in range(basis_l.shape[1]):
            x, y = basis_l[:, j], basis_l[:, k]
            lhs = np.zeros((n, n), dtype=complex)
            rhs = np.zeros((n, n), dtype=complex)
            xy = w.mul(x, y)
            for i in range(rank):
                lhs += np.outer(w.mul(x, s_lefts[:, i]), w.mul(rights[:, i], y))
                rhs += np.outer(w.mul(xy, s_lefts[:, i]), rights[:, i])
            worst_frob = max(worst_frob, float(np.linalg.norm(lhs - rhs)))
    rep.add("frobenius-compatibility", worst_frob, tol.bound(float(np.linalg.norm(w1)) ** 2) * 100)
    rep.raise_if_failed()
    return SeparabilityStructure(left_legs=lefts, right_legs=rights, report=rep)


def hypercentral_components(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> list[WeakHopfAlgebra]:
    """Split a decomposable weak Hopf algebra along its hypercenter.

    Each minimal idempotent ``z`` of Z^L ∩ Z^R cuts out a weak Hopf algebra
    on ``z A`` with unit ``z``; the restriction is validated before return.
    """
    tol = get_tol(tol)
    from .algebra import _minimal_central_idempotents

    sub = w.derived(tol).counital_subalgebras
    hyper = sub.hypercenter
    if hyper.dim == 1:
        return [w]
    idems = _minimal_central_idempotents(w.algebra, hyper, tol)
    out = []
    for z in idems:
        image = Subspace(w.algebra.left_mult(z), w.dim, tol)
        alg_z, q = induced_algebra(w.algebra, image, unit_vec=z, tol=tol, name=f"{w.name}|component")
        m = q.shape[1]
        sz = w.antipode @ z
        if np.linalg.norm(sz - z) > 1e-6 * max(1.0, float(np.linalg.norm(z))):
            raise ValidationError("component-antipode-stability", float(np.linalg.norm(sz - z)), 1e-6)
        qq = np.kron(q, q)
        delta_z = qq.conj().T @ w.delta @ q
        recon = qq @ delta_z
        if np.linalg.norm(recon - w.delta @ q) > 1e-6 * max(1.0, float(np.linalg.norm(w.delta))):
            raise ValidationError("component-comultiplication-stability", float(np.linalg.norm(recon - w.delta @ q)), 1e-6)
        eps_z = w.eps @ q
        s_z, resid = lstsq(q, w.antipode @ q, tol)
        if resid > 1e-6:
            raise ValidationError("component-antipode-closure", resid, 1e-6)
        comp = WeakHopfAlgebra(alg_z, delta_z, eps_z, s_z)
        validate_wba(comp, tol).raise_if_failed()
        out.append(comp)
    return out
