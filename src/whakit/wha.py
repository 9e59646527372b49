"""Weak bialgebras and weak Hopf algebras from structure constants.

A weak bialgebra is an algebra plus a comultiplication (stored densely as an
n^2 x n matrix over the Kronecker basis ``e_i (x) e_j``) and a counit
covector.  Comultiplication is multiplicative but need not preserve the unit;
instead the weakened compatibility conditions tie ``Delta(1)`` and the counit
to two distinguished "counital" subalgebras A^L and A^R.  The antipode is the
weak inverse of the identity in the convolution algebra End(A) = Â ⊗ A: the
unique solution of four linear equations, which :func:`solve_antipode` solves
block by block in the Wedderburn decomposition of Â ⊗ A, or densely where the
blocks cannot decide, with the third antipode axiom as a consistency check.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    _NO_DECOMPOSITION,
    FinDimAlgebra,
    _antimultiplicative_norm,
    _covariance_defect,
    _minimal_central_idempotents,
    induced_algebra,
)
from . import config
from .config import HasDerived, Tolerance, get_tol
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
from .linalg import Subspace, contract, kernel, lstsq, matrix_rank
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


def _entry(module: str, function: str) -> cached_property:
    """A cached ``function(w, tol)``, looked up in ``whakit.<module>`` when first computed
    so that a wrapper rebound to that module attribute sees every computation."""

    def compute(self: "Derived"):
        return getattr(importlib.import_module(f".{module}", __package__), function)(self.owner, self.tol)

    return cached_property(compute)


class Derived(config.Derived):
    """What a weak bialgebra derives at one tolerance, each computed on first use.

    The entries are the counital subalgebras, the (left, right) integral
    spaces, the Haar pair (``haar`` = h, ``haar_functional`` = the dual's h as
    a covector on A), the GNS data of the Haar state (None without the dual's
    h), the canonical grouplike (None without the Haar pair), the twisted
    conjugation through which every sector's conjugate is read, the vacua, the
    irreducible representations in block order, the sector table, the report
    of :func:`validate_wba`, the antipode solved from the comultiplication,
    the residual of Delta's multiplicativity (which the arrow actions of the
    dual report as their covariance row) and A^L as an algebra with its
    coordinates in A.
    """

    counital_subalgebras = _entry("wha", "_counital_subalgebras")
    integral_spaces = _entry("integrals", "integral_spaces")
    haar = _entry("integrals", "haar_integral")
    haar_state = _entry("integrals", "haar_state")
    grouplike = _entry("integrals", "canonical_grouplike")
    conjugation = _entry("reptheory", "_twisted_conjugation")
    vacua = _entry("reptheory", "vacua")
    irreps = _entry("reptheory", "irreducible_representations")
    sectors = _entry("reptheory", "sector_dimensions")
    wba_report = _entry("wha", "validate_wba")
    solved_antipode = _entry("wha", "solve_antipode")
    multiplicativity = _entry("wha", "_multiplicativity_defect")
    left_algebra = _entry("wha", "_left_algebra")

    @property
    def haar_functional(self):
        return self.owner.dual.derived(self.tol).haar


class WeakBialgebra(HasDerived):
    """Algebra + comultiplication + counit (validation is a separate step), deriving a :class:`Derived`."""

    Derived = Derived

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
    def dual_algebra(self) -> FinDimAlgebra:
        """Â: the dual space with the product dual to Delta and unit eps (no involution).

        End(A) with the convolution product is the algebra Â ⊗ A.
        """
        return FinDimAlgebra(self.delta3, self.eps, name=f"{self.name}^")

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
        feps = self.algebra.c @ self.eps  # eps(e_i e_j)
        return self.delta1.T @ feps, self.delta1 @ feps.T

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
    def star_antipode(self):
        """The matrix K with ``S(a)* = K conj(a)``: column j holds S(e_j)*."""
        if self.algebra.involution is None:
            raise NoInvolution(f"{self.name} carries no involution")
        return self.algebra.involution @ np.conj(self.antipode)

    @cached_property
    def dual(self) -> "WeakHopfAlgebra":
        """The dual, built once; its own ``dual`` is this algebra.

        The construction makes no rank decision, so one dual serves every
        tolerance.
        """
        d = dual_wha(self)
        d.__dict__["dual"] = self
        d.__dict__["dual_algebra"] = self.algebra
        if "dual_algebra" in self.__dict__:  # keep what the Â built for the antipode derived
            vars(d.algebra)["_derived"] = vars(self.dual_algebra).setdefault("_derived", {})
        self.__dict__["dual_algebra"] = d.algebra
        return d

    @classmethod
    def from_wba(cls, wba: WeakBialgebra, tol: Tolerance | None = None) -> "WeakHopfAlgebra":
        """Complete ``wba`` with its solved antipode; raises ValidationError naming
        the first failed weak bialgebra axiom before any antipode is solved."""
        report = validate_wba(wba, tol).raise_if_failed()
        solved = solve_antipode(wba, tol)
        w = cls(wba.algebra, wba.delta, wba.eps, solved)
        if "dual_algebra" in wba.__dict__:
            w.__dict__["dual_algebra"] = wba.dual_algebra
        derived = w.derived(tol)
        derived.__dict__["wba_report"] = report  # validate_wha's stage 1
        derived.__dict__["multiplicativity"] = wba.derived(tol).multiplicativity  # the arrow actions' covariance row
        derived.__dict__["solved_antipode"] = solved  # what validate_wha compares with
        return w


@dataclass
class CounitalSubalgebras:
    """The distinguished subalgebras cut out by the counital maps; Z^L, Z^R and the
    hypercenter are intersected on first use."""

    left: Subspace  # A^L = im pi^L
    right: Subspace  # A^R = im pi^R
    center: Subspace  # Center(A)

    @cached_property
    def center_left(self) -> Subspace:
        """Z^L = A^L ∩ Center(A)."""
        return self.left.intersection(self.center)

    @cached_property
    def center_right(self) -> Subspace:
        """Z^R = A^R ∩ Center(A)."""
        return self.right.intersection(self.center)

    @cached_property
    def hypercenter(self) -> Subspace:
        """Z^L ∩ Z^R."""
        return self.center_left.intersection(self.center_right)

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
    # cross-check A^L against {a : Delta(a) = (a x 1) Delta(1) = Delta(1) (a x 1)}, and A^R with 1 x a
    sides = (
        ("A^L", "pi^L", left, np.einsum("jpa,pb->abj", c, w1), np.einsum("pja,pb->abj", c, w1)),
        ("A^R", "pi^R", right, np.einsum("aq,jqb->abj", w1, c), np.einsum("aq,qjb->abj", w1, c)),
    )
    for name, pi, space, m1, m2 in sides:
        alt = Subspace(kernel(np.vstack([w.delta - m1.reshape(n * n, n), w.delta - m2.reshape(n * n, n)]), tol), n, tol)
        if not alt.equals(space, tol.scaled(1e3)):
            raise CrossCheckMismatch(
                f"{name} via {pi} (dim {space.dim}) disagrees with its comultiplication description (dim {alt.dim})"
            )
    return CounitalSubalgebras(left, right, w.algebra.center(tol))


def validate_wba(w: WeakBialgebra, tol: Tolerance | None = None) -> AxiomReport:
    """Full named-residual validation of the weak bialgebra axioms.

    The coalgebra rows are Â's algebra rows against this report's thresholds:
    ``coassociativity``, ``counit-left`` and ``counit-right`` are the
    associativity and unit residuals of ``w.dual_algebra.validate``, so from
    ``CERTIFY_ASSOCIATIVITY_FROM_DIM`` on coassociativity may report the
    certificate of Â's Wedderburn map (the one :func:`solve_antipode` reads).
    The weak counit rows are the weak unit rows of the dual bialgebra, and
    ``comultiplication-multiplicative`` is the covariance row of Â's arrow
    action on A, computed by :func:`~whakit.algebra._covariance_defect` in
    slices once per tolerance and kept in ``w.derived(tol)``, where the arrow
    actions of the dual read it for their own covariance row.
    """
    tol = get_tol(tol)
    rep = w.algebra.validate(tol)
    rep.subject = w.name
    c, d3, eps = w.algebra.c, w.delta3, w.eps
    scale = max(1.0, float(np.linalg.norm(c)), float(np.linalg.norm(d3)))

    dual = {check.name: check.residual for check in w.dual_algebra.validate(tol).checks}
    rep.add("coassociativity", dual["associativity"], tol.bound(scale**2))
    rep.add("counit-left", dual["left-unit"], tol.bound(scale**2))
    rep.add("counit-right", dual["right-unit"], tol.bound(scale**2))

    rep.add("comultiplication-multiplicative", w.derived(tol).multiplicativity, tol.bound(scale**3))

    unit, unit_opposite = _unit_compatibility(c, d3, w.unit)
    rep.add("unit-comultiplication-compatibility", unit, tol.bound(scale**2))
    rep.add("unit-comultiplication-compatibility-opposite", unit_opposite, tol.bound(scale**2))
    counit, counit_opposite = _unit_compatibility(d3, c, eps)
    rep.add("counit-weak-multiplicativity", counit, tol.bound(scale**3))
    rep.add("counit-weak-multiplicativity-opposite", counit_opposite, tol.bound(scale**3))

    if w.algebra.involution is not None:
        _add_star_coalgebra_checks(rep, w, tol)
    return rep


def _multiplicativity_defect(w: WeakBialgebra, tol: Tolerance) -> float:
    """``|Delta(e_i e_j) - Delta(e_i) Delta(e_j)|_F``, the covariance row of Â's arrow action on A
    (:func:`~whakit.algebra._covariance_defect`); kept in ``w.derived(tol)``."""
    c = w.algebra.c
    return _covariance_defect(c, w.delta3.transpose(1, 2, 0), c)


def _left_algebra(w: WeakBialgebra, tol: Tolerance) -> tuple[FinDimAlgebra, np.ndarray]:
    """A^L as an algebra, :func:`~whakit.algebra.induced_algebra` on the orthonormal basis of
    ``counital_subalgebras.left``; kept in ``w.derived(tol)``."""
    return induced_algebra(w.algebra, w.derived(tol).counital_subalgebras.left, tol=tol, name=f"{w.name}^L")


def _unit_compatibility(c, d3, unit) -> tuple[float, float]:
    """Residuals of ``(Delta (x) id) Delta(1) = (Delta(1) (x) 1)(1 (x) Delta(1))`` and of its
    opposite; on (Delta, c, eps) they are ``eps(xyz) = eps(x y_(1)) eps(y_(2) z)`` and its opposite."""
    w1 = d3 @ unit  # Delta(1), left leg = row index
    d2_unit = d3 @ w1  # (Delta (x) id) Delta(1)
    r1 = contract("ai,jc,ijm->amc", w1, w1, c)
    r2 = contract("pq,ij,pjm->imq", w1, w1, c)
    return float(np.linalg.norm(d2_unit - r1)), float(np.linalg.norm(d2_unit - r2))


def _add_star_coalgebra_checks(rep: AxiomReport, w: WeakBialgebra, tol: Tolerance) -> None:
    """The rows tying the involution to the comultiplication and the counit."""
    inv, d3, eps = w.algebra.involution, w.delta3, w.eps
    scale = max(1.0, float(np.linalg.norm(w.algebra.c)), float(np.linalg.norm(d3)))
    lhs_star = np.einsum("abm,mj->abj", d3, inv)
    rhs_star = contract("pqj,ap,bq->abj", np.conj(d3), inv, inv)
    rep.add("comultiplication-star-compatible", np.linalg.norm(lhs_star - rhs_star), tol.bound(scale**2))
    rep.add("counit-star-compatible", np.linalg.norm(eps @ inv - np.conj(eps)), tol.bound(scale))


#: Dimension from which :func:`solve_antipode` tries the block route before the
#: dense one.  Dense route vs. block route including both Wedderburn
#: decompositions, on algebras with cold caches (minimum of 7 runs, 2 vCPUs,
#: numpy 2.4, OpenBLAS): Z_3 (n = 3) 0.7 vs. 3.0 ms; Z_8: 2.1 vs. 4.1 ms;
#: p_3 and C(p_3) (n = 9): 4.8 vs. 3.6-4.5 ms; Z_10: 5.6 vs. 5.2 ms; Z_12:
#: 16 vs. 6.4 ms; M2+M3 (n = 13): 31 vs. 5.6 ms; p_4 (n = 16): 74 vs. 8.6 ms;
#: p_5 (n = 25): 0.64 s vs. 20 ms.  Below 9 the block route gains at most a
#: millisecond, and loses up to four where nothing else uses the decompositions.
#: At n = 9 it wins in every benchmark workload, whose later stages reuse the
#: decompositions: per pass of the rungs with n <= 9 (p_2, S_3, Z_3, p_3,
#: C(p_3); process time, median of 6 alternating runs, 1 BLAS thread),
#: crossprod-ladder 85 vs. 77 ms, file-gate 44 vs. 39 ms, analyze-ladder 129
#: vs. 117 ms with the bound at 10 vs. 9, and level for any bound from 3 to 9.
SOLVE_ANTIPODE_BY_BLOCKS_FROM_DIM = 9


def solve_antipode(w: WeakBialgebra, tol: Tolerance | None = None):
    """The antipode: the weak inverse of ``id`` in the convolution algebra End(A).

    With ``(f * g)(a) = f(a_(1)) g(a_(2))`` and ``pi^L``, ``pi^R`` the counital
    maps, S is the unique solution of the four linear equations
    ``id * S = pi^L``, ``S * id = pi^R``, ``S * pi^L = S`` and
    ``pi^R * S = S`` whenever an antipode exists (the last two are the
    linearization of ``S(a_(1)) a_(2) S(a_(3)) = S(a)``, which stays as a
    post-check).  End(A) is the algebra Â ⊗ A, Â being :attr:`dual_algebra`.

    From :data:`SOLVE_ANTIPODE_BY_BLOCKS_FROM_DIM` on, the equations are solved
    by :func:`_solve_antipode_blocks` in the Wedderburn blocks of Â ⊗ A, in
    O(n^4).  Its solution is kept only when it certifies itself (see there);
    otherwise, and below that dimension, :func:`_solve_antipode_dense` solves
    the stacked (4 n^2, n^2) system in O(n^6) and decides: it raises
    :class:`NoAntipode` when the equations have no solution and
    :class:`NonUniqueAntipode` when they do not determine S.
    """
    tol = get_tol(tol)
    if w.dim >= SOLVE_ANTIPODE_BY_BLOCKS_FROM_DIM:
        s = _solve_antipode_blocks(w, tol)
        if s is not None:
            return s
    return _solve_antipode_dense(w, tol)


def _convolve(w: WeakBialgebra, f, g):
    """Matrix of the convolution ``f * g: a -> f(a_(1)) g(a_(2))``, in O(n^4) and n^3 memory."""
    n = w.dim
    u = (f @ w.delta.reshape(n, n * n)).reshape(n, n, n)  # f(e_p) legs: u[m, q, j]
    v = np.matmul(g, u)  # v[m, r, j] = sum_q g[r, q] u[m, q, j]
    return w.algebra.c.reshape(n * n, n).T @ v.reshape(n * n, n)


def _no_antipode_bound(w: WeakBialgebra) -> float:
    """Largest residual of the four stacked antipode equations that still counts as solved."""
    pi_l, pi_r = w.counital_maps
    target = np.sqrt(float(np.linalg.norm(pi_l)) ** 2 + float(np.linalg.norm(pi_r)) ** 2)
    return 1e-7 * np.sqrt(w.dim) * max(1.0, target)


def _check_consistency(w: WeakBialgebra, s, s_id, tol: Tolerance) -> None:
    """Post-check ``S(a_(1)) a_(2) S(a_(3)) = S(a)``, as ``(S * id) * S``; ``s_id`` is ``S * id``."""
    resid3 = float(np.linalg.norm(_convolve(w, s_id, s) - s))
    if resid3 > tol.bound(float(np.linalg.norm(s)) ** 3) * 1e3:
        raise NoAntipode(f"solved antipode fails its consistency equation (residual {resid3:.3e})")


def _solve_antipode_dense(w: WeakBialgebra, tol: Tolerance):
    """The four antipode equations as one stacked (4 n^2, n^2) system, in O(n^6)."""
    c, d3 = w.algebra.c, w.delta3
    n = w.dim
    pi_l, pi_r = w.counital_maps
    m1 = contract("pqj,pmk->kjmq", d3, c).reshape(n * n, n * n)
    m2 = contract("pqj,mqk->kjmp", d3, c).reshape(n * n, n * n)
    m3 = contract("pqj,rq,mrk->kjmp", d3, pi_l, c).reshape(n * n, n * n)
    m4 = contract("pqj,rp,rmk->kjmq", d3, pi_r, c).reshape(n * n, n * n)
    eye = np.eye(n * n, dtype=complex)
    stacked = np.vstack([m1, m2, m3 - eye, m4 - eye])
    zeros = np.zeros(n * n, dtype=complex)
    target = np.concatenate([pi_l.reshape(n * n), pi_r.reshape(n * n), zeros, zeros])
    vec_s, resid = lstsq(stacked, target, tol)
    if resid > _no_antipode_bound(w):
        raise NoAntipode(f"antipode equations have no solution (residual {resid:.3e})")
    svals = np.linalg.svd(stacked, compute_uv=False)
    scale = float(svals[0]) if svals.size else 1.0
    if svals.size and svals[-1] <= tol.bound(scale) * 10:
        raise NonUniqueAntipode(
            f"antipode equations are degenerate (smallest singular value {svals[-1]:.3e})"
        )
    s = vec_s.reshape(n, n)
    _check_consistency(w, s, _convolve(w, s, np.eye(n)), tol)
    return s


def _adjoint(m):
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _rows_by_size(wedderburn):
    """``(size, rows)`` per block size: the rows of :attr:`WedderburnMap.matrix` that hold those blocks."""
    starts = np.cumsum([0] + [phi.shape[1] ** 2 for phi in wedderburn.phis])
    sizes = [phi.shape[1] for phi in wedderburn.phis]
    return [
        (m, np.concatenate([np.arange(starts[q], starts[q + 1]) for q in range(len(sizes)) if sizes[q] == m]))
        for m in sorted(set(sizes))
    ]


def _solve_antipode_blocks(w: WeakBialgebra, tol: Tolerance):
    """The four antipode equations block by block in the Wedderburn decomposition of Â ⊗ A.

    An element ``f`` of End(A) is ``sum_j ê_j ⊗ f(e_j)``; the Wedderburn maps
    of Â and A (:meth:`~whakit.algebra.FinDimAlgebra.wedderburn_map`) send it
    to the blocks ``M_{n_q} ⊗ M_{m_r}`` in O(n^3), where the convolution
    product is the matrix product.  There the equations read ``I X = L``,
    ``X I = R``, ``X (L - 1) = 0`` and ``(R - 1) X = 0``: left and right
    multiplications, so with ``P = I^H I + (R-1)^H (R-1)`` and
    ``Q = I I^H + (L-1)(L-1)^H`` the least-squares problem of a block is the
    Sylvester equation ``P X + X Q = I^H L + R I^H``, solved through the
    eigendecompositions of P and Q in O(k^3), k = n_q m_r.  The singular values
    of the block operator are ``sqrt(p_i + q_j)``.

    Returns S only when the four equations' residual, recomputed from the
    structure tensors by :func:`_convolve`, passes the dense route's
    ``NoAntipode`` threshold, the consistency post-check passes, and the blocks
    certify that the dense system is nondegenerate: with kappa the product of
    the condition numbers of the two Wedderburn maps, its singular values lie
    in ``[s_min / kappa, kappa s_max]`` of the block ones.  Returns None when
    that cannot be shown or an algebra does not decompose, so that the dense
    route decides.
    """
    try:
        maps = (w.dual_algebra.wedderburn_map(tol), w.algebra.wedderburn_map(tol))
    except _NO_DECOMPOSITION:
        return None
    n = w.dim
    pi_l, pi_r = w.counital_maps
    (ud, sd, vhd), (ua, sa, vha) = (m.svd for m in maps)
    if sd[-1] == 0.0 or sa[-1] == 0.0:
        return None
    phi_d, phi_a = (m.matrix for m in maps)
    # f -> phi_d f^T phi_a^T, whose (q, r) block is the row-major image in M_{n_q} ⊗ M_{m_r}
    images = [phi_d @ f.T @ phi_a.T for f in (np.eye(n), pi_l, pi_r)]
    out = np.zeros((n, n), dtype=complex)
    s_min2, s_max2 = np.inf, 0.0
    # the blocks of equal shape are solved as one stack
    for (nq, rows), (mr, cols) in itertools.product(_rows_by_size(maps[0]), _rows_by_size(maps[1])):
        k, shape = nq * mr, (len(rows) // (nq * nq), nq, nq, len(cols) // (mr * mr), mr, mr)
        cut = np.ix_(rows, cols)
        i_, l_, r_ = (m[cut].reshape(shape).transpose(0, 3, 1, 4, 2, 5).reshape(-1, k, k) for m in images)
        one = np.eye(k)
        i_h = _adjoint(i_)
        p_vals, p_vecs = np.linalg.eigh(i_h @ i_ + _adjoint(r_ - one) @ (r_ - one))
        q_vals, q_vecs = np.linalg.eigh(i_ @ i_h + (l_ - one) @ _adjoint(l_ - one))
        denom = p_vals[:, :, None] + q_vals[:, None, :]
        s_min2, s_max2 = min(s_min2, float(denom.min())), max(s_max2, float(denom.max()))
        if s_min2 <= 0.0:
            return None
        x = p_vecs @ ((_adjoint(p_vecs) @ (i_h @ l_ + r_ @ i_h) @ q_vecs) / denom) @ _adjoint(q_vecs)
        back = x.reshape(shape[0], shape[3], nq, mr, nq, mr).transpose(0, 2, 4, 1, 3, 5)
        out[cut] = back.reshape(len(rows), len(cols))
    kappa = float(sd[0] / sd[-1] * sa[0] / sa[-1])
    if not np.sqrt(s_min2) / kappa > tol.bound(kappa * np.sqrt(s_max2)) * 10:
        return None
    # S^T = phi_d^-1 out phi_a^-T, through the two SVDs
    s_t = vhd.conj().T @ ((ud.conj().T @ out @ ua.conj()) / np.outer(sd, sa)) @ vha.conj()
    s = s_t.T
    eye = np.eye(n)
    s_id = _convolve(w, s, eye)
    resid = np.sqrt(
        float(np.linalg.norm(_convolve(w, eye, s) - pi_l)) ** 2
        + float(np.linalg.norm(s_id - pi_r)) ** 2
        + float(np.linalg.norm(_convolve(w, s, pi_l) - s)) ** 2
        + float(np.linalg.norm(_convolve(w, pi_r, s) - s)) ** 2
    )
    if not resid <= _no_antipode_bound(w):
        return None
    try:
        _check_consistency(w, s, s_id, tol)
    except NoAntipode:
        return None
    return s


def antipode_report(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> AxiomReport:
    """Residuals of the derived antipode laws (antimultiplicativity, S(A^L)=A^R)."""
    tol = get_tol(tol)
    rep = AxiomReport(f"{w.name} antipode")
    c, s = w.algebra.c, w.antipode
    scale = max(1.0, float(np.linalg.norm(c)) * float(np.linalg.norm(s)))
    rep.add("antipode-antimultiplicative", _antimultiplicative_norm(c, s, antilinear=False), tol.bound(scale**2))
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

    Stage 1 is the rows of :func:`validate_wba`, computed once per algebra and
    tolerance (``from_wba`` keeps the report it checked).  Only when all pass,
    stage 2 compares the stored antipode with the solved one, adds the rows of
    :func:`antipode_report` and, for a star algebra, ``antipode-star-compatible``.
    A stage-2 computation that raises becomes one failed row named after the
    stage and the error (residual inf, threshold 0); the other stages still run.
    """
    tol = get_tol(tol)
    stage1 = w.derived(tol).wba_report
    rep = AxiomReport(stage1.subject, list(stage1.checks))
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


def dual_wha(w: WeakHopfAlgebra) -> WeakHopfAlgebra:
    """The dual weak Hopf algebra on the dual basis, built from views of A's arrays.

    Â's structure constants are A's comultiplication tensor and its
    comultiplication is A's structure constants, both shared with A, not
    copied; the unit is the counit covector and the counit the unit; the
    antipode is the transpose; the involution (when the primal carries one)
    is ``<phi*, a> = conj <phi, S(a)*>``, from :attr:`WeakHopfAlgebra.star_antipode`.
    """
    n = w.dim
    inv_dual = None if w.algebra.involution is None else np.conj(w.star_antipode).T
    labels = [f"{lbl}^" for lbl in w.algebra.basis_labels]
    alg = FinDimAlgebra(w.delta3, unit=w.eps, involution=inv_dual, basis_labels=labels, name=f"{w.name}^")
    return WeakHopfAlgebra(alg, w.algebra.c.reshape(n * n, n), eps=w.unit, antipode=w.antipode.T)


@dataclass
class SweedlerArrows:
    """The four canonical arrow actions between A and its dual.

    Each is a transposed multiplication: R and L of A act on Â, and R̂ and L̂
    of Â (:attr:`WeakBialgebra.dual_algebra`, whose product is A's
    comultiplication) act on A.
    """

    wha: WeakHopfAlgebra

    def act(self, a, phi):
        """a ⇀ phi = phi_(1) <phi_(2), a> = R(a)^T phi  (left action of A on the dual)."""
        return self.wha.algebra.right_mult(a).T @ np.asarray(phi, dtype=complex).ravel()

    def ract(self, phi, a):
        """phi ↼ a = <phi_(1), a> phi_(2) = L(a)^T phi  (right action of A on the dual)."""
        return self.wha.algebra.left_mult(a).T @ np.asarray(phi, dtype=complex).ravel()

    def dact(self, phi, x):
        """phi ⇀ x = x_(1) <phi, x_(2)> = R̂(phi)^T x  (left action of the dual on A)."""
        return self.wha.dual_algebra.right_mult(phi).T @ np.asarray(x, dtype=complex).ravel()

    def rdact(self, x, phi):
        """x ↼ phi = <phi, x_(1)> x_(2) = L̂(phi)^T x  (right action of the dual on A)."""
        return self.wha.dual_algebra.left_mult(phi).T @ np.asarray(x, dtype=complex).ravel()


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
    k = w.star_antipode  # S(a)* = K conj(a), so S(S(a)*)* = K conj(K) a
    comp = k @ np.conj(k)
    rep.add("antipode-star-compatible", np.linalg.norm(comp - np.eye(w.dim)), tol.bound(float(np.linalg.norm(w.antipode)) ** 2))


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
    basis_l, alg = sub.left.basis, w.algebra
    xs = alg._left_stack(basis_l) @ s_lefts  # xs[j, :, i] = x_j S(u_i) over the basis x_j of A^L
    # separability idempotent: m(delta(x)) = sum_i x S(u_i) w_i = x on A^L
    sep = np.einsum("iba,jai->bj", alg._right_stack(rights), xs)
    worst_sep = float(np.max(np.linalg.norm(sep - basis_l, axis=0)))
    rep.add("separability-idempotent", worst_sep, tol.bound(float(np.linalg.norm(w1)) ** 2) * 100)
    # Frobenius compatibility: sum_i x S(u_i) (x) w_i y = sum_i (xy) S(u_i) (x) w_i on A^L
    wy = alg._left_stack(rights) @ basis_l  # wy[i, :, k] = w_i y_k
    xys = np.matmul(alg._right_stack(s_lefts)[:, None], alg._left_stack(basis_l) @ basis_l)  # (x_j y_k) S(u_i)
    frob = np.einsum("jai,ibk->jkab", xs, wy) - np.einsum("ijak,bi->jkab", xys, rights)
    worst_frob = float(np.max(np.linalg.norm(frob, axis=(2, 3))))
    rep.add("frobenius-compatibility", worst_frob, tol.bound(float(np.linalg.norm(w1)) ** 2) * 100)
    rep.raise_if_failed()
    return SeparabilityStructure(left_legs=lefts, right_legs=rights, report=rep)


def hypercentral_components(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> list[WeakHopfAlgebra]:
    """Split a decomposable weak Hopf algebra along its hypercenter.

    Each minimal idempotent ``z`` of Z^L ∩ Z^R cuts out a weak Hopf algebra
    on ``z A`` with unit ``z``; the restriction is validated before return.
    """
    tol = get_tol(tol)
    sub = w.derived(tol).counital_subalgebras
    hyper = sub.hypercenter
    if hyper.dim == 1:
        return [w]
    idems = _minimal_central_idempotents(w.algebra, hyper, tol)
    out = []
    for z in idems:
        image = Subspace(w.algebra.left_mult(z), w.dim, tol)
        alg_z, q = induced_algebra(w.algebra, image, unit_vec=z, tol=tol, name=f"{w.name}|component")
        resid = float(np.linalg.norm(w.antipode @ z - z))
        bound = 1e-6 * max(1.0, float(np.linalg.norm(z)))
        if resid > bound:
            raise ValidationError("component-antipode-stability", resid, bound)
        qq = np.kron(q, q)
        delta_z = qq.conj().T @ w.delta @ q
        resid = float(np.linalg.norm(qq @ delta_z - w.delta @ q))
        bound = 1e-6 * max(1.0, float(np.linalg.norm(w.delta)))
        if resid > bound:
            raise ValidationError("component-comultiplication-stability", resid, bound)
        eps_z = w.eps @ q
        s_q = w.antipode @ q
        s_z = q.conj().T @ s_q
        resid = float(np.linalg.norm(q @ s_z - s_q))
        if resid > 1e-6:
            raise ValidationError("component-antipode-closure", resid, 1e-6)
        comp = WeakHopfAlgebra(alg_z, delta_z, eps_z, s_z)
        validate_wba(comp, tol).raise_if_failed()
        out.append(comp)
    return out
