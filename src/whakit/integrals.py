"""Integrals, Haar elements, and the canonical positive grouplike element.

A left integral satisfies ``a l = pi^L(a) l``; the Haar integral is the
(unique, when it exists) two-sided integral normalized on both sides.  Its
dual twin induces conditional expectations E^L, E^R onto the counital
subalgebras, and — through the GNS representation of the Haar state — the
canonical positive square roots whose ratio implements the antipode squared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GnsRep, gns_rep
from .config import Tolerance, get_tol, rng
from .errors import (
    CrossCheckMismatch,
    InconsistentCriterion,
    InconsistentMaschke,
    NotIdempotent,
    NotPositive,
    NotPositiveDefinite,
    RankDeficient,
)
from .linalg import Subspace, hermitian_sqrt, kernel, lstsq
from .report import AxiomReport
from .wha import SweedlerArrows, WeakHopfAlgebra, is_weak_kac

__all__ = [
    "integral_spaces",
    "normalized_left_integral",
    "haar_integral",
    "haar_functional",
    "maschke_check",
    "haar_criterion",
    "haar_expectations",
    "haar_state",
    "CanonicalGrouplikes",
    "canonical_grouplike",
]


def integral_spaces(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> tuple[Subspace, Subspace]:
    """(left, right) integral subspaces: ``a l = pi^L(a) l`` resp. ``r a = r pi^R(a)``."""
    tol = get_tol(tol)
    n = w.dim
    pi_l, pi_r = w.counital_maps
    eye = np.eye(n)
    # row block j is L(e_j - pi^L(e_j)), resp. R(e_j - pi^R(e_j))
    rows_l = w.algebra._left_stack(eye - pi_l).reshape(n * n, n)
    rows_r = w.algebra._right_stack(eye - pi_r).reshape(n * n, n)
    left = Subspace(kernel(rows_l, tol), n, tol)
    right = Subspace(kernel(rows_r, tol), n, tol)
    return left, right


def _solve_normalized(w, space: Subspace, maps, tol: Tolerance):
    """Element of ``space`` with ``m(x) = 1`` for every matrix in ``maps``, or None."""
    if space.dim == 0:
        return None
    q = space.basis
    a = np.vstack([m @ q for m in maps])
    b = np.concatenate([w.unit for _ in maps])
    t, resid = lstsq(a, b, tol)
    if resid > 1e-8 * max(1.0, float(np.linalg.norm(b))):
        return None
    return q @ t


def normalized_left_integral(w: WeakHopfAlgebra, tol: Tolerance | None = None):
    """A left integral with ``pi^L(l) = 1``, or None if there is none."""
    tol = get_tol(tol)
    left, _ = w.derived(tol).integral_spaces
    pi_l, _ = w.counital_maps
    return _solve_normalized(w, left, [pi_l], tol)


def haar_integral(w: WeakHopfAlgebra, tol: Tolerance | None = None):
    """The Haar integral: two-sided, normalized on both sides; None if absent.

    When found, idempotency, antipode-invariance and (if applicable)
    self-adjointness are verified; failures raise since they contradict
    uniqueness of the normalized two-sided integral.
    """
    tol = get_tol(tol)
    left, right = w.derived(tol).integral_spaces
    inter = left.intersection(right)
    pi_l, pi_r = w.counital_maps
    h = _solve_normalized(w, inter, [pi_l, pi_r], tol)
    if h is None:
        return None
    scale = max(1.0, float(np.linalg.norm(h)))
    idem = float(np.linalg.norm(w.mul(h, h) - h))
    if idem > 1e-7 * scale**2:
        raise NotIdempotent(f"normalized two-sided integral is not idempotent (residual {idem:.3e})")
    s_resid = float(np.linalg.norm(w.s(h) - h))
    if s_resid > 1e-7 * scale:
        raise CrossCheckMismatch(f"Haar integral is not antipode-invariant (residual {s_resid:.3e})")
    if w.algebra.involution is not None:
        star_resid = float(np.linalg.norm(w.algebra.star(h) - h))
        if star_resid > 1e-7 * scale:
            raise CrossCheckMismatch(f"Haar integral is not self-adjoint (residual {star_resid:.3e})")
    return h


def haar_functional(w: WeakHopfAlgebra, tol: Tolerance | None = None):
    """The Haar integral of the dual, as a covector on A; None if absent (cached per tolerance)."""
    return w.derived(tol).haar_functional


def maschke_check(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> bool:
    """Semisimplicity, cross-checked against existence of a normalized left integral."""
    tol = get_tol(tol)
    semisimple = w.algebra.is_semisimple(tol)
    has_integral = normalized_left_integral(w, tol) is not None
    if semisimple != has_integral:
        raise InconsistentMaschke(
            f"semisimple={semisimple} but normalized left integral exists={has_integral}"
        )
    return semisimple


def haar_criterion(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> bool:
    """Existence of the Haar integral via the structural criterion.

    The criterion: the algebra is semisimple and some invertible ``g`` with
    ``g x g^-1 = S^2(x)`` has nonvanishing block traces ``tr_q(g^-1)``.  The
    result is cross-checked against directly solving for the Haar integral.
    """
    tol = get_tol(tol)
    direct = w.derived(tol).haar is not None
    predicted = False
    if w.algebra.is_semisimple(tol):
        n = w.dim
        s2 = w.antipode @ w.antipode
        # row block j is R(e_j) - L(S^2(e_j)): g e_j = S^2(e_j) g
        rows = w.algebra._right_stack(np.eye(n)) - w.algebra._left_stack(s2)
        space = kernel(rows.reshape(n * n, n), tol)
        if space.shape[1]:
            blocks = w.algebra.block_decomposition(tol)
            for attempt in range(8):
                t = rng(attempt).standard_normal(space.shape[1]) + 1j * rng(
                    100 + attempt
                ).standard_normal(space.shape[1])
                g = space @ t
                try:
                    g_inv = w.algebra.inverse(g, tol)
                except RankDeficient:
                    continue
                traces = [w.algebra.block_trace(b, g_inv) for b in blocks]
                cut = 1e-8 * max(1.0, float(np.linalg.norm(g_inv)))
                predicted = all(abs(t_q) > cut for t_q in traces)
                break
    if predicted != direct:
        raise InconsistentCriterion(
            f"criterion predicts Haar existence={predicted}, direct solve says {direct}"
        )
    return direct


def haar_expectations(w: WeakHopfAlgebra, tol: Tolerance | None = None):
    """Matrices of the Haar conditional expectations (E^L, E^R), or None.

    ``E^L(x) = x_(1) <h^, x_(2)>`` projects onto A^L; ``E^R(x) = <h^, x_(1)> x_(2)``
    onto A^R, where ``h^`` is the dual Haar integral.  Module-map, idempotency
    and range identities are verified before returning.
    """
    tol = get_tol(tol)
    hd = w.derived(tol).haar_functional
    if hd is None:
        return None
    e_l, e_r = w.dual_algebra.right_mult(hd).T, w.dual_algebra.left_mult(hd).T
    sub = w.derived(tol).counital_subalgebras
    rep = AxiomReport(f"{w.name} Haar expectations")
    for name, mat, target in (("E^L", e_l, sub.left), ("E^R", e_r, sub.right)):
        scale = max(1.0, float(np.linalg.norm(mat)))
        rep.add(f"{name}-idempotent", np.linalg.norm(mat @ mat - mat), 1e-8 * scale**2)
        rep.add(f"{name}-unital", np.linalg.norm(mat @ w.unit - w.unit), 1e-8 * scale)
        ran = Subspace(mat, w.dim, tol)
        rep.add(f"{name}-range", 0.0 if ran.equals(target, tol.scaled(100)) else 1.0, 0.5)
        rep.add(f"{name}-state-preserving", np.linalg.norm(hd @ mat - hd), 1e-8 * scale)
    rep.raise_if_failed()
    return e_l, e_r


def haar_state(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> GnsRep | None:
    """GNS data of the Haar functional (None when there is no dual Haar)."""
    tol = get_tol(tol)
    hd = w.derived(tol).haar_functional
    if hd is None:
        return None
    return gns_rep(w.algebra, hd, tol)


@dataclass
class CanonicalGrouplikes:
    """Positive square roots g_l, g_r and the grouplike ratio g = g_l g_r^-1."""

    g_left: np.ndarray
    g_right: np.ndarray
    g: np.ndarray
    g_half: np.ndarray  # positive square root of g
    g_half_inv: np.ndarray
    gns: GnsRep
    report: AxiomReport


def canonical_grouplike(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> CanonicalGrouplikes | None:
    """The canonical positive implementation of S^2 from the Haar pair.

    ``g_l = (h^ -> h)^(1/2)`` and ``g_r = (h <- h^)^(1/2)`` are positive square
    roots computed by functional calculus in the (faithful) GNS representation
    of the Haar state; ``g = g_l g_r^-1`` satisfies ``g x g^-1 = S^2(x)``, is
    positive and invertible, and has matching block traces for g and g^-1.
    Returns None when the Haar integral (either side) does not exist.
    """
    tol = get_tol(tol)
    h, hd = w.derived(tol).haar, w.derived(tol).haar_functional
    if h is None or hd is None:
        return None
    gns = w.derived(tol).haar_state
    if not gns.faithful:
        raise NotPositiveDefinite("Haar state is not faithful; canonical square roots unavailable")
    arrows = SweedlerArrows(w)
    u_left = arrows.dact(hd, h)
    u_right = arrows.rdact(h, hd)
    rep = AxiomReport(f"{w.name} canonical grouplike")
    out = []
    for name, u in (("g_left", u_left), ("g_right", u_right)):
        op = gns.rep(u)
        herm = float(np.linalg.norm(op - op.conj().T))
        scale = max(1.0, float(np.linalg.norm(op)))
        if herm > 1e-8 * scale:
            raise NotPositive(f"{name}^2 is not self-adjoint in the Haar representation ({herm:.3e})")
        root = hermitian_sqrt((op + op.conj().T) / 2, tol)
        g_half = gns.element_from_operator(root)
        rep.add(f"{name}-squares-back", np.linalg.norm(w.mul(g_half, g_half) - u), 1e-7 * scale)
        out.append(g_half)
    g_l, g_r = out
    comm = float(np.linalg.norm(w.mul(g_l, g_r) - w.mul(g_r, g_l)))
    rep.add("square-roots-commute", comm, 1e-7 * max(1.0, float(np.linalg.norm(g_l) * np.linalg.norm(g_r))))
    g = w.mul(g_l, w.algebra.inverse(g_r, tol))
    g_inv = w.algebra.inverse(g, tol)
    s2 = w.antipode @ w.antipode
    conj = w.algebra.right_mult(g_inv) @ w.algebra.left_mult(g)  # column j is g e_j g^-1
    worst = float(np.max(np.linalg.norm(conj - s2, axis=0)))
    rep.add("implements-antipode-squared", worst, 1e-6 * max(1.0, float(np.linalg.norm(s2))))
    op_g = gns.rep(g)
    rep.add("grouplike-self-adjoint", np.linalg.norm(op_g - op_g.conj().T), 1e-7 * max(1.0, float(np.linalg.norm(op_g))))
    eigs = np.linalg.eigvalsh((op_g + op_g.conj().T) / 2)
    rep.add("grouplike-positive", 0.0 if float(eigs[0]) > 0 else 1.0, 0.5)
    worst_tr = 0.0
    for b in w.algebra.block_decomposition(tol):
        worst_tr = max(worst_tr, abs(w.algebra.block_trace(b, g) - w.algebra.block_trace(b, g_inv)))
    rep.add("block-traces-balanced", worst_tr, 1e-6 * max(1.0, float(np.linalg.norm(g))))
    # modular identity: omega(ab) = omega(b t a t^-1) with t = g_l g_r
    t_el = w.mul(g_l, g_r)
    t_inv = w.algebra.inverse(t_el, tol)
    f1 = np.einsum("ijk,k->ij", w.algebra.c, hd)
    rhs = (f1 @ w.algebra.right_mult(t_inv) @ w.algebra.left_mult(t_el)).T  # row i is f1 (t e_i t^-1)
    rep.add("modular-identity", np.linalg.norm(f1 - rhs), 1e-6 * max(1.0, float(np.linalg.norm(f1))))
    kac = is_weak_kac(w, tol)
    g_trivial = float(np.linalg.norm(g - w.unit)) <= 1e-7 * max(1.0, float(np.linalg.norm(g)))
    if kac != g_trivial:
        raise CrossCheckMismatch(f"S^2=id is {kac} but the canonical grouplike is trivial={g_trivial}")
    g_half = gns.element_from_operator(hermitian_sqrt((op_g + op_g.conj().T) / 2, tol))
    g_half_inv = w.algebra.inverse(g_half, tol)
    rep.add("grouplike-root-squares-back", np.linalg.norm(w.mul(g_half, g_half) - g), 1e-7 * max(1.0, float(np.linalg.norm(g))))
    rep.raise_if_failed()
    return CanonicalGrouplikes(
        g_left=g_l, g_right=g_r, g=g, g_half=g_half, g_half_inv=g_half_inv, gns=gns, report=rep
    )
