"""Representation category machinery and sector data.

Representations are stored as arrays of matrices over the algebra basis.  The
monoidal product compresses ``(D1 (x) D2) o Delta`` to the range of the
idempotent ``(D1 (x) D2)(Delta(1))``; the counit's GNS representation is the
monoidal unit; conjugates arise from the antipode.  Because Delta is
coassociative, iterated products are subspaces of the flat tensor product
H1 (x) H2 (x) H3 that do not depend on the bracketing, so the zigzag
composites of the conjugate equations are formed there, with no associator.
Sectors (irreducible blocks) carry intrinsic dimensions d_q obtained two
independent ways — the grouplike trace formula and zigzag-normalized standard
solutions of the conjugate equations — and assemble into vacuum-indexed
dimension matrices whose Perron eigenvalue is the Markov index.

The standard solutions are solved by size class: the sectors of one n_q are
stacked along a leading axis, and their conjugates, truncated products,
Hom(D_eps, .) systems, unitors and zigzags are formed by stacked contractions
and one batched kernel, every check kept per sector.  The one-sector route
through :func:`monoidal_product` and :func:`intertwiner_space` is the
reference the tests hold the batch to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    BlockDecomposition,
    GnsRep,
    _minimal_central_idempotents,
    _support_key,
    gns_rep,
    induced_algebra,
    markov_trace,
)
from .config import Tolerance, get_tol, round_to_int
from .errors import (
    CrossCheckMismatch,
    FactorizationResidualTooLarge,
    NonScalarIndex,
    NotConnected,
    NotProportionalToMinimal,
    NotSemisimple,
    VacuumAssignmentFailed,
    ValidationError,
    ZeroIntertwiner,
)
from .integrals import CanonicalGrouplikes
from .linalg import Subspace, kernel, kernel_stack, kron_sum, matrix_rank, orth, orth_stack, perron_frobenius
from .report import AxiomReport
from .wha import WeakHopfAlgebra

__all__ = [
    "Representation",
    "regular_representation",
    "gns_counit_rep",
    "intertwiner_space",
    "monoidal_product",
    "conjugate_rep",
    "VacuumData",
    "vacua",
    "block_multiplicities",
    "StandardSolution",
    "standard_solutions",
    "Sector",
    "SectorTable",
    "sector_dimensions",
    "dimension_factorization",
    "markov_index",
    "irreducible_representations",
]


@dataclass
class Representation:
    """An algebra representation ``e_j -> matrices[j]`` on a Hilbert carrier."""

    wha: WeakHopfAlgebra
    matrices: np.ndarray  # (n, d, d)
    name: str = ""
    isometry: np.ndarray | None = None  # for monoidal products: carrier -> H1 (x) H2
    gns: GnsRep | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def apply(self, a):
        return np.einsum("j,jab->ab", np.asarray(a, dtype=complex).ravel(), self.matrices)

    def validate(self, tol: Tolerance | None = None) -> AxiomReport:
        return _representation_reports(self.wha, self.matrices[None], [self.name or "representation"], get_tol(tol))[0]

    def direct_sum(self, other: "Representation") -> "Representation":
        n = self.wha.dim
        d1, d2 = self.dim, other.dim
        mats = np.zeros((n, d1 + d2, d1 + d2), dtype=complex)
        mats[:, :d1, :d1] = self.matrices
        mats[:, d1:, d1:] = other.matrices
        return Representation(self.wha, mats, name=f"{self.name}(+){other.name}")


def _at_unit(w, images) -> np.ndarray:
    """``sum_j 1_j images[:, j]`` for a stack of representations (m, n, k, k): the images of 1."""
    m, n, k = images.shape[:3]
    return (w.unit @ images.reshape(m, n, k * k)).reshape(m, k, k)


def _representation_reports(w, mats, names, tol: Tolerance) -> list[AxiomReport]:
    """The multiplicativity and unitality rows of each representation in the (m, n, k, k) stack ``mats``."""
    eye = np.eye(mats.shape[-1])
    scales = np.maximum(1.0, np.linalg.norm(mats.reshape(len(mats), -1), axis=1))
    defects = w.algebra.homomorphism_defect(mats.swapaxes(0, 1))
    unital = np.linalg.norm(_at_unit(w, mats) - eye, axis=(1, 2))
    out = []
    for name, scale, defect, off in zip(names, scales, defects, unital):
        report = AxiomReport(name)
        report.add("representation-multiplicative", defect, tol.representation_residual(scale**2))
        report.add("representation-unital", off, tol.representation_residual(scale))
        out.append(report)
    return out


def regular_representation(w: WeakHopfAlgebra) -> Representation:
    """Left multiplication on the algebra itself."""
    return Representation(w, w.algebra.c.transpose(0, 2, 1).copy(), name="regular")


def gns_counit_rep(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> Representation:
    """GNS representation of the counit: the monoidal unit D_eps.

    The carrier dimension equals dim A^L (cross-checked).
    """
    tol = get_tol(tol)
    g = gns_rep(w.algebra, w.eps, tol)
    n = w.dim
    mats = np.stack([g.rep(w.algebra.basis_vector(j)) for j in range(n)])
    rep = Representation(w, mats, name="D_eps", gns=g)
    al_dim = w.derived(tol).counital_subalgebras.left.dim
    if rep.dim != al_dim:
        raise CrossCheckMismatch(
            f"counit GNS carrier has dimension {rep.dim} but dim A^L = {al_dim}"
        )
    return rep


def intertwiner_space(
    w: WeakHopfAlgebra, d1: Representation, d2: Representation, tol: Tolerance | None = None
) -> list[np.ndarray]:
    """Basis of { T : H1 -> H2 with T D1(a) = D2(a) T }."""
    tol = get_tol(tol)
    a, b = d1.dim, d2.dim
    if a == 0 or b == 0:
        return []
    rows = kron_sum(d2.matrices, d1.matrices.transpose(0, 2, 1))
    basis = kernel(rows.reshape(-1, a * b), tol)
    return [basis[:, k].reshape(b, a) for k in range(basis.shape[1])]


def monoidal_product(
    w: WeakHopfAlgebra, d1: Representation, d2: Representation, tol: Tolerance | None = None
) -> Representation:
    """Truncated tensor product: compress (D1 (x) D2) o Delta to ran (D1 (x) D2)(Delta(1)).

    The compression is multiplicative and unital because ``Delta(1)`` absorbs
    ``Delta(a)`` on both sides; the carrier may be zero-dimensional.  The
    returned ``isometry`` embeds the carrier in H1 (x) H2.  Pushed through
    these isometries, both bracketings of a triple product have the same range
    in H1 (x) H2 (x) H3, the image of ``(Delta (x) id)Delta(1) = (id (x)
    Delta)Delta(1)``: the product is strictly associative as a subspace.
    """
    tol = get_tol(tol)
    n = w.dim
    da, db = d1.dim, d2.dim
    # (D1 (x) D2)(Delta(e_j)) from two pairwise contractions, indexed (j, a, c, b, d)
    t = np.tensordot(np.tensordot(w.delta3, d1.matrices, axes=(0, 0)), d2.matrices, axes=(0, 0))
    t = t.transpose(0, 1, 3, 2, 4).reshape(n, da * db, da * db)
    p = np.tensordot(w.unit, t, axes=1)
    v = orth(p, tol)
    mats = v.conj().T @ t @ v
    return Representation(w, mats, name=f"{d1.name}(x){d2.name}", isometry=v)


def conjugate_rep(w: WeakHopfAlgebra, d: Representation, tol: Tolerance | None = None) -> Representation:
    """Conjugate representation ``a -> conj(D(S(a)*))`` on the conjugate carrier."""
    name = f"conj({d.name})"
    return Representation(w, _conjugates(w, w.star_antipode, d.matrices[None], [name], get_tol(tol))[0], name=name)


def _twisted_conjugation(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> np.ndarray:
    """The (n, n) matrix L(g^(1/2)) R(g^(-1/2)) K, column j ``g^(1/2) S(e_j)* g^(-1/2)``.

    Through it every sector's conjugate is read: twisting by g^(1/2) keeps a
    *-representation a *-representation.  Kept in ``w.derived(tol).conjugation``.
    """
    cg = w.derived(tol).grouplike
    if cg is None:
        raise NotSemisimple(f"{w.name}: the twisted conjugation needs the canonical grouplike")
    alg = w.algebra
    return alg.left_mult(cg.g_half) @ alg.right_mult(cg.g_half_inv) @ w.star_antipode


def _conjugates(w, twisted, mats, names, tol: Tolerance) -> np.ndarray:
    """The stack of ``a -> conj(D(t(a)))`` for the representations D of the (m, n, k, k) stack
    ``mats``, t the antilinear map whose column j is ``twisted[:, j]``; each is checked as
    :meth:`Representation.validate` checks one, a failure raising ValidationError that names it."""
    m, n, k = mats.shape[:3]
    out = np.conj(twisted.T @ mats.reshape(m, n, k * k)).reshape(m, n, k, k)
    for report in _representation_reports(w, out, names, tol):
        try:
            report.raise_if_failed()
        except ValidationError as exc:
            raise ValidationError(f"{exc.axiom} of {report.subject}", exc.residual, exc.threshold) from None
    return out


def irreducible_representations(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> list[Representation]:
    """One unitary irreducible representation per Wedderburn block, in block order.

    Carriers are the left ideals ``A p`` (p a minimal idempotent) of
    :meth:`~whakit.algebra.FinDimAlgebra.wedderburn_map`, orthonormalized in
    the inner product G of a faithful Haar state: with ``K = V_q^H G V_q = U
    Lambda U^H`` and ``W = U Lambda^{-1/2}``, ``L(x) V_q = V_q phi_q(x)`` gives
    ``rho_q(x) = W^H K phi_q(x) W = W^-1 phi_q(x) W`` on the carrier ``V_q W``.
    """
    tol = get_tol(tol)
    state = w.derived(tol).haar_state
    if state is None:
        raise NotSemisimple(f"{w.name}: irreducible carriers need a Haar state")
    if not state.faithful:
        raise NotSemisimple(f"{w.name}: Haar state is not faithful")
    gram = state.gram
    out = []
    wedderburn = w.algebra.wedderburn_map(tol)
    for b, ideal, phi in zip(wedderburn.blocks, wedderburn.ideals, wedderburn.phis):  # columns span A p
        k = ideal.conj().T @ gram @ ideal
        vals, vecs = np.linalg.eigh((k + k.conj().T) / 2)
        root = np.sqrt(vals)
        mats = (vecs * root).conj().T @ phi @ (vecs / root)
        out.append(Representation(w, mats, name=f"irrep[{b.size}]"))
    return out


@dataclass
class VacuumData:
    """Minimal projections of Z^L with counit weights, and the unit rep D_eps."""

    projections: list[np.ndarray]
    weights: np.ndarray
    counit_rep: Representation
    rep_projections: list[np.ndarray]

    @property
    def count(self) -> int:
        return len(self.projections)


def vacua(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> VacuumData:
    """Vacuum data: minimal projections z^L_mu of Z^L, weights k(mu) = eps(z_mu),
    and their images in the counit GNS representation, which must be nonzero
    orthogonal projections summing to the identity."""
    tol = get_tol(tol)
    sub = w.derived(tol).counital_subalgebras
    idems = _minimal_central_idempotents(w.algebra, sub.center_left, tol)
    idems.sort(key=lambda z: _support_key(z, tol))
    d_eps = gns_counit_rep(w, tol)
    weights = []
    rep_projections = []
    total = np.zeros((d_eps.dim, d_eps.dim), dtype=complex)
    for z in idems:
        k_mu = w.counit(z)
        if abs(k_mu.imag) > 1e-9 * max(1.0, abs(k_mu)) or k_mu.real <= 0:
            raise VacuumAssignmentFailed(f"vacuum weight eps(z) = {k_mu} is not positive")
        weights.append(k_mu.real)
        p = d_eps.apply(z)
        herm = float(np.linalg.norm(p - p.conj().T))
        idem = float(np.linalg.norm(p @ p - p))
        if herm > 1e-8 or idem > 1e-8:
            raise VacuumAssignmentFailed(
                f"vacuum image is not an orthogonal projection (residuals {herm:.2e}, {idem:.2e})"
            )
        if float(np.linalg.norm(p)) <= 1e-9:
            raise VacuumAssignmentFailed("a minimal projection of Z^L vanishes in D_eps")
        rep_projections.append(p)
        total += p
    if float(np.linalg.norm(total - np.eye(d_eps.dim))) > 1e-8:
        raise VacuumAssignmentFailed("vacuum projections do not sum to the identity on D_eps")
    end_dim = len(intertwiner_space(w, d_eps, d_eps, tol))
    if end_dim != len(idems):
        raise CrossCheckMismatch(
            f"End(D_eps) has dimension {end_dim} but Z^L has {len(idems)} minimal projections"
        )
    return VacuumData(
        projections=idems,
        weights=np.array(weights),
        counit_rep=d_eps,
        rep_projections=rep_projections,
    )


def block_multiplicities(w: WeakHopfAlgebra, rep: Representation, tol: Tolerance | None = None) -> np.ndarray:
    """Integers N_q(D) = rank(D(z_q)) / n_q for each block q."""
    out = []
    for b in w.algebra.block_decomposition(tol):
        if rep.dim == 0:
            out.append(0)
            continue
        r = matrix_rank(rep.apply(b.central_idempotent), tol)
        out.append(round_to_int(r / b.size, f"multiplicity of block size {b.size}"))
    return np.array(out, dtype=int)


# ---------------------------------------------------------------------------
# standard solutions of the conjugate equations


def _delta_images(w, first, second) -> np.ndarray:
    """``(D1 (x) D2)(Delta(e_j))`` at [..., j] for stacks of representations ``first`` (..., n, f, f)
    and ``second`` (..., n, s, s), either of which may be one (n, ., .) representation shared by
    the stack: shape (..., n, f s, f s) in row-major Kronecker order, two GEMMs."""
    n, f, s = w.dim, first.shape[-1], second.shape[-1]
    x = w.delta3.reshape(n, n * n).T @ first.reshape(*first.shape[:-3], n, f * f)  # [..., (q, j), (a, b)]
    x = x.reshape(*x.shape[:-2], n, n * f * f).swapaxes(-1, -2)  # [..., (j, a, b), q]
    t = x @ second.reshape(*second.shape[:-3], n, s * s)  # [..., (j, a, b), (c, d)]
    lead = t.shape[:-2]
    return t.reshape(*lead, n, f, f, s, s).swapaxes(-3, -2).reshape(*lead, n, f * s, f * s)


def _unitors(w, d_eps, mats, names, side, tol: Tolerance) -> np.ndarray:
    """Canonical unitors of the representations in the (m, n, k, k) stack ``mats``, in the flat
    space, each normalized to an isometry: shape (m, a k, k) for a = dim D_eps.

    ``side='left'``: ``v -> (D_eps (x) D)(Delta(1)) (Omega (x) v)`` into
    H_eps (x) H; ``side='right'``: ``v -> (D (x) D_eps)(Delta(1)) (v (x) Omega)``
    into H (x) H_eps; Omega is the GNS vector of the unit.  Each must be an
    isometry whose range projection is that image of Delta(1), and it must
    intertwine D with the product representation ``(D_eps (x) D) o Delta`` (or
    ``(D (x) D_eps) o Delta``); either failure raises CrossCheckMismatch, naming
    the first representation of the stack that fails it.
    """
    m, k, a = len(mats), mats.shape[-1], d_eps.dim
    images = _delta_images(w, d_eps.matrices, mats) if side == "left" else _delta_images(w, mats, d_eps.matrices)
    proj = _at_unit(w, images)  # (m, a k, a k)
    omega = d_eps.gns.vector(w.unit)
    u = omega @ proj.reshape(m, a * k, a, k) if side == "left" else proj.reshape(m, k * a, k, a) @ omega
    norm2 = np.einsum("mij,mij->m", u.conj(), u).real / k
    for name, size in zip(names, norm2):
        if size <= 0.0:
            raise CrossCheckMismatch(f"{side} unitor of {name} vanishes")
    u = u / np.sqrt(norm2)[:, None, None]
    uh = u.conj().swapaxes(1, 2)
    isometry = np.linalg.norm(uh @ u - np.eye(k), axis=(1, 2))
    support = np.linalg.norm(u @ uh - proj, axis=(1, 2))
    for name, iso, sup in zip(names, isometry, support):
        if max(iso, sup) > tol.unitor_residual():
            raise CrossCheckMismatch(
                f"{side} unitor of {name} is not an isometry onto the range of Delta(1) "
                f"(residuals {iso:.3e}, {sup:.3e})"
            )
    # (first (x) second)(Delta(e_j)) u against u D(e_j)
    resid = np.linalg.norm((images @ u[:, None] - u[:, None] @ mats).reshape(m, -1), axis=1)
    scales = np.linalg.norm(mats.reshape(m, -1), axis=1)
    for name, r, scale in zip(names, resid, scales):
        if r > tol.unitor_residual(scale):
            raise CrossCheckMismatch(f"{side} unitor of {name} fails to intertwine (residual {r:.3e})")
    return u


def _zigzags(e_l, e_r, x, y) -> np.ndarray:
    """``E_l^H (y^H (x) 1)(1 (x) x) E_r`` on H, stacked: for flat maps x: H_eps -> H' (x) H and
    y: H_eps -> H (x) H' (m, k^2, a) and the unitors E_l (m, a k, k), E_r (m, k a, k) of H."""
    m, k = e_r.shape[0], e_r.shape[-1]
    a = e_r.shape[1] // k
    # (1 (x) x) E_r at [m, (t, u), (s, l)], then ordered [m, (s, t), (u, l)]
    lifted = x @ e_r.reshape(m, k, a, k).transpose(0, 2, 1, 3).reshape(m, a, k * k)
    lifted = lifted.reshape(m, k, k, k, k).transpose(0, 3, 1, 2, 4).reshape(m, k * k, k * k)
    lowered = (y.conj().swapaxes(1, 2) @ lifted).reshape(m, a * k, k)  # (y^H (x) 1) at [m, (e, u), l]
    return e_l.conj().swapaxes(1, 2) @ lowered


def _scalars_of(mats, whats, tol: Tolerance) -> np.ndarray:
    """The scalars lam with ``mats[i] = lam I``, raising NonScalarIndex or ZeroIntertwiner naming ``whats[i]``."""
    k = mats.shape[-1]
    lams = np.trace(mats, axis1=1, axis2=2) / k
    resid = np.linalg.norm(mats - lams[:, None, None] * np.eye(k), axis=(1, 2))
    for what, lam, r in zip(whats, lams, resid):
        if r > tol.zigzag_scalar_residual(abs(lam)):
            raise NonScalarIndex(f"{what} is not scalar (residual {r:.3e})")
        if abs(lam) < tol.zigzag_floor():
            raise ZeroIntertwiner(f"{what} vanishes")
    return lams


@dataclass
class StandardSolution:
    """Normalized solution (R, Rbar) of the conjugate equations for one sector.

    R and Rbar are maps into the flat spaces, as (n_q^2, dim D_eps) matrices:
    their ranges lie in the carriers of the truncated products, and neither
    depends on the basis chosen for a carrier.
    """

    r: np.ndarray  # H_eps -> H_conj(q) (x) H_q
    rbar: np.ndarray  # H_eps -> H_q (x) H_conj(q)
    d: float
    vacuum_left: int  # nu with Rbar* Rbar = d * D_eps(z_nu)
    vacuum_right: int  # mu with R* R = d * D_eps(z_mu)
    zigzag_left: complex
    zigzag_right: complex
    conj: Representation


def _vacuum_homs(w, vac: VacuumData, first, second, whats, tol: Tolerance):
    """For each pair of the (m, n, f, f) and (m, n, s, s) stacks, the unique vacuum mu with a
    nontrivial part of Hom(D_eps, first (x) second) on D_eps(z_mu), that part's unit element X
    as a flat map H_eps -> H_f (x) H_s, and c with X*X = c D_eps(z_mu).

    The truncated product is compressed to the carrier of (D1 (x) D2)(Delta(1)), and the Hom
    systems of the pairs whose carriers have the same dimension are solved by one stacked kernel.
    The part of Hom on mu is span{X D_eps(z_mu)}: each D_eps(z_mu) is a central projection in
    the image of D_eps, so X D_eps(z_mu) is again an intertwiner, and it is the whole of X when
    X = X D_eps(z_mu).  Failures name ``whats[i]``.
    """
    m, n, a = len(first), w.dim, vac.counit_rep.dim
    projs = np.stack(vac.rep_projections)  # (V, a, a)
    images = _delta_images(w, first, second)
    carriers = orth_stack(_at_unit(w, images), tol)
    eps_t = vac.counit_rep.matrices.swapaxes(1, 2)
    flat = np.zeros((m, images.shape[-1], a), dtype=complex)
    mus = np.zeros(m, dtype=int)
    by_dim: dict[int, list[int]] = {}
    for i, v in enumerate(carriers):
        by_dim.setdefault(v.shape[1], []).append(i)
    for b, members in by_dim.items():
        v = np.stack([carriers[i] for i in members])  # (g, f s, b)
        prods = v.conj().swapaxes(1, 2)[:, None] @ images[members] @ v[:, None]  # (g, n, b, b)
        homs = kernel_stack(kron_sum(prods, eps_t).reshape(len(members), n * b * a, b * a), tol)
        for i, h in zip(members, homs):
            if h.shape[1] == 0:
                raise ZeroIntertwiner(f"{whats[i]}: intertwiner space is trivial")
        width = max(h.shape[1] for h in homs)
        padded = np.zeros((len(members), b, a, width), dtype=complex)
        for j, h in enumerate(homs):
            padded[j, :, :, : h.shape[1]] = h.reshape(b, a, -1)
        # X D_eps(z_mu) over the basis of Hom, at [g, mu, (b, a), h]
        parts = np.tensordot(padded, projs, axes=(2, 1)).transpose(0, 3, 1, 4, 2)
        spans = orth_stack(parts.reshape(-1, b * a, width), tol)
        for j, i in enumerate(members):
            found = [mu for mu in range(len(projs)) if spans[j * len(projs) + mu].shape[1]]
            if len(found) > 1:
                raise NotProportionalToMinimal(f"{whats[i]}: support on several minimal projections {found}")
            mu = found[0]
            span = spans[j * len(projs) + mu]
            if span.shape[1] > 1:
                raise VacuumAssignmentFailed(f"{whats[i]}: Hom space on vacuum {mu} has dimension {span.shape[1]}")
            mus[i] = mu
            flat[i] = carriers[i] @ span[:, 0].reshape(b, a)
    gram = flat.conj().swapaxes(1, 2) @ flat  # X*X
    vacua = projs[mus]
    consts = (np.trace(gram, axis1=1, axis2=2) / np.trace(vacua, axis1=1, axis2=2)).real
    resid = np.linalg.norm(gram - consts[:, None, None] * vacua, axis=(1, 2))
    for what, c, r in zip(whats, consts, resid):
        if r > tol.proportionality_residual(abs(c)):
            raise NotProportionalToMinimal(f"{what}: X*X is not proportional to the minimal projection")
    return mus, flat, consts


def _solve_conjugate_equations(
    w: WeakHopfAlgebra, qs: list[int], tol: Tolerance | None = None
) -> list[StandardSolution]:
    """Standard solutions of the conjugate equations for the blocks ``qs``, all of one size n_q.

    The sectors are stacked along a leading axis and solved together: one
    contraction forms their conjugates, one their truncated products
    ``conj(q) (x) q`` and ``q (x) conj(q)``, one stacked kernel per carrier
    dimension their Hom(D_eps, .) systems, and stacked products their unitors
    and zigzags.  Each sector keeps every check of :func:`standard_solutions`,
    with its own residual and threshold, and a failure names the sector.
    """
    tol = get_tol(tol)
    derived = w.derived(tol)
    if derived.grouplike is None:
        raise NotSemisimple(f"{w.name}: standard solutions need the Haar integral")
    vac = derived.vacua
    reps = [derived.irreps[q] for q in qs]
    m = len(qs)
    mats = np.stack([rep.matrices for rep in reps])  # (m, n, k, k)
    labels = [f"sector {q}" for q in qs]
    conj_labels = [f"conj({label})" for label in labels]
    bars = _conjugates(w, derived.conjugation, mats, conj_labels, tol)

    # R spans Hom(D_eps, conj(q) (x) q) over one vacuum mu, Rbar Hom(D_eps, q (x) conj(q)) over nu
    q_and_bar = np.concatenate([mats, bars])
    whats = [f"R of {label}" for label in labels] + [f"Rbar of {label}" for label in labels]
    vacs, flat, consts = _vacuum_homs(w, vac, np.concatenate([bars, mats]), q_and_bar, whats, tol)
    mu, nu = vacs[:m], vacs[m:]
    rf, rbf = flat[:m], flat[m:]
    c1, c2 = consts[:m], consts[m:]

    # lambda1 on H_q from (Rbf, Rf) and lambda2 on H_conj(q) from (Rf, Rbf), both with canonical unitors
    names = labels + conj_labels
    d_eps = vac.counit_rep
    e_l = _unitors(w, d_eps, q_and_bar, names, "left", tol)
    e_r = _unitors(w, d_eps, q_and_bar, names, "right", tol)
    lams = _scalars_of(
        _zigzags(e_l, e_r, np.concatenate([rf, rbf]), np.concatenate([rbf, rf])),
        [f"zigzag on {name}" for name in names],
        tol,
    )
    lam1, lam2 = lams[:m], lams[m:]

    out = []
    for i in range(m):
        l1, l2 = complex(lam1[i]), complex(lam2[i])
        top = max(abs(l1), abs(l2))
        if abs(abs(l1) - abs(l2)) > tol.zigzag_pair_residual(top):
            raise CrossCheckMismatch(
                f"{labels[i]}: zigzag scalars have different moduli: |{l1:.6g}| vs |{l2:.6g}|"
            )
        # R -> e^{i theta} R multiplies lambda1 by e^{i theta} and lambda2 by e^{-i theta}, not their product
        product = l1 * l2
        if product.real <= 0 or abs(product.imag) > tol.zigzag_pair_residual(abs(product)):
            raise CrossCheckMismatch(
                f"{labels[i]}: zigzag product lambda1 lambda2 = {product:.6g} is not real positive"
            )
        phase = abs(l1) / l1
        l1, l2 = l1 * phase, l2 / phase
        d_val = float(np.sqrt(c1[i] * c2[i] / abs(l1 * l2)))
        scale = np.sqrt(d_val / c1[i]) * np.sqrt(d_val / c2[i])
        out.append(
            StandardSolution(
                r=rf[i] * (phase * np.sqrt(d_val / c1[i])),
                rbar=rbf[i] * np.sqrt(d_val / c2[i]),
                d=d_val,
                vacuum_left=int(nu[i]),
                vacuum_right=int(mu[i]),
                zigzag_left=l1 * scale,
                zigzag_right=l2 * scale,
                conj=Representation(w, bars[i], name=f"conj({reps[i].name})"),
            )
        )
    return out


def standard_solutions(w: WeakHopfAlgebra, q: int, tol: Tolerance | None = None) -> StandardSolution:
    """Standard solution of the conjugate equations for the irreducible block ``q``.

    ``R`` spans Hom(D_eps, conj(q) (x) q) over a single vacuum mu (= q^R) and
    ``Rbar`` spans Hom(D_eps, q (x) conj(q)) over nu (= q^L).  The pair is
    rescaled so that both proportionality constants equal d_q and the zigzag
    composites have modulus one; d_q itself is the scaling-invariant
    ``sqrt(c1 c2 / |lambda1 lambda2|)`` of the raw data.  The phase of R is a
    gauge: it is fixed so that lambda1 is real positive, and with canonical
    unitors the gauge-invariant lambda1 lambda2 must be real positive, so both
    zigzag composites are 1.

    The zigzags are formed in the flat spaces.  With Rf and Rbf the flat maps
    into H_conj(q) (x) H_q and H_q (x) H_conj(q),

        lambda1 = E_l^H (Rbf^H (x) 1)(1 (x) Rf) E_r   on H_q,
        lambda2 = E_l^H (Rf^H (x) 1)(1 (x) Rbf) E_r   on H_conj(q),

    E_l, E_r the canonical unitors ``v -> (D_eps (x) D)(Delta(1))(Omega (x) v)``
    and ``v -> (D (x) D_eps)(Delta(1))(v (x) Omega)`` (:func:`_unitors`, which
    checks each).  No associator is needed: both bracketings of q conj(q) q
    are the same subspace of H_q (x) H_conj(q) (x) H_q because Delta is
    coassociative, which :func:`~whakit.wha.validate_wba` has checked.

    This is the batch :func:`_solve_conjugate_equations` of one sector.
    """
    return _solve_conjugate_equations(w, [q], tol)[0]


# ---------------------------------------------------------------------------
# sector table, dimension matrices, Markov index


@dataclass
class Sector:
    index: int
    size: int  # n_q
    rep: Representation
    d: float
    vacuum_left: int
    vacuum_right: int
    solution: StandardSolution


@dataclass
class SectorTable:
    wha: WeakHopfAlgebra
    blocks: BlockDecomposition
    vacua: VacuumData
    sectors: list[Sector]
    grouplike: CanonicalGrouplikes
    tol: Tolerance

    @property
    def delta(self) -> float:
        val, _ = perron_frobenius(self.d_matrix)
        return val

    @property
    def d_matrix(self) -> np.ndarray:
        """Regular dimension matrix: sum_q n_q d_q e_(qL, qR)."""
        v = self.vacua.count
        out = np.zeros((v, v))
        for s in self.sectors:
            out[s.vacuum_left, s.vacuum_right] += s.size * s.d
        return out

    def multiplicities(self, rep: Representation) -> np.ndarray:
        return block_multiplicities(self.wha, rep, self.tol)

    def dimension_matrix(self, rep: Representation) -> np.ndarray:
        """Vacuum-indexed dimension matrix of an arbitrary representation."""
        mult = self.multiplicities(rep)
        v = self.vacua.count
        out = np.zeros((v, v))
        for n_q, s in zip(mult, self.sectors):
            out[s.vacuum_left, s.vacuum_right] += n_q * s.d
        return out


def sector_dimensions(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> SectorTable:
    """Full sector table: vacuum assignments, d_q by two routes, dimension matrix.

    The standard solutions are solved by size class, the sectors of one n_q
    in one batch (:func:`_solve_conjugate_equations`).  d_q from the grouplike
    trace formula ``k(qL)^(-1/2) k(qR)^(-1/2) tr_q(g)`` must agree with the
    standard-solution route within ``tol.dimension_agreement(d_q)``.
    """
    tol = get_tol(tol)
    derived = w.derived(tol)
    cg = derived.grouplike
    if cg is None:
        raise NotSemisimple(f"{w.name}: sector pipeline needs the Haar integral")
    vac = derived.vacua
    blocks = w.algebra.block_decomposition(tol)
    classes: dict[int, list[int]] = {}
    for qi, block in enumerate(blocks):
        classes.setdefault(block.size, []).append(qi)
    solutions: dict[int, StandardSolution] = {}
    for qs in classes.values():
        solutions.update(zip(qs, _solve_conjugate_equations(w, qs, tol)))
    sectors = []
    for qi, (block, rep) in enumerate(zip(blocks, derived.irreps)):
        sol = solutions[qi]
        tr_g = w.algebra.block_trace(block, cg.g)
        if abs(tr_g.imag) > tol.trace_imaginary_residual(abs(tr_g)):
            raise CrossCheckMismatch(f"sector {qi}: tr_q(g) = {tr_g} is not real")
        d_trace = float(tr_g.real) / np.sqrt(vac.weights[sol.vacuum_left] * vac.weights[sol.vacuum_right])
        if abs(d_trace - sol.d) > tol.dimension_agreement(abs(d_trace)):
            raise CrossCheckMismatch(
                f"sector {qi}: trace formula gives d = {d_trace:.9g}, standard solution {sol.d:.9g}"
            )
        sectors.append(
            Sector(
                index=qi,
                size=block.size,
                rep=rep,
                d=d_trace,
                vacuum_left=sol.vacuum_left,
                vacuum_right=sol.vacuum_right,
                solution=sol,
            )
        )
    return SectorTable(wha=w, blocks=blocks, vacua=vac, sectors=sectors, grouplike=cg, tol=tol)


def _corner_markov_index(w: WeakHopfAlgebra, vac: VacuumData, tol: Tolerance) -> float:
    """Markov-trace index of z A^L ⊂ z A for the first vacuum projection z."""
    z = vac.projections[0]
    corner_space = Subspace(w.algebra.left_mult(z), w.dim, tol)
    corner, qmat = induced_algebra(w.algebra, corner_space, unit_vec=z, tol=tol, name=f"{w.name}|corner")
    al = w.derived(tol).counital_subalgebras.left
    cols = w.algebra.left_mult(z) @ al.basis
    coords = qmat.conj().T @ cols  # qmat is orthonormal
    if np.linalg.norm(qmat @ coords - cols) > 1e-8 * max(1.0, float(np.linalg.norm(cols))):
        raise CrossCheckMismatch("z A^L does not sit inside the corner algebra")
    return float(markov_trace(corner, Subspace(coords, corner.dim, tol), tol).index)


def markov_index(w: WeakHopfAlgebra, tol: Tolerance | None = None) -> float:
    """Markov index δ = PF(d_A), cross-checked against PF(d_dual) and the
    corner inclusion z A^L ⊂ z A; for pure fixtures also against Σ n_q d_q."""
    tol = get_tol(tol)
    if w.derived(tol).counital_subalgebras.hypercenter.dim != 1:
        raise NotConnected(f"{w.name} is decomposable; split along its hypercenter first")
    table = w.derived(tol).sectors
    delta_a = table.delta
    delta_b = w.dual.derived(tol).sectors.delta
    delta_c = _corner_markov_index(w, table.vacua, tol)
    values = (delta_a, delta_b, delta_c)
    spread = max(values) - min(values)
    if spread > 1e-6 * max(1.0, max(values)):
        raise CrossCheckMismatch(
            f"Markov index routes disagree: PF(d_A) = {delta_a:.9g}, "
            f"PF(d_dual) = {delta_b:.9g}, corner inclusion = {delta_c:.9g}"
        )
    if table.vacua.count == 1:
        direct = sum(s.size * s.d for s in table.sectors)
        if abs(direct - delta_a) > 1e-6 * max(1.0, delta_a):
            raise CrossCheckMismatch(
                f"pure-case sum {direct:.9g} disagrees with PF value {delta_a:.9g}"
            )
    return float(delta_a)


def dimension_factorization(w: WeakHopfAlgebra, tol: Tolerance | None = None):
    """Nonnegative 𝐝^L (vacua_A x vacua_dual) with 𝐝_A = 𝐝^L 𝐝^R, 𝐝_dual = 𝐝^R 𝐝^L,
    𝐝^R = (𝐝^L)^T.

    For a connected algebra 𝐝_A is rank one, 𝐝_A^2 = δ 𝐝_A, so the factor is
    ``𝐝^L = sqrt(δ) u s^T`` with u and s the unit Perron vectors of 𝐝_A and
    𝐝_dual.  Raises :class:`FactorizationResidualTooLarge` when that does not
    factor both matrices, as for a decomposable algebra.
    """
    tol = get_tol(tol)
    da, db = w.derived(tol).sectors.d_matrix, w.dual.derived(tol).sectors.d_matrix
    delta, u = perron_frobenius(da, tol)
    _, s = perron_frobenius(db, tol)
    x = np.sqrt(delta) * np.outer(u / np.linalg.norm(u), s / np.linalg.norm(s))
    resid = max(
        float(np.linalg.norm(x @ x.T - da)),
        float(np.linalg.norm(x.T @ x - db)),
    )
    if resid > 1e-6 * max(1.0, float(np.linalg.norm(da))):
        raise FactorizationResidualTooLarge(
            f"no nonnegative factorization within tolerance (residual {resid:.3e})"
        )
    return x, x.T
