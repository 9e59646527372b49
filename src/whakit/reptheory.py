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
    ZeroIntertwiner,
)
from .integrals import CanonicalGrouplikes
from .linalg import Subspace, kernel, kron_sum, matrix_rank, orth, perron_frobenius
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
        tol = get_tol(tol)
        rep = AxiomReport(self.name or "representation")
        scale = max(1.0, float(np.linalg.norm(self.matrices)))
        defect = self.wha.algebra.homomorphism_defect(self.matrices)
        rep.add("representation-multiplicative", defect, tol.bound(scale**2) * 10)
        rep.add(
            "representation-unital",
            np.linalg.norm(self.apply(self.wha.unit) - np.eye(self.dim)),
            tol.bound(scale) * 10,
        )
        return rep

    def direct_sum(self, other: "Representation") -> "Representation":
        n = self.wha.dim
        d1, d2 = self.dim, other.dim
        mats = np.zeros((n, d1 + d2, d1 + d2), dtype=complex)
        mats[:, :d1, :d1] = self.matrices
        mats[:, d1:, d1:] = other.matrices
        return Representation(self.wha, mats, name=f"{self.name}(+){other.name}")


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
    return _star_conjugate_rep(w, d, w.unit, w.unit, tol)


def _star_conjugate_rep(
    w: WeakHopfAlgebra, d: Representation, g_half, g_half_inv, tol: Tolerance | None = None
) -> Representation:
    """Conjugate ``a -> conj(D(g^(1/2) S(a)* g^(-1/2)))``, twisted by g^(1/2) so a
    *-representation stays a *-representation; g^(1/2) = 1 gives :func:`conjugate_rep`."""
    tol = get_tol(tol)
    alg = w.algebra
    # column j is g^(1/2) S(e_j)* g^(-1/2)
    twisted = alg.left_mult(g_half) @ alg.right_mult(g_half_inv) @ w.star_antipode
    mats = np.conj(np.tensordot(twisted, d.matrices, axes=(0, 0)))
    out = Representation(w, mats, name=f"conj({d.name})")
    out.validate(tol).raise_if_failed()
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


def _unitor(w, d_eps, d, side):
    """Canonical unitor of ``d`` in the flat space, normalized to an isometry.

    ``side='left'``: ``v -> (D_eps (x) D)(Delta(1)) (Omega (x) v)`` into
    H_eps (x) H; ``side='right'``: ``v -> (D (x) D_eps)(Delta(1)) (v (x) Omega)``
    into H (x) H_eps; Omega is the GNS vector of the unit.  It must be an
    isometry whose range projection is that image of Delta(1), and it must
    intertwine D with the product representation ``(D_eps (x) D) o Delta`` (or
    ``(D (x) D_eps) o Delta``); either failure raises CrossCheckMismatch.
    """
    first, second = (d_eps, d) if side == "left" else (d, d_eps)
    f, s, k = first.dim, second.dim, d.dim
    omega, eye = d_eps.gns.vector(w.unit)[:, None], np.eye(k)
    proj = np.einsum("qac,qbd->abcd", np.tensordot(w.delta1, first.matrices, axes=(0, 0)), second.matrices)
    proj = proj.reshape(f * s, f * s)
    u = proj @ (np.kron(omega, eye) if side == "left" else np.kron(eye, omega))
    norm2 = float(np.vdot(u, u).real) / k
    if norm2 <= 0.0:
        raise CrossCheckMismatch(f"{side} unitor of {d.name} vanishes")
    u = u / np.sqrt(norm2)
    isometry = float(np.linalg.norm(u.conj().T @ u - eye))
    support = float(np.linalg.norm(u @ u.conj().T - proj))
    if max(isometry, support) > 1e-7:
        raise CrossCheckMismatch(
            f"{side} unitor of {d.name} is not an isometry onto the range of Delta(1) "
            f"(residuals {isometry:.3e}, {support:.3e})"
        )
    # (first (x) second)(Delta(e_j)) u against u D(e_j), Delta contracted last
    fu = np.tensordot(first.matrices, u.reshape(f, s, k), axes=(2, 0))  # [p, a, d, l]
    sfu = np.tensordot(fu, second.matrices, axes=(2, 2))  # [p, a, l, q, b]
    moved = np.tensordot(w.delta3, sfu, axes=([0, 1], [0, 3]))  # [j, a, l, b]
    moved = moved.transpose(0, 1, 3, 2).reshape(w.dim, f * s, k)
    resid = float(np.linalg.norm(moved - u @ d.matrices))
    if resid > 1e-7 * max(1.0, float(np.linalg.norm(d.matrices))):
        raise CrossCheckMismatch(f"{side} unitor of {d.name} fails to intertwine (residual {resid:.3e})")
    return u


def _zigzag(w, d_eps, d, x, y, what):
    """Scalar of ``E_l^H (y^H (x) 1)(1 (x) x) E_r`` on ``d``, for flat maps
    x: H_eps -> H' (x) H and y: H_eps -> H (x) H' and the unitors E of ``d``."""
    e_l = _unitor(w, d_eps, d, "left")
    e_r = _unitor(w, d_eps, d, "right")
    eye = np.eye(d.dim)
    return _scalar_of(e_l.conj().T @ np.kron(y.conj().T, eye) @ np.kron(eye, x) @ e_r, what)


def _scalar_of(m, what):
    d = m.shape[0]
    lam = complex(np.trace(m) / d)
    resid = float(np.linalg.norm(m - lam * np.eye(d)))
    if resid > 1e-6 * max(1.0, abs(lam)):
        raise NonScalarIndex(f"{what} is not scalar (residual {resid:.3e})")
    if abs(lam) < 1e-9:
        raise ZeroIntertwiner(f"{what} vanishes")
    return lam


@dataclass
class StandardSolution:
    """Normalized solution (R, Rbar) of the conjugate equations for one sector."""

    r: np.ndarray  # H_eps -> H_(conj q (x) q)
    rbar: np.ndarray  # H_eps -> H_(q (x) conj q)
    d: float
    vacuum_left: int  # nu with Rbar* Rbar = d * D_eps(z_nu)
    vacuum_right: int  # mu with R* R = d * D_eps(z_mu)
    zigzag_left: complex
    zigzag_right: complex
    conj: Representation


def _pick_supported_hom(w, d_eps, target, vac: VacuumData, tol, what: str):
    """The unique vacuum mu with nontrivial Hom supported on D_eps(z_mu), and its element.

    The part of Hom(D_eps, target) on mu is span{X D_eps(z_mu)}: each
    D_eps(z_mu) is a central projection in the image of D_eps, so X D_eps(z_mu)
    is again an intertwiner, and it is the whole of X when X = X D_eps(z_mu).
    """
    homs = intertwiner_space(w, d_eps, target, tol)
    if not homs:
        raise ZeroIntertwiner(f"{what}: intertwiner space is trivial")
    found = []
    for mu, proj in enumerate(vac.rep_projections):
        part = orth(np.column_stack([(x @ proj).ravel() for x in homs]), tol)
        if part.shape[1]:
            found.append((mu, part))
    if len(found) > 1:
        labels = [mu for mu, _ in found]
        raise NotProportionalToMinimal(f"{what}: support on several minimal projections {labels}")
    mu, part = found[0]
    if part.shape[1] > 1:
        raise VacuumAssignmentFailed(f"{what}: Hom space on vacuum {mu} has dimension {part.shape[1]}")
    return mu, part[:, 0].reshape(homs[0].shape)


def _proportionality_constant(x, proj, what):
    xe = x.conj().T @ x
    denom = np.trace(proj).real
    c = float((np.trace(xe) / denom).real)
    resid = float(np.linalg.norm(xe - c * proj))
    if resid > 1e-7 * max(1.0, abs(c)):
        raise NotProportionalToMinimal(f"{what}: X*X is not proportional to the minimal projection")
    return c


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

    The zigzags are formed in the flat spaces.  With Rf = V1 R and Rbf = V2 Rbar
    pushed through the carrier isometries V of conj(q) (x) q and q (x) conj(q),

        lambda1 = E_l^H (Rbf^H (x) 1)(1 (x) Rf) E_r   on H_q,
        lambda2 = E_l^H (Rf^H (x) 1)(1 (x) Rbf) E_r   on H_conj(q),

    E_l, E_r the canonical unitors ``v -> (D_eps (x) D)(Delta(1))(Omega (x) v)``
    and ``v -> (D (x) D_eps)(Delta(1))(v (x) Omega)`` (:func:`_unitor`, which
    checks each).  No associator is needed: both bracketings of q conj(q) q
    are the same subspace of H_q (x) H_conj(q) (x) H_q because Delta is
    coassociative, which :func:`~whakit.wha.validate_wba` has checked.
    """
    tol = get_tol(tol)
    derived = w.derived(tol)
    cg = derived.grouplike
    if cg is None:
        raise NotSemisimple(f"{w.name}: standard solutions need the Haar integral")
    vac = derived.vacua
    d_q = derived.irreps[q]
    d_eps = vac.counit_rep
    qbar = _star_conjugate_rep(w, d_q, cg.g_half, cg.g_half_inv, tol)

    m2 = monoidal_product(w, d_q, qbar, tol)
    m1 = monoidal_product(w, qbar, d_q, tol)
    mu, r = _pick_supported_hom(w, d_eps, m1, vac, tol, "R")
    nu, rbar = _pick_supported_hom(w, d_eps, m2, vac, tol, "Rbar")
    c1 = _proportionality_constant(r, vac.rep_projections[mu], "R")
    c2 = _proportionality_constant(rbar, vac.rep_projections[nu], "Rbar")

    rf, rbf = m1.isometry @ r, m2.isometry @ rbar  # into H_conj(q) (x) H_q and H_q (x) H_conj(q)
    lam1 = _zigzag(w, d_eps, d_q, rf, rbf, "zigzag on q")
    lam2 = _zigzag(w, d_eps, qbar, rbf, rf, "zigzag on conj q")

    if abs(abs(lam1) - abs(lam2)) > 1e-6 * max(abs(lam1), abs(lam2)):
        raise CrossCheckMismatch(
            f"zigzag scalars have different moduli: |{lam1:.6g}| vs |{lam2:.6g}|"
        )
    # R -> e^{i theta} R multiplies lambda1 by e^{i theta} and lambda2 by e^{-i theta}, not their product
    product = lam1 * lam2
    if product.real <= 0 or abs(product.imag) > 1e-6 * abs(product):
        raise CrossCheckMismatch(f"zigzag product lambda1 lambda2 = {product:.6g} is not real positive")
    phase = abs(lam1) / lam1
    r, lam1, lam2 = r * phase, lam1 * phase, lam2 / phase
    d_val = float(np.sqrt(c1 * c2 / abs(lam1 * lam2)))
    r = r * np.sqrt(d_val / c1)
    rbar = rbar * np.sqrt(d_val / c2)
    scale = np.sqrt(d_val / c1) * np.sqrt(d_val / c2)
    return StandardSolution(
        r=r,
        rbar=rbar,
        d=d_val,
        vacuum_left=nu,
        vacuum_right=mu,
        zigzag_left=lam1 * scale,
        zigzag_right=lam2 * scale,
        conj=qbar,
    )


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

    d_q from the grouplike trace formula ``k(qL)^(-1/2) k(qR)^(-1/2) tr_q(g)``
    must agree with the standard-solution route within 1e-6.
    """
    tol = get_tol(tol)
    derived = w.derived(tol)
    cg = derived.grouplike
    if cg is None:
        raise NotSemisimple(f"{w.name}: sector pipeline needs the Haar integral")
    vac = derived.vacua
    blocks = w.algebra.block_decomposition(tol)
    sectors = []
    for qi, (block, rep) in enumerate(zip(blocks, derived.irreps)):
        sol = standard_solutions(w, qi, tol)
        tr_g = w.algebra.block_trace(block, cg.g)
        if abs(tr_g.imag) > 1e-8 * max(1.0, abs(tr_g)):
            raise CrossCheckMismatch(f"tr_q(g) = {tr_g} is not real")
        d_trace = float(tr_g.real) / np.sqrt(vac.weights[sol.vacuum_left] * vac.weights[sol.vacuum_right])
        if abs(d_trace - sol.d) > 1e-6 * max(1.0, abs(d_trace)):
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
