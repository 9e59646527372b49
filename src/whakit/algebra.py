"""Finite-dimensional associative algebras given by structure constants.

An algebra lives on C^n with a rank-3 tensor ``c`` fixing products of basis
vectors, ``e_i e_j = sum_k c[i,j,k] e_k``, a unit vector, and an optional
antilinear involution ``a* = inv @ conj(a)``.  On top of that this module
provides the structural toolbox used everywhere else: center and commutants,
Wedderburn block decomposition, inclusion matrices of unital subalgebras,
Markov traces, and Watatani index of a conditional expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import INT_ROUNDING_TOL, Tolerance, get_tol, rng, round_to_int
from .errors import (
    DimensionMismatch,
    NoInvolution,
    NonIntegerBlockSize,
    NoQuasiBasis,
    NotConditionalExpectation,
    NotConnected,
    NotPositive,
    NotSemisimple,
    RankDeficient,
    ValidationError,
)
from .linalg import Subspace, is_irreducible_nonneg, kernel, lstsq, orth, perron_frobenius
from .report import AxiomReport

__all__ = [
    "FinDimAlgebra",
    "Block",
    "BlockDecomposition",
    "block_decomposition",
    "inclusion_matrix",
    "MarkovTrace",
    "markov_trace",
    "WatataniIndex",
    "watatani_index",
    "induced_algebra",
    "GnsRep",
    "gns_rep",
]


class FinDimAlgebra:
    """Associative unital algebra over C with explicit structure constants.

    Parameters
    ----------
    structure_constants : (n, n, n) array
        ``c[i, j, k]`` is the coefficient of ``e_k`` in ``e_i e_j``.
    unit : (n,) array
        Coordinates of the multiplicative unit.
    involution : (n, n) array, optional
        Matrix of the antilinear star map: ``a* = involution @ conj(a)``.
    basis_labels : list of str, optional
    """

    def __init__(self, structure_constants, unit, involution=None, basis_labels=None, name="algebra"):
        c = np.asarray(structure_constants, dtype=complex)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatch(f"structure constants must be (n,n,n), got {c.shape}")
        n = c.shape[0]
        unit = np.asarray(unit, dtype=complex).ravel()
        if unit.shape != (n,):
            raise DimensionMismatch(f"unit must have shape ({n},), got {unit.shape}")
        if involution is not None:
            involution = np.asarray(involution, dtype=complex)
            if involution.shape != (n, n):
                raise DimensionMismatch(f"involution must be ({n},{n}), got {involution.shape}")
        if basis_labels is not None and len(basis_labels) != n:
            raise DimensionMismatch("one basis label per basis vector")
        self.c = c
        self.dim = n
        self.unit = unit
        self.involution = involution
        self.basis_labels = list(basis_labels) if basis_labels is not None else [f"e{i}" for i in range(n)]
        self.name = name
        # left multiplication matrices of all basis vectors, L[i][k,j] = c[i,j,k]
        self._lmats = c.transpose(0, 2, 1).copy()
        self._blocks: dict[Tolerance, BlockDecomposition] = {}

    # -- arithmetic ---------------------------------------------------------

    def basis_vector(self, i: int):
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return v

    def mul(self, a, b):
        a = np.asarray(a, dtype=complex).ravel()
        b = np.asarray(b, dtype=complex).ravel()
        n = self.dim
        return b @ (a @ self.c.reshape(n, n * n)).reshape(n, n)

    def left_mult(self, a):
        """Matrix of x -> a x."""
        return np.einsum("i,ikj->kj", np.asarray(a, dtype=complex).ravel(), self._lmats)

    def right_mult(self, a):
        """Matrix of x -> x a."""
        return np.einsum("j,ijk->ki", np.asarray(a, dtype=complex).ravel(), self.c)

    def star(self, a):
        if self.involution is None:
            raise NoInvolution(f"{self.name} carries no involution")
        return self.involution @ np.conj(np.asarray(a, dtype=complex).ravel())

    def inverse(self, a, tol: Tolerance | None = None):
        tol = get_tol(tol)
        x, resid = lstsq(self.left_mult(a), self.unit, tol)
        if resid > tol.bound(np.linalg.norm(self.unit)) * 1e3:
            raise RankDeficient(f"element is not invertible (residual {resid:.3e})")
        # guard against one-sided pathologies
        back = np.linalg.norm(self.mul(x, a) - self.unit)
        if back > 1e-6 * max(1.0, float(np.linalg.norm(self.unit))):
            raise RankDeficient(f"element is not two-sided invertible (residual {back:.3e})")
        return x

    # -- validation ---------------------------------------------------------

    def validate(self, tol: Tolerance | None = None) -> AxiomReport:
        """Associativity, unit laws, and (if present) the star axioms.

        Associativity is compared with ``tol.bound(|c|_F^2)`` by one of two
        routes, chosen by the dimension n:

        * below :data:`CERTIFY_ASSOCIATIVITY_FROM_DIM`, the Frobenius norm of
          the associator ``(e_i e_j) e_k - e_i (e_j e_k)`` over all basis
          triples, computed by :func:`_dense_associator_norm` in O(n^5);
        * from that dimension on (the measured crossover, recorded at the
          constant), the bound of :func:`_associator_bound`, which costs
          O(n^4) through the Wedderburn map phi of the cached
          :meth:`block_decomposition`.  With ``R(x, y) = phi(xy) -
          phi(x) phi(y)`` one has ``phi(assoc(x, y, z)) = R(x, y) phi(z) +
          R(xy, z) - phi(x) R(y, z) - R(x, yz)``, so summed over basis triples
          ``|assoc|_F <= 2 (|Phi|_F + |c|_F) |R|_F / sigma_min(Phi)``, Phi being
          the matrix of phi.  The row reports that bound when it meets the
          threshold.  Otherwise, and whenever the algebra does not decompose,
          the dense norm is computed and reported, so the verdict, and a
          failing row's residual, are those of the dense route.
        """
        tol = get_tol(tol)
        rep = AxiomReport(self.name)
        c = self.c
        scale = float(np.linalg.norm(c)) or 1.0
        threshold = tol.bound(scale**2)
        assoc = _associator_bound(self, tol) if self.dim >= CERTIFY_ASSOCIATIVITY_FROM_DIM else None
        if assoc is None or not assoc <= threshold:
            assoc = _dense_associator_norm(c)
        rep.add("associativity", assoc, threshold)
        lu = np.einsum("i,ijk->jk", self.unit, c)
        ru = np.einsum("j,ijk->ik", self.unit, c)
        eye = np.eye(self.dim)
        rep.add("left-unit", np.linalg.norm(lu - eye), tol.bound(scale))
        rep.add("right-unit", np.linalg.norm(ru - eye), tol.bound(scale))
        if self.involution is not None:
            s = self.involution
            rep.add("star-involutive", np.linalg.norm(s @ np.conj(s) - eye), tol.bound(scale))
            # (e_i e_j)* = e_j* e_i*
            lhs = np.einsum("ijk,mk->ijm", np.conj(c), s, optimize=True)
            rhs = np.einsum("pj,qi,pqm->ijm", s, s, c, optimize=True)
            rep.add("star-antimultiplicative", np.linalg.norm(lhs - rhs), tol.bound(scale**2))
            rep.add("unit-star", np.linalg.norm(self.star(self.unit) - self.unit), tol.bound(1.0))
        return rep

    # -- trace and semisimplicity ------------------------------------------

    def regular_trace(self, a) -> complex:
        """Trace of left multiplication by ``a`` on the algebra itself."""
        return complex(np.einsum("i,ikk->", np.asarray(a, dtype=complex).ravel(), self._lmats))

    def trace_form(self):
        """Gram matrix T[i,j] = Tr(L(e_i) L(e_j)) of the regular trace form."""
        n = self.dim
        # L(e_j)[b, a] = c[j, a, b], so T = lmats_flat @ c_flat^T
        return self._lmats.reshape(n, n * n) @ self.c.reshape(n, n * n).T

    def is_semisimple(self, tol: Tolerance | None = None) -> bool:
        tol = get_tol(tol)
        svals = np.linalg.svd(self.trace_form(), compute_uv=False)
        return bool(svals.size and svals[-1] > tol.abs_tol)

    # -- structure ----------------------------------------------------------

    def center(self, tol: Tolerance | None = None) -> Subspace:
        """Elements commuting with the whole algebra."""
        tol = get_tol(tol)
        n = self.dim
        # row block i is L(e_i) - R(e_i), and R(e_i)[k, j] = c[j, i, k]
        rows = (self._lmats - self.c.transpose(1, 2, 0)).reshape(n * n, n)
        return Subspace(kernel(rows, tol), n, tol)

    def commutant_in(self, generators, within: Subspace | None = None, tol: Tolerance | None = None) -> Subspace:
        """Elements of ``within`` (default: all of A) commuting with the generators."""
        tol = get_tol(tol)
        gens = [np.asarray(g, dtype=complex).ravel() for g in generators]
        if not gens:
            return within if within is not None else Subspace(np.eye(self.dim), self.dim, tol)
        rows = [self.left_mult(g) - self.right_mult(g) for g in gens]
        comm = Subspace(kernel(np.vstack(rows), tol), self.dim, tol)
        return comm if within is None else comm.intersection(within)

    def block_decomposition(self, tol: Tolerance | None = None) -> "BlockDecomposition":
        """Wedderburn blocks, computed once per tolerance (the algebra is immutable)."""
        tol = get_tol(tol)
        if tol not in self._blocks:
            self._blocks[tol] = block_decomposition(self, tol)
        return self._blocks[tol]

    def block_trace(self, block: "Block", x) -> complex:
        """Trace of ``x`` in the irreducible representation of ``block``: tr(z_q x) / n_q."""
        return self.regular_trace(self.mul(block.central_idempotent, x)) / block.size


#: Dimension from which :meth:`FinDimAlgebra.validate` certifies associativity
#: through the Wedderburn map instead of the dense loop.  Dense loop vs. block
#: decomposition plus certificate on smash products (minimum of 7 runs, 2 vCPUs,
#: numpy 2.4, OpenBLAS): n = 16: 1.0 vs. 2.2 ms; n = 25: 5.7 vs. 4.5 ms;
#: n = 27: 7.4 vs. 6.5 ms; n = 36: 22 vs. 8.4 ms; n = 64: 0.44 s vs. 0.09 s;
#: n = 89: 2.0 s vs. 0.19 s.  Below 32 the gain is at most about a millisecond
#: and a decomposition that nothing else may reuse is a cost, so every input
#: of dimension <= 27 keeps the dense route.
CERTIFY_ASSOCIATIVITY_FROM_DIM = 32


def _dense_associator_norm(c) -> float:
    """Frobenius norm of ``(e_i e_j) e_k - e_i (e_j e_k)`` over all basis triples, O(n^5)."""
    n = c.shape[0]
    flat_l = c.reshape(n, n * n)
    flat_r = c.reshape(n * n, n)
    acc = 0.0
    # one i-slice at a time keeps the intermediate at n^3 instead of n^4
    for i in range(n):
        left = (c[i] @ flat_l).reshape(n, n, n)  # (e_i e_j) e_k over j, k
        right = (flat_r @ c[i]).reshape(n, n, n)  # e_i (e_j e_k) over j, k
        acc += float(np.linalg.norm(left - right)) ** 2
    return float(np.sqrt(acc))


def _associator_bound(algebra: FinDimAlgebra, tol: Tolerance) -> float | None:
    """Upper bound on :func:`_dense_associator_norm` through the Wedderburn map.

    phi_q(x) = V_q^H L(x) V_q on an orthonormal basis V_q of the left ideal
    A p, p a minimal idempotent of block q (the carrier of
    ``irreducible_representations``).  Costs one (n^2, n) x (n, n_q^2) GEMM per
    block.  Returns None when the algebra does not decompose at ``tol`` or
    phi is not injective.
    """
    try:
        blocks = algebra.block_decomposition(tol)
        ideals = [orth(algebra.right_mult(_minimal_idempotent_in_block(algebra, b, tol)), tol) for b in blocks]
    except (NotSemisimple, NonIntegerBlockSize, np.linalg.LinAlgError):  # no decomposition at tol
        return None
    if [v.shape[1] for v in ideals] != list(blocks.sizes):
        return None
    n = algebra.dim
    c_rows = algebra.c.reshape(n * n, n)
    phis, r2 = [], 0.0
    for v in ideals:
        m = v.shape[1]
        phi = np.matmul(v.conj().T, algebra._lmats @ v)  # (n, m, m): phi_q(e_i)
        pairs = np.tensordot(phi, phi, axes=([2], [1])).transpose(0, 2, 1, 3)  # phi(e_i) phi(e_j)
        r = c_rows @ phi.reshape(n, m * m) - pairs.reshape(n * n, m * m)
        r2 += float(np.linalg.norm(r)) ** 2
        phis.append(phi.reshape(n, m * m))
    big_phi = np.concatenate(phis, axis=1).T  # column i stacks the blocks of phi(e_i)
    svals = np.linalg.svd(big_phi, compute_uv=False)
    if svals.size < n or svals[n - 1] == 0.0:
        return None
    scale = float(np.linalg.norm(big_phi)) + float(np.linalg.norm(algebra.c))
    return 2.0 * scale * float(np.sqrt(r2)) / float(svals[n - 1])


@dataclass(frozen=True)
class Block:
    """One simple summand: central idempotent ``z`` with ``z A ~ M_n``."""

    central_idempotent: np.ndarray
    size: int
    subspace: Subspace


@dataclass
class BlockDecomposition:
    blocks: list[Block]

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)


def _minimal_central_idempotents(algebra: FinDimAlgebra, center: Subspace, tol: Tolerance):
    """Split a commutative semisimple subalgebra into its minimal idempotents."""
    m = center.dim
    if m == 0:
        # a unital algebra's center holds the unit
        raise NotSemisimple(f"{algebra.name}: the center is 0-dimensional at this tolerance")
    z = center.basis
    for attempt in range(8):
        t = rng(attempt).standard_normal(m)
        w = z @ t
        lw = algebra.left_mult(w)
        op = z.conj().T @ lw @ z  # action of w on the center, in center coordinates
        vals, vecs = np.linalg.eig(op)
        scale = max(1.0, float(np.max(np.abs(vals))))
        gaps_ok = all(
            abs(vals[i] - vals[j]) > 1e-6 * scale for i in range(m) for j in range(i + 1, m)
        )
        if not gaps_ok:
            continue
        idems = []
        for i in range(m):
            v = z @ vecs[:, i]
            v2 = algebra.mul(v, v)
            lam = complex(np.vdot(v, v2) / np.vdot(v, v))
            if abs(lam) < 1e-12:
                break
            e = v / lam
            if np.linalg.norm(algebra.mul(e, e) - e) > 1e-6 * max(1.0, np.linalg.norm(e)):
                break
            idems.append(e)
        else:
            total = np.sum(idems, axis=0)
            if np.linalg.norm(total - center.project(algebra.unit)) <= 1e-6 * max(
                1.0, np.linalg.norm(total)
            ):
                return idems
    raise NotSemisimple("could not split the center into minimal idempotents")


def _support_key(v, tol: Tolerance):
    v = np.asarray(v)
    cut = 1e-8 * max(1.0, float(np.max(np.abs(v))))
    return tuple(int(i) for i in np.flatnonzero(np.abs(v) > cut))


def block_decomposition(algebra: FinDimAlgebra, tol: Tolerance | None = None) -> BlockDecomposition:
    """Wedderburn decomposition of a semisimple algebra into full matrix blocks.

    Raises :class:`NotSemisimple` on degenerate trace form and
    :class:`NonIntegerBlockSize` if some central block is not a full matrix
    algebra over C.
    """
    tol = get_tol(tol)
    if not algebra.is_semisimple(tol):
        raise NotSemisimple(f"{algebra.name}: regular trace form is degenerate")
    center = algebra.center(tol)
    idems = _minimal_central_idempotents(algebra, center, tol)
    blocks = []
    for e in idems:
        image = Subspace(algebra.left_mult(e), algebra.dim, tol)
        d = image.dim
        size = int(round(np.sqrt(d)))
        if abs(size * size - d) > 0 or abs(np.sqrt(d) - size) > INT_ROUNDING_TOL:
            raise NonIntegerBlockSize(f"central block of dimension {d} is not a square")
        blocks.append(Block(e, size, image))
    blocks.sort(key=lambda b: (b.size, _support_key(b.central_idempotent, tol)))
    return BlockDecomposition(blocks)


def induced_algebra(
    algebra: FinDimAlgebra,
    subspace: Subspace,
    unit_vec=None,
    tol: Tolerance | None = None,
    name: str | None = None,
) -> tuple[FinDimAlgebra, np.ndarray]:
    """Algebra structure on a multiplicatively closed subspace.

    Returns ``(B, Q)`` where Q's orthonormal columns are the chosen basis and
    ``B`` has the structure constants of the restriction.  Raises
    :class:`ValidationError` ("subalgebra-closure") when products leave the
    span.  ``unit_vec`` defaults to the ambient unit (which must then lie in
    the subspace).
    """
    tol = get_tol(tol)
    q = subspace.basis
    m = q.shape[1]
    unit_vec = algebra.unit if unit_vec is None else np.asarray(unit_vec, dtype=complex).ravel()
    if subspace.distance(unit_vec) > tol.bound(np.linalg.norm(unit_vec)) * 10:
        raise ValidationError("subalgebra-unit", subspace.distance(unit_vec), tol.bound(1.0))
    c = np.zeros((m, m, m), dtype=complex)
    worst = 0.0
    for i in range(m):
        prod = algebra.left_mult(q[:, i]) @ q  # products q_i q_j stacked as columns
        coeff, _ = lstsq(q, prod, tol)
        worst = max(worst, float(np.linalg.norm(q @ coeff - prod)))
        c[i] = coeff.T
    if worst > tol.bound(float(np.linalg.norm(algebra.c))) * 10:
        raise ValidationError("subalgebra-closure", worst, tol.bound(1.0))
    unit_b, _ = lstsq(q, unit_vec, tol)
    involution = None
    if algebra.involution is not None:
        starred = algebra.involution @ np.conj(q)
        if all(subspace.contains_vector(starred[:, j]) for j in range(m)):
            involution, _ = lstsq(q, starred, tol)
    b = FinDimAlgebra(c, unit_b, involution=involution, name=name or f"{algebra.name}|sub")
    return b, q


def inclusion_matrix(algebra: FinDimAlgebra, sub: Subspace, tol: Tolerance | None = None):
    """Bratteli inclusion matrix Lambda of a unital subalgebra B in A.

    ``Lambda[mu, q]`` is the multiplicity of the B-block ``mu`` inside the
    restriction of the A-block ``q``, computed as the trace of a minimal
    idempotent of the ``mu`` block in the irreducible representation ``q``.
    Returns ``(Lambda, blocks_B, blocks_A)``.
    """
    tol = get_tol(tol)
    blocks_a = algebra.block_decomposition(tol)
    b_alg, q = induced_algebra(algebra, sub, tol=tol, name=f"{algebra.name}|B")
    blocks_b = b_alg.block_decomposition(tol)
    lam = np.zeros((len(blocks_b.blocks), len(blocks_a.blocks)), dtype=int)
    for mu, bb in enumerate(blocks_b.blocks):
        p_b = _minimal_idempotent_in_block(b_alg, bb, tol)
        p = q @ p_b  # back to ambient coordinates
        for qi, ba in enumerate(blocks_a.blocks):
            tr = algebra.block_trace(ba, p)
            lam[mu, qi] = round_to_int(tr, f"inclusion multiplicity ({mu},{qi})")
    sizes_a = np.array([b.size for b in blocks_a.blocks])
    sizes_b = np.array([b.size for b in blocks_b.blocks])
    if not np.array_equal(sizes_b @ lam, sizes_a):
        raise ValidationError("inclusion-dimension-count", float(np.max(np.abs(sizes_b @ lam - sizes_a))), 0.0)
    return lam, blocks_b, blocks_a


def _minimal_idempotent_in_block(algebra: FinDimAlgebra, block: Block, tol: Tolerance):
    """Rank-one idempotent inside one matrix block, via a generic spectral projector."""
    if block.size == 1:
        return block.central_idempotent
    q = block.subspace.basis
    m2 = q.shape[1]
    for attempt in range(8):
        t = rng(1000 + attempt).standard_normal(m2) + 1j * rng(2000 + attempt).standard_normal(m2)
        g = q @ t
        op = q.conj().T @ algebra.left_mult(g) @ q
        vals = np.linalg.eigvals(op)
        # eigenvalues of g as a matrix appear with multiplicity = block size
        vals = np.sort_complex(vals)
        distinct: list[complex] = []
        for lam in vals:
            if not distinct or abs(lam - distinct[-1]) > 1e-6 * max(1.0, np.abs(vals).max()):
                distinct.append(complex(lam))
        if len(distinct) != block.size:
            continue
        lam0 = distinct[0]
        p = block.central_idempotent
        for lam in distinct[1:]:
            p = algebra.mul(p, (g - lam * block.central_idempotent) / (lam0 - lam))
        if np.linalg.norm(algebra.mul(p, p) - p) <= 1e-7 * max(1.0, np.linalg.norm(p)):
            return p
    raise NotSemisimple("failed to build a minimal idempotent (degenerate generic element)")


@dataclass
class MarkovTrace:
    """Markov trace data of one connected inclusion component."""

    index: float
    weights: np.ndarray  # trace of a minimal projection per A-block (component order)
    block_indices: tuple[int, ...]  # positions into the full A block list

    def trace(self, algebra: FinDimAlgebra, blocks: BlockDecomposition, a) -> complex:
        val = 0.0 + 0.0j
        for w, qi in zip(self.weights, self.block_indices):
            val += w * algebra.block_trace(blocks.blocks[qi], a)
        return complex(val)


def markov_trace(algebra: FinDimAlgebra, sub: Subspace, tol: Tolerance | None = None):
    """Markov trace and index of the inclusion B ⊂ A.

    For a connected inclusion returns a single :class:`MarkovTrace` whose
    ``index`` is the Perron eigenvalue of Lambda^T Lambda.  For a reducible
    inclusion graph, returns one :class:`MarkovTrace` per connected component.
    """
    tol = get_tol(tol)
    lam, blocks_b, blocks_a = inclusion_matrix(algebra, sub, tol)
    nb, na = lam.shape
    # connected components of the bipartite graph on (rows + cols)
    adj = lam > 0
    comp_of_col = [-1] * na
    comps: list[tuple[list[int], list[int]]] = []
    seen_rows: set[int] = set()
    for start in range(nb):
        if start in seen_rows:
            continue
        rows, cols = {start}, set()
        frontier = [("r", start)]
        while frontier:
            kind, i = frontier.pop()
            if kind == "r":
                for j in np.flatnonzero(adj[i]):
                    if j not in cols:
                        cols.add(int(j))
                        frontier.append(("c", int(j)))
            else:
                for r in np.flatnonzero(adj[:, i]):
                    if r not in rows:
                        rows.add(int(r))
                        frontier.append(("r", int(r)))
        seen_rows |= rows
        comps.append((sorted(rows), sorted(cols)))
        for j in cols:
            comp_of_col[j] = len(comps) - 1
    if any(c == -1 for c in comp_of_col):
        raise NotConnected("an A-block receives nothing from B (not a unital inclusion?)")
    results = []
    sizes_a = np.array([b.size for b in blocks_a.blocks], dtype=float)
    for rows, cols in comps:
        lam_c = lam[np.ix_(rows, cols)].astype(float)
        gram = lam_c.T @ lam_c
        if not is_irreducible_nonneg(gram, tol):
            raise NotConnected("component graph unexpectedly reducible")
        index, s = perron_frobenius(gram, tol)
        weights = s / float(sizes_a[cols] @ s)  # trace(component unit) = 1
        results.append(MarkovTrace(index=float(index), weights=weights, block_indices=tuple(cols)))
    return results[0] if len(results) == 1 else results


@dataclass
class GnsRep:
    """GNS representation of a positive functional on a *-algebra.

    ``iso`` has r columns; coordinates of (the class of) an element ``a`` are
    ``iso^* gram a`` and the represented operator of ``x`` is
    ``iso^* gram L(x) iso``, which is a *-representation.
    """

    algebra: FinDimAlgebra
    functional: np.ndarray
    gram: np.ndarray
    iso: np.ndarray

    @property
    def dim(self) -> int:
        return self.iso.shape[1]

    @property
    def faithful(self) -> bool:
        return self.dim == self.algebra.dim

    def vector(self, a):
        return self.iso.conj().T @ (self.gram @ np.asarray(a, dtype=complex).ravel())

    def rep(self, x):
        return self.iso.conj().T @ self.gram @ self.algebra.left_mult(x) @ self.iso

    def element_from_operator(self, m):
        """The element represented by ``m`` (faithful case only)."""
        if not self.faithful:
            raise RankDeficient("functional is not faithful; operators do not pull back")
        k = self.iso.conj().T @ self.gram
        return np.linalg.solve(k, np.asarray(m, dtype=complex) @ self.vector(self.algebra.unit))


def gns_rep(algebra: FinDimAlgebra, functional, tol: Tolerance | None = None) -> GnsRep:
    """GNS construction for the functional ``a -> functional @ a``.

    Requires a *-algebra and a positive functional (Hermitian positive
    semidefinite Gram matrix ``G[i,j] = phi(e_i* e_j)``); raises
    :class:`NotPositive` otherwise.  Null directions are quotiented away.
    """
    tol = get_tol(tol)
    if algebra.involution is None:
        raise NoInvolution(f"{algebra.name} carries no involution")
    phi = np.asarray(functional, dtype=complex).ravel()
    stars = algebra.involution  # column i holds the coordinates of e_i*
    gram = np.einsum("pi,pjk,k->ij", stars, algebra.c, phi, optimize=True)  # phi(e_i* e_j)
    herm = float(np.linalg.norm(gram - gram.conj().T))
    scale = max(1.0, float(np.linalg.norm(gram)))
    if herm > 1e-9 * scale:
        raise NotPositive(f"Gram matrix of the functional is not Hermitian (residual {herm:.3e})")
    gram = (gram + gram.conj().T) / 2
    vals, vecs = np.linalg.eigh(gram)
    if vals.size and vals[0] < -1e-9 * scale:
        raise NotPositive(f"functional is not positive (Gram eigenvalue {vals[0]:.3e})")
    keep = vals > 1e-12 * scale
    iso = vecs[:, keep] / np.sqrt(vals[keep])
    return GnsRep(algebra=algebra, functional=phi, gram=gram, iso=iso)


@dataclass
class WatataniIndex:
    """Index element of a conditional expectation, with its scalar part if any."""

    element: np.ndarray
    scalar: complex | None
    quasi_basis: np.ndarray  # T[i,j] with sum_ij T[i,j] e_i E(e_j x) = x

    @property
    def is_scalar(self) -> bool:
        return self.scalar is not None


def watatani_index(algebra: FinDimAlgebra, expectation, tol: Tolerance | None = None) -> WatataniIndex:
    """Watatani index of a conditional expectation E : A -> B = ran E.

    ``expectation`` is the matrix of E in the algebra basis.  Solves the
    two-sided quasi-basis equations ``sum u_i E(v_i x) = x = sum E(x u_i) v_i``
    for a tensor ``T = sum u_i (x) v_i``; any two-sided solution yields the
    same index element ``sum u_i v_i``.
    """
    tol = get_tol(tol)
    e = np.asarray(expectation, dtype=complex)
    n = algebra.dim
    if e.shape != (n, n):
        raise DimensionMismatch(f"expectation must be ({n},{n})")
    scale = max(1.0, float(np.linalg.norm(e)))
    checks = AxiomReport("conditional expectation")
    checks.add("idempotent", np.linalg.norm(e @ e - e), tol.bound(scale**2) * 10)
    checks.add("unital", np.linalg.norm(e @ algebra.unit - algebra.unit), tol.bound(scale) * 10)
    ran = Subspace(e, n, tol)
    for j in range(ran.dim):
        b = ran.basis[:, j]
        lb, rb = algebra.left_mult(b), algebra.right_mult(b)
        checks.add(f"left-module-map[{j}]", np.linalg.norm(lb @ e - e @ lb), tol.bound(scale**2) * 100)
        checks.add(f"right-module-map[{j}]", np.linalg.norm(rb @ e - e @ rb), tol.bound(scale**2) * 100)
    if algebra.involution is not None:
        inv = algebra.involution
        checks.add("star-preserving", np.linalg.norm(e @ inv - inv @ np.conj(e)), tol.bound(scale) * 10)
    if not checks.ok:
        worst = max(checks.failures, key=lambda c: c.residual)
        raise NotConditionalExpectation(f"{worst.name}: residual {worst.residual:.3e}")

    c = algebra.c
    l1 = np.einsum("jlp,mp,imk->klij", c, e, c, optimize=True).reshape(n * n, n * n)
    l2 = np.einsum("lip,mp,mjk->klij", c, e, c, optimize=True).reshape(n * n, n * n)
    target = np.eye(n, dtype=complex).reshape(n * n)
    t, resid = lstsq(np.vstack([l1, l2]), np.concatenate([target, target]), tol)
    if resid > 1e-7 * np.sqrt(n):
        raise NoQuasiBasis(f"no quasi-basis within tolerance (residual {resid:.3e})")
    t = t.reshape(n, n)
    element = np.einsum("ij,ijk->k", t, c)
    lam = complex(np.vdot(algebra.unit, element) / np.vdot(algebra.unit, algebra.unit))
    scalar = lam if np.linalg.norm(element - lam * algebra.unit) <= 1e-7 * max(1.0, abs(lam)) else None
    return WatataniIndex(element=element, scalar=scalar, quasi_basis=t)
