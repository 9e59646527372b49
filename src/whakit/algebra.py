"""Finite-dimensional associative algebras given by structure constants.

An algebra lives on C^n with a rank-3 tensor ``c`` fixing products of basis
vectors, ``e_i e_j = sum_k c[i,j,k] e_k``, a unit vector, and an optional
antilinear involution ``a* = inv @ conj(a)``.  On top of that this module
provides the structural toolbox used everywhere else: center and commutants,
Wedderburn block decomposition, inclusion matrices of unital subalgebras,
Markov traces, and Watatani index of a conditional expectation.  Whether an
algebra is semisimple, its center, blocks and Wedderburn map are kept per
tolerance in ``derived(tol)``, an :class:`AlgebraDerived`.

Six primitives of :class:`FinDimAlgebra` read the structure constants (its
docstring lists them), and everything else, here and in :mod:`whakit.actions`,
reads an algebra through them.  An algebra has one of two storages: the
(n, n, n) array ``c`` of :class:`FinDimAlgebra`; or, in
:class:`WedderburnAlgebra`, k x k matrices that span a commutant ⊕_l M_{m_l}
(x) 1, held as the block sizes m_l and the (n, n) coordinates T of the
matrices in its matrix units, which is how
:func:`whakit.actions.crossed_product` returns the crossed product of a
Galois action.  The second overrides the six primitives and never forms c.

Commutants are kernels of stacked commutator rows ``L(g) - R(g)``, formed for
all generators at once by one GEMM against the (n, n^2) view of the structure
constants and one batched GEMM against them.  The center has two
routes: below :data:`CENTER_FROM_PAIR_DIM` the kernel of the (n^2, n) system
over all basis vectors; from there on the commutant of two seeded random
elements, which is returned only when certified central against that system's
Frobenius norm, the dense kernel deciding otherwise (see
:meth:`FinDimAlgebra.center`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import INT_ROUNDING_TOL, Derived, HasDerived, Tolerance, gaussian, get_tol, rng, round_to_int
from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    NoInvolution,
    NonIntegerBlockSize,
    NonIntegerMultiplicity,
    NoQuasiBasis,
    NotConditionalExpectation,
    NotConnected,
    NotPositive,
    NotSemisimple,
    RankDeficient,
    ValidationError,
)
from .linalg import (
    Subspace,
    _positive_qr,
    contract,
    idempotent_ranges,
    is_irreducible_nonneg,
    kernel,
    lstsq,
    matrix_rank,
    orth_stack,
    perron_frobenius,
)
from .report import AxiomReport

__all__ = [
    "FinDimAlgebra",
    "WedderburnAlgebra",
    "Block",
    "BlockDecomposition",
    "block_decomposition",
    "WedderburnMap",
    "relative_tensor_carrier",
    "inclusion_matrix",
    "MarkovTrace",
    "markov_trace",
    "WatataniIndex",
    "watatani_index",
    "induced_algebra",
    "GnsRep",
    "gns_rep",
]


class AlgebraDerived(Derived):
    """Whether an algebra is semisimple, its center, blocks, Wedderburn map and associativity
    residual at one tolerance, the last four computed by the storage's ``_center``,
    ``_decompose``, ``_wedderburn`` and ``_associativity``."""

    @cached_property
    def semisimple(self) -> bool:
        t = self.owner._trace_gram
        norm = float(np.linalg.norm(t))
        return bool(norm > 0.0 and matrix_rank(t / norm, self.tol) == self.owner.dim)

    @cached_property
    def center(self) -> Subspace:
        return self.owner._center(self.tol)

    @cached_property
    def blocks(self) -> "BlockDecomposition":
        if not self.owner.is_semisimple(self.tol):
            raise NotSemisimple(f"{self.owner.name}: regular trace form is degenerate")
        return self.owner._decompose(self.tol)

    @cached_property
    def wedderburn(self) -> "WedderburnMap":
        return self.owner._wedderburn(self.tol)

    @cached_property
    def associativity(self) -> tuple[float, bool]:
        """The residual of the associativity row of ``validate``, and whether it is a certified
        upper bound on :func:`_dense_associator_norm` (True) or that norm itself (False)."""
        return self.owner._associativity(self.tol)


class FinDimAlgebra(HasDerived):
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

    ``c`` is the one (n, n, n) array an algebra of this class holds.  The
    primitives :meth:`_left_stack`, :meth:`_right_stack`, :meth:`regular_trace`,
    :meth:`trace_form`, :attr:`norm` and :meth:`homomorphism_defect` read it,
    and are what the other storage, :class:`WedderburnAlgebra` (matrices Pi_i
    with ``e_i = Pi_i``), overrides together with the star row
    :meth:`_star_defect`; only the dense associativity row of :meth:`validate`
    and :func:`watatani_index` read ``c`` besides in this module.
    What the algebra derives at a tolerance is kept in ``derived(tol)``, an
    :class:`AlgebraDerived`.
    """

    Derived = AlgebraDerived

    def __init__(self, structure_constants, unit, involution=None, basis_labels=None, name="algebra"):
        c = np.asarray(structure_constants, dtype=complex)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatch(f"structure constants must be (n,n,n), got {c.shape}")
        self.c = c
        self._attach(c.shape[0], unit, involution, basis_labels, name)

    def _attach(self, n: int, unit, involution, basis_labels, name: str):
        """Check and set what every storage shares: dimension, unit, involution, labels and name."""
        unit = np.asarray(unit, dtype=complex).ravel()
        if unit.shape != (n,):
            raise DimensionMismatch(f"unit must have shape ({n},), got {unit.shape}")
        if involution is not None:
            involution = np.asarray(involution, dtype=complex)
            if involution.shape != (n, n):
                raise DimensionMismatch(f"involution must be ({n},{n}), got {involution.shape}")
        if basis_labels is not None and len(basis_labels) != n:
            raise DimensionMismatch("one basis label per basis vector")
        self.dim = n
        self.unit = unit
        self.involution = involution
        self.basis_labels = list(basis_labels) if basis_labels is not None else [f"e{i}" for i in range(n)]
        self.name = name

    # -- arithmetic ---------------------------------------------------------

    def basis_vector(self, i: int):
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return v

    def mul(self, a, b):
        return self.left_mult(a) @ np.asarray(b, dtype=complex).ravel()

    def left_mult(self, a):
        """Matrix of x -> a x."""
        return self._left_stack(np.asarray(a, dtype=complex).reshape(-1, 1))[0]

    def right_mult(self, a):
        """Matrix of x -> x a."""
        return self._right_stack(np.asarray(a, dtype=complex).reshape(-1, 1))[0]

    def _left_stack(self, g):
        """The (m, n, n) stack of L(g_k) over the m columns g_k of ``g``, one GEMM."""
        n = self.dim
        return (g.T @ self.c.reshape(n, n * n)).reshape(-1, n, n).transpose(0, 2, 1)

    def _right_stack(self, g):
        """The (m, n, n) stack of R(g_k) over the m columns g_k of ``g``, one batched GEMM."""
        return (g.T @ self.c).transpose(1, 2, 0)

    def _left_products(self, g, h):
        """The (m, n, j) coordinates of the products ``g_k h_l`` at [k, :, l], for the columns of ``g`` and ``h``.

        ``_left_stack(g) @ h`` here; a storage that multiplies two elements
        without forming L(g_k) overrides it."""
        return self._left_stack(g) @ h

    @cached_property
    def norm(self) -> float:
        """The Frobenius norm of the structure constants, the scale of the product."""
        return float(np.linalg.norm(self.c))

    def homomorphism_defect(self, images, into: "FinDimAlgebra | None" = None) -> float:
        """Frobenius norm of ``f(e_i e_j) - f(e_i) f(e_j)`` over all basis pairs.

        f is ``e_k -> images[k]`` for an (n, k, k) stack of matrices or, with
        ``into``, the (into.dim, n) matrix ``images`` of a linear map into that
        algebra, whose products are ``into._left_products``.  16 values of i at a
        time, so no (n, n, k, k) array is formed.
        """
        n = self.dim
        flat = images.reshape(n, -1) if into is None else images.T
        acc = 0.0
        for lo in range(0, n, 16):
            sl = slice(lo, lo + 16)
            want = self.c[sl] @ flat  # f(e_i e_j) over i in sl, j
            if into is None:
                got = np.matmul(images[sl, None], images[None]).reshape(want.shape)
            else:
                got = into._left_products(images[:, sl], images).transpose(0, 2, 1)
            acc += float(np.linalg.norm(want - got)) ** 2
        return float(np.sqrt(acc))

    def _star_defect(self) -> float:
        """Frobenius norm of ``(e_i e_j)* - e_j* e_i*`` over all basis pairs, the star row of :meth:`validate`."""
        return _antimultiplicative_norm(self.c, self.involution, antilinear=True)

    def _commutator_stack(self, g):
        """The (m * n, n) rows of L(g_k) - R(g_k) over the m columns g_k of ``g``."""
        return (self._left_stack(g) - self._right_stack(g)).reshape(-1, self.dim)

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

        The associativity residual is computed once per tolerance and kept in
        ``derived(tol).associativity``, with whether it is the certificate.
        """
        return _validated(self, get_tol(tol))

    def _associativity(self, tol: Tolerance) -> tuple[float, bool]:
        """The associativity row of :meth:`validate`, kept in ``derived(tol)``: see :func:`_certified_or_dense`."""
        bound = _associator_bound(self, tol) if self.dim >= CERTIFY_ASSOCIATIVITY_FROM_DIM else None
        return _certified_or_dense(self, bound, tol)

    # -- trace and semisimplicity ------------------------------------------

    def regular_trace(self, a) -> complex:
        """Trace of left multiplication by ``a`` on the algebra itself."""
        return complex(np.einsum("i,ikk->", np.asarray(a, dtype=complex).ravel(), self.c))

    def trace_form(self):
        """Gram matrix T[i,j] = Tr(L(e_i) L(e_j)) = sum_ab c[i,a,b] c[j,b,a] of the regular trace form.

        Summed as (n, 16 n) @ (16 n, n) GEMMs over 16 values of a at a time, a
        view of c times a copy of 16 n^2 entries: no (n, n, n) array is formed.
        """
        n, c = self.dim, self.c
        t = np.zeros((n, n), dtype=complex)
        for lo in range(0, n, 16):
            sl = slice(lo, lo + 16)
            t += c[:, sl].reshape(n, -1) @ c[:, :, sl].transpose(0, 2, 1).reshape(n, -1).T
        return t

    @cached_property
    def _trace_gram(self) -> np.ndarray:
        """:meth:`trace_form`, once: :meth:`is_semisimple` and :meth:`WedderburnAlgebra._star_form` read it."""
        return self.trace_form()

    def is_semisimple(self, tol: Tolerance | None = None) -> bool:
        """Whether ``matrix_rank(T / |T|_F) == n`` for the trace form T (scale-free; T = 0 is not), once per tolerance."""
        return self.derived(tol).semisimple

    # -- structure ----------------------------------------------------------

    def center(self, tol: Tolerance | None = None) -> Subspace:
        """Elements commuting with the whole algebra, computed once per tolerance by :meth:`_center`."""
        return self.derived(tol).center

    def _center(self, tol: Tolerance) -> Subspace:
        """The center: the kernel of the (n^2, n) system S whose row block i is
        ``L(e_i) - R(e_i)``.  Two routes compute it, chosen by the dimension n:

        * below :data:`CENTER_FROM_PAIR_DIM`, the kernel of S itself, O(n^4);
        * from that dimension on (the measured crossover, recorded at the
          constant), the commutant Z of two seeded complex Gaussian elements
          g_1, g_2, the kernel of the (2n, n) stack of :meth:`commutant_in`,
          O(n^3).  A semisimple algebra is generated by two generic elements,
          so Z is then the center.  Z always contains the center, since the
          rows of the stack are combinations of the rows of S.  Z is returned
          only when it is certified central: ``|S Z|_F``, the norm of the
          commutator stack of Z's columns, O(n^3 dim Z), must not exceed
          ``tol.bound(|S|_F)``, and |S|_F bounds the sigma_max against which
          the kernel of S is cut.  The pair's own rows certify first, as
          ``|S|_F >= |L(g) - R(g)|_F / |g|`` (Cauchy-Schwarz); |S|_F itself is
          summed over 16 row blocks of S only when that does not suffice.
          Otherwise, as when the pair does not generate the algebra or the
          algebra is not semisimple, the kernel of S decides.
        """
        n, eye = self.dim, np.eye(self.dim)
        if n >= CENTER_FROM_PAIR_DIM:
            pair = _generic_pair(n)
            rows = self._commutator_stack(pair)
            z = kernel(rows, tol)
            # column i of L(z_l) - R(z_l) is [z_l, e_i], so this stack holds the entries of -S Z
            resid = float(np.linalg.norm(self._commutator_stack(z)))
            low = max(np.linalg.norm(r) / np.linalg.norm(g) for r, g in zip(rows.reshape(2, n, n), pair.T))
            slices = (self._commutator_stack(eye[:, lo : lo + 16]) for lo in range(0, n, 16))
            if resid <= tol.bound(low) or resid <= tol.bound(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in slices))):
                return Subspace(z, n, tol)
        return Subspace(kernel(self._commutator_stack(eye), tol), n, tol)

    def commutant_in(self, generators, tol: Tolerance | None = None) -> Subspace:
        """Elements of A commuting with the generators.

        The kernel of the (m n, n) stack of ``L(g_k) - R(g_k)`` over the m
        generators, formed by :meth:`_commutator_stack` from one GEMM against
        the (n, n^2) view of the structure constants and one batched GEMM
        against them, O(m n^3).
        """
        tol = get_tol(tol)
        gens = [np.asarray(g, dtype=complex).ravel() for g in generators]
        if not gens:
            return Subspace(np.eye(self.dim), self.dim, tol)
        return Subspace(kernel(self._commutator_stack(np.column_stack(gens)), tol), self.dim, tol)

    def block_decomposition(self, tol: Tolerance | None = None) -> "BlockDecomposition":
        """Wedderburn blocks, computed once per tolerance: :func:`block_decomposition` of this algebra."""
        return block_decomposition(self, tol)

    def _decompose(self, tol: Tolerance) -> "BlockDecomposition":
        """The blocks of a semisimple algebra, split from its center by minimal central idempotents."""
        idems = _minimal_central_idempotents(self, self.center(tol), tol)
        blocks = []
        # the ideals e A, each orth(L(e)), from one batched SVD
        for e, image in zip(idems, orth_stack(self._left_stack(np.column_stack(idems)), tol)):
            d = image.shape[1]
            size = int(round(np.sqrt(d)))
            if abs(size * size - d) > 0 or abs(np.sqrt(d) - size) > INT_ROUNDING_TOL:
                raise NonIntegerBlockSize(f"central block of dimension {d} is not a square")
            blocks.append(Block(e, size, Subspace.orthonormal(image, tol)))
        blocks.sort(key=lambda b: (b.size, _support_key(b.central_idempotent, tol)))
        return BlockDecomposition(blocks)

    def wedderburn_map(self, tol: Tolerance | None = None) -> "WedderburnMap":
        """The Wedderburn map on the blocks of :meth:`block_decomposition`, computed once per tolerance.

        Raises what :func:`block_decomposition` raises, and
        :class:`CrossCheckMismatch` when a left ideal ``A p`` does not have the
        dimension of its block or the blocks do not add up to the algebra.
        """
        return self.derived(tol).wedderburn

    def _wedderburn(self, tol: Tolerance) -> "WedderburnMap":
        """The Wedderburn map, computed on the orthonormal left ideals ``A p``."""
        blocks = self.block_decomposition(tol)
        # the left ideals A p, each orth(R(p)), from one batched SVD
        minimal = np.column_stack([_minimal_idempotent_in_block(self, b, tol) for b in blocks])
        ideals = orth_stack(self._right_stack(minimal), tol)
        for v, b in zip(ideals, blocks):
            if v.shape[1] != b.size:
                raise CrossCheckMismatch(f"ideal carrier {v.shape[1]} != block size {b.size}")
        if sum(b.size**2 for b in blocks) != self.dim:
            raise CrossCheckMismatch(f"blocks {blocks.sizes} do not fill an algebra of dimension {self.dim}")
        # phi_q(e_i)[r, s] = (V_q^H R(v_s))[r, i], v_s the columns of V_q
        phis = [(v.conj().T @ self._right_stack(v)).transpose(2, 1, 0) for v in ideals]
        return WedderburnMap(blocks, ideals, phis)

    def block_trace(self, block: "Block", x) -> complex:
        """Trace of ``x`` in the irreducible representation of ``block``: tr(z_q x) / n_q."""
        return self.regular_trace(self.mul(block.central_idempotent, x)) / block.size


#: What :meth:`FinDimAlgebra.wedderburn_map` raises when the algebra does not
#: decompose at the tolerance; the routes built on it then defer to a dense one.
_NO_DECOMPOSITION = (NotSemisimple, NonIntegerBlockSize, CrossCheckMismatch, np.linalg.LinAlgError)

#: Dimension from which :meth:`FinDimAlgebra.validate` certifies associativity
#: through the Wedderburn map instead of the dense loop.  Dense loop vs. block
#: decomposition plus certificate, timed on the smash products when they were
#: still held densely (minimum of 7 runs, 2 vCPUs, numpy 2.4, OpenBLAS): n = 16:
#: 1.0 vs. 2.2 ms; n = 25: 5.7 vs. 4.5 ms; n = 27: 7.4 vs. 6.5 ms; n = 36: 22
#: vs. 8.4 ms; n = 64: 0.44 s vs. 0.09 s; n = 89: 2.0 s vs. 0.19 s.  Below 32
#: the gain is at most about a millisecond and a decomposition that nothing
#: else may reuse is a cost.  The dense algebras that reach the cut today are
#: Ising's A and Â (n = 34), crossed products on the dense route and dense
#: copies in tests; every dense algebra the benchmark validates has n <= 16,
#: and a :class:`WedderburnAlgebra` certifies through its matrices instead.
CERTIFY_ASSOCIATIVITY_FROM_DIM = 32

#: Dimension from which :meth:`FinDimAlgebra.center` takes the certified
#: commutant of two generic elements instead of the kernel of the (n^2, n)
#: commutator system.  Dense kernel vs. certified pair (minimum of 7 runs,
#: 2 vCPUs, 1 BLAS thread, numpy 2.4, OpenBLAS; ranges over two sessions and
#: canonical and rotated bases; the smash products held densely): n = 13 (m23):
#: 0.22 vs. 0.41 ms; n = 16 (p4): 0.27 vs. 0.43 ms; n = 27 (p3 and fp3 smash):
#: 0.51-1.02 vs. 0.58-1.35 ms; n = 36 (s3 smash): 1.8-2.4 vs. 1.0-1.9 ms; n = 64
#: (p4 smash, Z_8 translation): 16-21 vs. 3.9-6.5 ms; n = 89 (m23 smash): 76-92
#: vs. 10-22 ms.  The inputs of the cut above reach it, and the benchmark's do
#: not; a :class:`WedderburnAlgebra` reads its center off its blocks.
CENTER_FROM_PAIR_DIM = 32


def _generic_pair(n: int) -> np.ndarray:
    """Two seeded complex Gaussian elements, the columns of an (n, 2) matrix."""
    gen = rng()
    return gen.standard_normal((n, 2)) + 1j * gen.standard_normal((n, 2))


class WedderburnAlgebra(FinDimAlgebra):
    """A *-algebra held as k x k matrices that span a commutant ⊕_l M_{m_l} ⊗ 1, in Wedderburn form.

    Parameters
    ----------
    ops : (n, k, k) array
        ``ops[i] = Pi_i``, the matrix of basis vector e_i, so that ``e_i e_j``
        is the element whose matrix is ``Pi_i Pi_j``.
    frames : list of pairs ``(embed, restrict)``, one per block l
        ``embed`` (n_l, k, m_l) and ``restrict`` (n_l, m_l, k) with
        ``restrict[j] @ embed[j'] = delta_jj' 1``, whose n_l ranges ``embed[j]``
        add up to C^k.  The matrix units of the commutant are ``E_lab =
        sum_j embed[j][:, a] restrict[j][b, :]``, and the range of
        ``embed[0]`` is invariant under every Pi_i.
    unit, involution, name
        As for :class:`FinDimAlgebra`.

    Block l of the Wedderburn map is ``phi_l(e_i) = restrict[0] Pi_i
    embed[0]``; the (n, n) matrix T, column i stacking the row-major blocks of
    phi(e_i), is the algebra's one coordinate change, and ``c[i, j] = T^-1
    vec(phi(e_i) phi(e_j))``.  The constructor needs ``sum_l m_l^2 = n``.  It
    computes :attr:`singular_values` of the (k^2, n) matrix Pi whose column i
    is ``vec(Pi_i)`` (values only), :attr:`norm` ``|c|_F`` exactly from ``P =
    T T^H`` and ``Q = P^-1`` as ``sum Q[(l a b), (m a' b')] P[(m a' c'), (l a
    c)] P[(m c' b'), (l c b)]``, at most O(n^3), and :attr:`closure`, an upper
    bound on ``|Pi c[i, j] - Pi_i Pi_j|_F`` (how far the algebra's products
    are from the products of its matrices): with ``R = Pi - E T``, ``Pi c[i,
    j] - Pi_i Pi_j = R c[i, j] - R_i (E T)_j - (E T)_i R_j - R_i R_j``, so
    ``closure = r (|c|_F + 2 |E T|_F + r)`` for r, |R|_F plus the rounding of
    its terms (k eps times their norms).  No product of two Pi_i is formed.

    The primitives are the block products conjugated by T: ``L(x) = T^-1
    (⊕_l phi_l(x) ⊗ 1) T``, O(n^3) per generator; the regular trace is
    ``sum_l m_l tr phi_l(x)``; and :meth:`center`,
    :meth:`block_decomposition`, :meth:`wedderburn_map` and :meth:`block_trace`
    are read off the blocks.  :meth:`pullback` gives the coordinates of a
    matrix of the span.  :meth:`validate` certifies associativity through Pi,
    as :func:`_associator_certificate` does for any homomorphism, and the star
    row through the inner product G on C^k that the regular trace makes
    (:meth:`_star_bound`); each row falls back to its coordinate norm when its
    bound misses the threshold.  :attr:`c` builds the tensor on each read, for
    tests and that fallback; nothing else reads it.
    """

    def __init__(self, ops, frames, unit, involution=None, name="algebra"):
        ops = np.ascontiguousarray(ops, dtype=complex)
        n, k = ops.shape[0], ops.shape[1]
        if ops.shape != (n, k, k):
            raise DimensionMismatch(f"ops must be (n,k,k), got {ops.shape}")
        self.sizes = tuple(embed.shape[2] for embed, _ in frames)
        if sum(m * m for m in self.sizes) != n:
            raise DimensionMismatch(f"blocks {self.sizes} do not fill an algebra of dimension {n}")
        self.ops = ops
        self._attach(n, unit, involution, None, name)
        self._corners = [(embed[0], restrict[0]) for embed, restrict in frames]
        self.coords = self._wedderburn_coords(ops)
        self._inverse = np.linalg.inv(self.coords)
        resid = ops.copy()  # R = Pi - E T
        rounding = float(np.linalg.norm(ops))  # |Pi|_F + sum |E_j|_F |phi|_F |E_j'|_F bounds the terms of R
        for (embed, restrict), phi in zip(frames, self._blocks(self.coords)):
            for e_j, r_j in zip(embed, restrict):
                resid -= e_j @ phi @ r_j
                rounding += float(np.linalg.norm(e_j) * np.linalg.norm(phi) * np.linalg.norm(r_j))
        # R is known to within the rounding of its terms, k eps times their norms (a GEMM of depth k)
        r_norm = float(np.linalg.norm(resid)) + k * np.finfo(float).eps * rounding
        et_norm = float(np.linalg.norm(ops - resid))
        del resid
        self.norm = self._exact_norm()  # in place of the cached_property, which would read c
        self.closure = r_norm * (self.norm + 2.0 * et_norm + r_norm)
        self.singular_values = np.linalg.svd(ops.reshape(n, k * k).T, compute_uv=False)

    @property
    def c(self) -> np.ndarray:
        """The (n, n, n) structure constants, built on each read and not kept."""
        return np.ascontiguousarray(self._left_stack(np.eye(self.dim)).transpose(0, 2, 1))

    def validate(self, tol: Tolerance | None = None) -> AxiomReport:
        """The rows of :meth:`FinDimAlgebra.validate`, associativity certified through Pi, the star through G."""
        tol = get_tol(tol)
        star = self._star_bound() if self.involution is not None else None
        return _validated(self, tol, star)

    def _associativity(self, tol: Tolerance) -> tuple[float, bool]:
        """The associativity row, certified through Pi (:func:`_certified_or_dense`)."""
        phi_norm = float(np.linalg.norm(self.ops))
        bound = _associator_certificate(self.norm, phi_norm, self.closure, self.singular_values[-1])
        return _certified_or_dense(self, bound, tol)

    def _star_form(self) -> np.ndarray | None:
        """``G = sum_ij (K^-T)_ij Pi_i^H Pi_j``, or None when K is singular.

        ``K = S^T T`` is the Gram matrix ``tau(e_i* e_j)`` of the regular trace
        tau, S the matrix of the involution and T the cached trace form, and G
        is ``sum_a Pi(b_a)^H Pi(b_a)`` over a basis b_a orthonormal for ``<x, y>
        = tau(x* y)``.  Since tau is a trace, right multiplication by x* is the
        adjoint of right multiplication by x, so ``G Pi(x*) = Pi(x)^H G``
        whenever Pi is multiplicative: nothing is solved for.
        """
        ops = self.ops
        n, k = ops.shape[:2]
        try:
            weights = np.linalg.inv(self.involution.T @ self._trace_gram).T
        except np.linalg.LinAlgError:
            return None
        left = np.tensordot(weights.T, ops.conj().transpose(0, 2, 1), axes=1)  # sum_i W_ij Pi_i^H over j
        return left.transpose(1, 0, 2).reshape(k, n * k) @ ops.reshape(n * k, k)

    def _star_bound(self) -> float | None:
        """Upper bound on :meth:`_star_defect` through G of :meth:`_star_form`, or None.

        With ``D_i = G Pi(e_i*) - Pi_i^H G``, checked on every basis vector in
        O(n k^3), and R the closure defect, ``G Pi((e_i e_j)* - e_j* e_i*) =
        R_ij^H G + D((e_i e_j)) - Pi_j^H D_i - D_j Pi(e_i*) - G R(e_j*,
        e_i*)``, so summed over basis pairs ::

            |star row| <= |G^-1| / sigma_min(Pi) * (|G| (1 + |S|^2) |R|_F
                          + (|c|_F + |Pi|_F + |Pi S|_F) |D|_F),

        S the matrix of the involution and 2-norms unmarked.  None when K or G
        is singular.
        """
        g = self._star_form()
        if g is None:
            return None
        sv = np.linalg.svd(g, compute_uv=False)
        if not sv[-1] > 0.0:
            return None
        s, ops = self.involution, self.ops
        star_ops = np.tensordot(s, ops, axes=([0], [0]))  # Pi(e_i*), e_i* being column i of s
        d_norm = float(np.linalg.norm(g @ star_ops - ops.conj().transpose(0, 2, 1) @ g))
        s_norm = float(np.linalg.norm(s, 2))
        terms = (1.0 + s_norm**2) * self.closure
        terms += (self.norm + float(np.linalg.norm(ops)) + float(np.linalg.norm(star_ops))) * d_norm / sv[0]
        return float(sv[0] / sv[-1] / self.singular_values[-1] * terms)

    def _star_defect(self) -> float:
        """The star row from coordinates, over slices of j: column i of ``S conj(R(e_j))`` is
        ``(e_i e_j)*`` and of ``L(e_j*) S`` is ``e_j* e_i*``."""
        s, n = self.involution, self.dim
        width = _star_row_width(n)
        acc = 0.0
        for lo in range(0, n, width):
            sl = slice(lo, lo + width)
            diff = s @ np.conj(self._right_stack(np.eye(n)[:, sl])) - self._left_stack(s[:, sl]) @ s
            acc += float(np.linalg.norm(diff)) ** 2
        return float(np.sqrt(acc))

    def _wedderburn_coords(self, ops) -> np.ndarray:
        """The (n, m) Wedderburn coordinates of m matrices of the span, the row-major blocks ``restrict[0] X embed[0]``."""
        ops = np.asarray(ops, dtype=complex)
        return np.concatenate(
            [(restrict @ ops @ embed).reshape(ops.shape[0], -1) for embed, restrict in self._corners], axis=1
        ).T

    def pullback(self, ops) -> np.ndarray:
        """The (n, m) coordinates x with ``Pi(x) = X`` of m matrices X of the span, (m, k, k): ``T^-1`` of their blocks."""
        return self._inverse @ self._wedderburn_coords(ops)

    @cached_property
    def _offsets(self) -> list[slice]:
        """The rows of T that hold each block."""
        ends = np.cumsum([0] + [m * m for m in self.sizes])
        return [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]

    def _blocks(self, w) -> list[np.ndarray]:
        """The (s, m_l, m_l) blocks of the s columns of Wedderburn coordinates ``w`` (n, s)."""
        return [w[sl].T.reshape(-1, m, m) for sl, m in zip(self._offsets, self.sizes)]

    def _exact_norm(self) -> float:
        """``|c|_F`` from ``P = T T^H`` and ``Q = P^-1``, one GEMM per pair of blocks (l, m).

        With Q's block read as [a, b, a', b'] and P's as [a', c', a, c], the sum
        over (a, a') is the GEMM of Q as [(a, a'), (b, b')] with P as [(a, a'), (c',
        c)], and what is left pairs that with P as [(b, b'), (c', c)] = P[c', b', c, b].
        """
        p = self.coords @ self.coords.conj().T
        q = self._inverse.conj().T @ self._inverse
        acc = 0.0
        for sl, m in zip(self._offsets, self.sizes):
            for sm, mm in zip(self._offsets, self.sizes):
                q_lm = q[sl, sm].reshape(m, m, mm, mm).transpose(0, 2, 1, 3).reshape(m * mm, m * mm)
                p_ml = p[sm, sl].reshape(mm, mm, m, m)
                first = p_ml.transpose(2, 0, 1, 3).reshape(m * mm, mm * m)
                second = p_ml.transpose(3, 1, 0, 2).reshape(m * mm, mm * m)
                acc += float(np.sum((q_lm.T @ first) * second).real)
        return float(np.sqrt(max(acc, 0.0)))

    def _multiply(self, wg, wh, left: bool) -> np.ndarray:
        """Wedderburn coordinates of ``g_s h_j`` (``left``) or ``h_j g_s`` at [s, :, j], from the
        Wedderburn coordinates ``wg`` (n, s) and ``wh`` (n, j) of the factors."""
        out = []
        for a, b in zip(self._blocks(wg), self._blocks(wh)):
            prods = np.matmul(a[:, None], b[None]) if left else np.matmul(b[None], a[:, None])
            out.append(prods.reshape(a.shape[0], b.shape[0], -1).transpose(0, 2, 1))
        return np.concatenate(out, axis=1)

    def _left_stack(self, g):
        return self._inverse @ self._multiply(self.coords @ g, self.coords, left=True)

    def _right_stack(self, g):
        return self._inverse @ self._multiply(self.coords @ g, self.coords, left=False)

    def mul(self, a, b):
        wa, wb = (self.coords @ np.asarray(x, dtype=complex).reshape(-1, 1) for x in (a, b))
        return self._inverse @ self._multiply(wa, wb, left=True)[0, :, 0]

    def regular_trace(self, a) -> complex:
        a = np.asarray(a, dtype=complex).reshape(-1, 1)
        return complex(sum(m * np.trace(phi[0]) for m, phi in zip(self.sizes, self._blocks(self.coords @ a))))

    def trace_form(self):
        """``T[i, j] = sum_l m_l tr(phi_l(e_i) phi_l(e_j))``, one (n, n) x (n, n) GEMM."""
        swapped = [
            m * phi.transpose(0, 2, 1).reshape(self.dim, -1) for m, phi in zip(self.sizes, self._blocks(self.coords))
        ]
        return self.coords.T @ np.concatenate(swapped, axis=1).T

    def _left_products(self, g, h):
        return self._inverse @ self._multiply(self.coords @ g, self.coords @ h, left=True)

    def homomorphism_defect(self, images, into: FinDimAlgebra | None = None) -> float:
        """As :meth:`FinDimAlgebra.homomorphism_defect`, with ``f(e_i e_j) = F T^-1 vec(phi(e_i) phi(e_j))``
        for F the matrix of f, 16 values of i at a time."""
        n = self.dim
        flat = images.reshape(n, -1) if into is None else images.T
        through = flat.T @ self._inverse  # Wedderburn coordinates -> f(coordinates)
        acc = 0.0
        for lo in range(0, n, 16):
            sl = slice(lo, lo + 16)
            want = (through @ self._multiply(self.coords[:, sl], self.coords, left=True)).transpose(0, 2, 1)
            if into is None:
                got = np.matmul(images[sl, None], images[None]).reshape(want.shape)
            else:
                got = into._left_products(images[:, sl], images).transpose(0, 2, 1)
            acc += float(np.linalg.norm(want - got)) ** 2
        return float(np.sqrt(acc))

    def _block_units(self) -> np.ndarray:
        """The (n, number of blocks) coordinates of the blocks' identities, the minimal central idempotents."""
        w = np.zeros((self.dim, len(self.sizes)), dtype=complex)
        for col, (sl, m) in enumerate(zip(self._offsets, self.sizes)):
            w[sl, col] = np.eye(m).ravel()
        return self._inverse @ w

    def _center(self, tol: Tolerance) -> Subspace:
        """The span of the blocks' identities."""
        return Subspace(self._block_units(), self.dim, tol)

    def _decompose(self, tol: Tolerance) -> "BlockDecomposition":
        """The blocks ⊕_l M_{m_l}, after the semisimplicity check of :func:`block_decomposition`."""
        blocks = [
            Block(z, m, Subspace(self._inverse[:, sl], self.dim, tol))
            for z, sl, m in zip(self._block_units().T, self._offsets, self.sizes)
        ]
        blocks.sort(key=lambda b: (b.size, _support_key(b.central_idempotent, tol)))
        return BlockDecomposition(blocks)

    def _block_of(self, block: "Block") -> int:
        """The index l of ``block`` among the blocks of the Wedderburn form."""
        weights = [np.linalg.norm(phi) for phi in self._blocks(self.coords @ block.central_idempotent.reshape(-1, 1))]
        return int(np.argmax(weights))

    def _wedderburn(self, tol: Tolerance) -> "WedderburnMap":
        """phi_l of the form itself, in the order of :meth:`block_decomposition`; block l's ideal
        is spanned by the matrix units E_a1 of its first column (not orthonormal)."""
        blocks = self.block_decomposition(tol)
        order = [self._block_of(b) for b in blocks]
        phis, offsets = self._blocks(self.coords), self._offsets
        ideals = [self._inverse[:, offsets[l]][:, :: self.sizes[l]] for l in order]
        return WedderburnMap(blocks, ideals, [phis[l] for l in order])

    def block_trace(self, block: "Block", x) -> complex:
        """``tr phi_l(x)`` for the block l of ``block``, O(n^2)."""
        phi = self._blocks(self.coords @ np.asarray(x, dtype=complex).reshape(-1, 1))[self._block_of(block)]
        return complex(np.trace(phi[0]))


def _dense_associator_norm(c) -> float:
    """Frobenius norm of ``(e_i e_j) e_k - e_i (e_j e_k)`` over all basis triples, O(n^5).

    One i and 16 values of j at a time, so no (n, n, n) array is formed."""
    n = c.shape[0]
    flat_l = c.reshape(n, n * n)
    acc = 0.0
    for i in range(n):
        for lo in range(0, n, 16):
            sl = slice(lo, lo + 16)
            left = c[i, sl] @ flat_l  # (e_i e_j) e_k over j in sl, k
            right = (c[sl].reshape(-1, n) @ c[i]).reshape(left.shape)  # e_i (e_j e_k), the same order
            acc += float(np.linalg.norm(left - right)) ** 2
    return float(np.sqrt(acc))


def _covariance_defect(c_m, alpha, delta) -> float:
    """Frobenius norm of ``alpha_t(m_j m_k) - sum_pq Delta[p, q, t] alpha_p(m_j) alpha_q(m_k)`` over t, j, k.

    ``alpha`` (dim A, n, n) is a linear map of an algebra A with coproduct
    tensor ``delta`` (``Delta(e_t) = sum_pq delta[p, q, t] e_p (x) e_q``) into
    End(M), M with structure constants ``c_m`` (n, n, n).  With t and j in
    slices of 16, the right side is one GEMM of ``sum_q Delta[p, q, t]
    alpha_q(m_k)`` against ``alpha_p(m_j) m_b``, (16 n, dim A n) and (dim A n,
    16 n), so no (dim A, n, n, n) array is formed.  When the three tensors
    are real, as in any real basis, the GEMMs run in real arithmetic, a
    fourth of the complex work.  Â's arrow action on A, ``alpha =
    Delta_A.transpose(1, 2, 0)`` with ``delta = c_m = c_A``, makes it the
    defect of ``Delta(xy) = Delta(x) Delta(y)``.
    """
    if not any(np.iscomplexobj(x) and np.any(x.imag) for x in (c_m, alpha, delta)):
        c_m, alpha, delta = np.real(c_m), np.real(alpha), np.real(delta)
    da, n = alpha.shape[:2]
    acc = 0.0
    for lo in range(0, da, 16):
        ts = slice(lo, lo + 16)
        # m1[(t, k), (p, b)] = sum_q Delta[p, q, t] alpha_q(m_k)_b
        m1 = contract("pqt,qkb->tkpb", delta[:, :, ts], alpha).reshape(-1, da * n)
        for jo in range(0, n, 16):
            js = slice(jo, jo + 16)
            # e[(p, b), (j, x)] = (alpha_p(m_j) m_b)_x and want[(t, k), (j, x)] = alpha_t(m_j m_k)_x
            e = contract("pja,abx->pbjx", alpha[:, js], c_m).reshape(da * n, -1)
            want = contract("jkr,trx->tkjx", c_m[js], alpha[ts]).reshape(m1.shape[0], -1)
            acc += float(np.linalg.norm(want - m1 @ e)) ** 2
    return float(np.sqrt(acc))


def _certified_or_dense(algebra: FinDimAlgebra, associator_bound: float | None, tol: Tolerance) -> tuple[float, bool]:
    """``(associator_bound, True)`` when that upper bound on :func:`_dense_associator_norm`
    meets the associativity threshold ``tol.bound(|c|_F^2)``; otherwise ``(the dense norm, False)``."""
    if associator_bound is not None and associator_bound <= tol.bound((algebra.norm or 1.0) ** 2):
        return associator_bound, True
    return _dense_associator_norm(algebra.c), False


def _validated(algebra: FinDimAlgebra, tol: Tolerance, star_bound: float | None = None) -> AxiomReport:
    """The rows of :meth:`FinDimAlgebra.validate`, associativity read from ``algebra.derived(tol)``.

    ``star_bound`` is an upper bound on :meth:`FinDimAlgebra._star_defect`,
    or None.  Each row reports its certified bound when the bound meets the
    threshold; otherwise the norm itself is computed and reported.
    """
    rep = AxiomReport(algebra.name)
    scale = algebra.norm or 1.0
    threshold = tol.bound(scale**2)
    rep.add("associativity", algebra.derived(tol).associativity[0], threshold)
    eye = np.eye(algebra.dim)
    rep.add("left-unit", np.linalg.norm(algebra.left_mult(algebra.unit) - eye), tol.bound(scale))
    rep.add("right-unit", np.linalg.norm(algebra.right_mult(algebra.unit) - eye), tol.bound(scale))
    if algebra.involution is not None:
        s = algebra.involution
        rep.add("star-involutive", np.linalg.norm(s @ np.conj(s) - eye), tol.bound(scale))
        star = star_bound
        if star is None or not star <= threshold:
            star = algebra._star_defect()
        rep.add("star-antimultiplicative", star, threshold)
        rep.add("unit-star", np.linalg.norm(algebra.star(algebra.unit) - algebra.unit), tol.bound(1.0))
    return rep


def _antimultiplicative_norm(c, s, antilinear: bool) -> float:
    """Frobenius norm of ``f(e_i e_j) - f(e_j) f(e_i)`` over all basis pairs, f given by ``s``.

    f is ``a -> s a`` (the antipode) or, if ``antilinear``, ``a -> s conj(a)`` (the star).
    Over a slice of j, ``t[j, q, m] = sum_p s[p, j] c[p, q, m]`` (the
    coordinates of ``f(e_j) e_q``) is one GEMM against ``c.reshape(n, n^2)``, and
    ``(f(e_j) f(e_i))_m = sum_q s[q, i] t[j, q, m]``; no (n, n, n) array is formed.
    At most three arrays of ``width * n^2`` entries are live at a time, and
    :func:`_star_row_width` keeps them within 3/8 of c from n = 64 on.
    """
    n = c.shape[0]
    flat = c.reshape(n, n * n)
    width = _star_row_width(n)
    acc = 0.0
    for lo in range(0, n, width):
        sl = slice(lo, lo + width)
        t = (s[:, sl].T @ flat).reshape(-1, n, n).transpose(1, 0, 2).reshape(n, -1)  # t as [q, (j, m)]
        diff = s.T @ t  # f(e_j) f(e_i) over i, then j in sl
        del t
        diff -= ((np.conj(c[:, sl]) if antilinear else c[:, sl]).reshape(-1, n) @ s.T).reshape(n, -1)  # f(e_i e_j)
        acc += float(np.linalg.norm(diff)) ** 2
        del diff
    return float(np.sqrt(acc))


def _star_row_width(n: int) -> int:
    """Rows j per slice of :func:`_antimultiplicative_norm`: 16 below n = 64, from there on at most n / 8.

    Below 64 (c under 4 MiB) one 16-row slice covers n <= 16 and the GEMMs
    stay wide; from 64 on the three live slices hold at most 3/8 of c.  At
    n = 89 (m23's smash product) that is 11 rows and a tracemalloc peak of
    0.37 c, where 16 rows with every slice kept to the next took 0.90 c, in
    the same time (31 ms either way, minimum of 5, 1 BLAS thread).
    """
    return 16 if n < 64 else min(16, n // 8)


def _associator_certificate(c_norm: float, phi_norm: float, r_norm: float, sigma_min: float) -> float:
    """``2 (|Phi|_F + |c|_F) |R|_F / sigma_min(Phi)``, the bound of :meth:`FinDimAlgebra.validate`.

    phi is any linear map of the algebra into matrices, Phi its matrix (one
    column per basis vector) and R its multiplicativity defect ``phi(e_i e_j)
    - phi(e_i) phi(e_j)`` over all basis pairs.
    """
    return 2.0 * (phi_norm + c_norm) * r_norm / sigma_min


def _associator_bound(algebra: FinDimAlgebra, tol: Tolerance) -> float | None:
    """Upper bound on :func:`_dense_associator_norm` through the Wedderburn map.

    Costs one :meth:`FinDimAlgebra.homomorphism_defect` per block of the cached
    :meth:`FinDimAlgebra.wedderburn_map`.  Returns None when the algebra does
    not decompose at ``tol`` or phi is not injective.
    """
    try:
        wedderburn = algebra.wedderburn_map(tol)
    except _NO_DECOMPOSITION:
        return None
    n = algebra.dim
    r2 = sum(algebra.homomorphism_defect(phi) ** 2 for phi in wedderburn.phis)
    svals = wedderburn.svd[1]
    if svals.size < n or svals[n - 1] == 0.0:
        return None
    phi_norm = float(np.linalg.norm(wedderburn.matrix))
    return _associator_certificate(algebra.norm, phi_norm, float(np.sqrt(r2)), float(svals[n - 1]))


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


@dataclass
class WedderburnMap:
    """The Wedderburn isomorphism phi: A -> ⊕_q M_{n_q} of a semisimple algebra.

    phi_q(x) is L(x) on a basis V_q of the left ideal A p, p a minimal
    idempotent of block q (the carrier of ``irreducible_representations``),
    in the order of ``blocks``: ``V_q^H L(x) V_q`` on an orthonormal V_q for
    structure constants, and the matrix units E_a1 of the form for a
    :class:`WedderburnAlgebra`.
    """

    blocks: BlockDecomposition
    ideals: list[np.ndarray]  # V_q, (n, n_q)
    phis: list[np.ndarray]  # phi_q(e_i) over i, (n, n_q, n_q)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (sum n_q^2, n) matrix of phi: column i stacks the row-major blocks of phi(e_i)."""
        n = self.phis[0].shape[0]
        return np.concatenate([phi.reshape(n, -1) for phi in self.phis], axis=1).T

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``np.linalg.svd`` of :attr:`matrix`."""
        return np.linalg.svd(self.matrix)

    @cached_property
    def units(self) -> np.ndarray:
        """The (n, n) coordinates of the matrix units: column (q, a, b), in the row order of
        :attr:`matrix`, is phi^-1(e^q_ab)."""
        return np.linalg.inv(self.matrix)

    @property
    def sizes(self) -> list[int]:
        """The block sizes n_q, in the order of :attr:`phis`."""
        return [phi.shape[1] for phi in self.phis]


def relative_tensor_carrier(wedderburn: WedderburnMap, rho, lam, bound: float, tol: Tolerance) -> np.ndarray | None:
    """The carrier of X (x)_B Y read off the matrix units of a semisimple B, or None when a check misses.

    B acts on X from the right by the (k, dim X, dim X) stack ``rho`` and on Y
    from the left by the (k, dim Y, dim Y) stack ``lam``, both over the basis
    of B in which ``wedderburn``, B's Wedderburn map, is written.  The
    relations are ``rho_b x (x) y - x (x) lam_b y``, and the carrier is the
    orthonormal basis of their orthogonal complement that
    :func:`whakit.actions.crossed_product` and :func:`whakit.actions.galois_map`
    take as the quotient.  With B's matrix units e^l_ij and f_l = e^l_11, the
    separability idempotent ``sum_l sum_i e^l_i1 (x) e^l_1i`` of B acts on X (x)
    Y as ``P = sum_t R_t (x) L_t`` over t = (l, i), with ``R_t = rho(e^l_i1)``
    and ``L_t = lam(e^l_1i)``: sum_l n_l Kronecker products, never added up.
    By Morita, X (x)_B Y is ⊕_l X f_l (x) f_l Y, and P projects onto it along
    the relations.  Three residuals, each against ``bound``, and one count
    make that so:

    * unit, ``|sum_t lam(e^l_i1) L_t - 1|_F``: ``(1 - P)(x (x) y)`` is then a
      sum of relations;
    * kills, ``|P (rho_b (x) 1) - P (1 (x) lam_b)|_F`` over the basis of B: P
      vanishes on the relations, so ker P is their span;
    * fixes, a bound on ``|P W - W|_F`` for ``W = ⊕_l U_l (x) V_l``, U_l and
      V_l orthonormal bases of X f_l = ran R(f_l) and f_l Y = ran L(f_l), all
      read off pivoted searches of those idempotents
      (:func:`~whakit.linalg.idempotent_ranges`), with no SVD.
      With ``D_t = R_t U - delta_t U`` and ``E_t = L_t V - delta_t V`` over
      all blocks at once (delta_t selecting the term f_l of each block's
      columns), ``P W - W`` is a sum of ``D (x) V``, ``U (x) E`` and ``D (x)
      E`` terms, so ``|D| |V| + |U| |E| + |D| |E|`` bounds it: W lies in ran P;
    * count, ``d = sum_l dim U_l dim V_l`` lies within ``bound`` of
      ``tr P = sum_t tr R_t tr L_t``, so W is all of ran P.

    The carrier ran P^H is then ``P^H W``, the sketch of P^H by the test
    matrix W, which spans it exactly: P^H is one to one on ran P.  The sketch
    is applied through the factors, ``R_t^H U_l (x) L_t^H V_l``, and
    orthonormalized by one QR of the (dim X dim Y, d) sketch with its diagonal
    made real positive.  U_l and V_l depend on R(f_l) and L(f_l) alone, and
    W's columns are ordered by the pivots (p, q) of their two factors in the
    row-major order of X (x) Y, blocks breaking ties, so the carrier depends on
    the quotient and B's matrix units alone, not on how an SVD rotates
    singular vectors; where the sketch's columns are standard basis vectors
    it is the :func:`~whakit.linalg.pivoted_basis` of the complement.  When d = dim X
    dim Y the carrier is the identity, and no sketch is formed.

    The kills norm ``|sum_t A_t (x) B_t|_F`` is read as ``|Q A|_F``, Q the
    triangular factor of the QR of the stacked vec(B_t), one batched QR over
    the basis of B; no (dim X dim Y)^2 array is formed.  None when a residual
    or the count misses, a range's rank is not its trace, or LAPACK does not
    converge.
    """
    k, dx, dy = rho.shape[0], rho.shape[1], lam.shape[1]
    sizes = wedderburn.sizes
    starts = np.cumsum([0] + [n * n for n in sizes])
    first = [int(lo) + i * n for lo, n in zip(starts, sizes) for i in range(n)]  # e_i1 over t
    row = [int(lo) + i for lo, n in zip(starts, sizes) for i in range(n)]  # e_1i over t
    heads = np.cumsum([0] + sizes[:-1])  # the term t of f_l = e^l_11
    units = wedderburn.units
    r_t = np.tensordot(units[:, first].T, rho, axes=1)
    l_t = np.tensordot(units[:, row].T, lam, axes=1)
    try:
        unit = np.linalg.norm((np.tensordot(units[:, first].T, lam, axes=1) @ l_t).sum(axis=0) - np.eye(dy))
        # P (rho_b (x) 1) - P (1 (x) lam_b) = sum_t R_t rho_b (x) L_t - R_t (x) L_t lam_b, over b at once
        lefts = np.concatenate([r_t @ rho[:, None], np.broadcast_to(r_t, (k, *r_t.shape))], axis=1)
        rights = np.concatenate([np.broadcast_to(l_t, (k, *l_t.shape)), -(l_t @ lam[:, None])], axis=1)
        tri = np.linalg.qr(rights.reshape(k, 2 * len(l_t), -1).transpose(0, 2, 1), mode="r")
        kills = np.linalg.norm(tri @ lefts.reshape(k, 2 * len(r_t), -1))
        if max(unit, kills) > bound:
            return None
        factors = idempotent_ranges([*r_t[heads], *l_t[heads]], tol)
        if factors is None:
            return None
        factors = list(zip(factors[: len(heads)], factors[len(heads) :]))
        u_all = np.concatenate([u for (u, _), _ in factors], axis=1)
        v_all = np.concatenate([v for _, (v, _) in factors], axis=1)
        # delta[t, column] = 1 where t is the head of the column's block
        terms = np.arange(len(r_t))[:, None]
        u_delta = terms == np.repeat(heads, [u.shape[1] for (u, _), _ in factors])
        v_delta = terms == np.repeat(heads, [v.shape[1] for _, (v, _) in factors])
        off_u = np.linalg.norm(r_t @ u_all - u_delta[:, None, :] * u_all)
        off_v = np.linalg.norm(l_t @ v_all - v_delta[:, None, :] * v_all)
        fixes = off_u * np.linalg.norm(v_all) + np.linalg.norm(u_all) * off_v + off_u * off_v
        d = sum(u.shape[1] * v.shape[1] for (u, _), (v, _) in factors)
        trace = np.einsum("tii->t", r_t) @ np.einsum("tii->t", l_t)
        if fixes > bound or abs(trace - d) > bound:
            return None
        if d == dx * dy:
            return np.eye(d, dtype=complex)
        # the sketch P^H (U_l (x) V_l) = sum_t R_t^H U_l (x) L_t^H V_l, one GEMM over t per block,
        # written into its columns in the order of the pivots
        left_all = np.conj(r_t).transpose(0, 2, 1) @ u_all  # (T, dx, sum r_l)
        right_all = np.conj(l_t).transpose(0, 2, 1) @ v_all  # (T, dy, sum s_l)
        keys = np.concatenate([np.add.outer(np.multiply(pu, dy), pv).ravel() for (_, pu), (_, pv) in factors])
        column = np.empty(d, dtype=int)
        column[np.argsort(keys, kind="stable")] = np.arange(d)
        sketch = np.empty((dx * dy, d), dtype=complex)
        lo_u = lo_v = lo = 0
        for (u, _), (v, _) in factors:
            nu, nv = u.shape[1], v.shape[1]
            left, right = left_all[:, :, lo_u : lo_u + nu], right_all[:, :, lo_v : lo_v + nv]
            z = (left.transpose(1, 2, 0).reshape(-1, len(r_t)) @ right.reshape(len(l_t), -1)).reshape(dx, nu, dy, nv)
            sketch[:, column[lo : lo + nu * nv]] = z.transpose(0, 2, 1, 3).reshape(dx * dy, -1)
            lo_u, lo_v, lo = lo_u + nu, lo_v + nv, lo + nu * nv
        del left_all, right_all
        return _positive_qr(sketch)[0]
    except np.linalg.LinAlgError:
        return None


def _minimal_central_idempotents(algebra: FinDimAlgebra, center: Subspace, tol: Tolerance):
    """Split a commutative semisimple subalgebra into its minimal idempotents."""
    m = center.dim
    if m == 0:
        # a unital algebra's center holds the unit
        raise NotSemisimple(f"{algebra.name}: the center is 0-dimensional at this tolerance")
    z = center.basis
    for attempt in range(8):
        t = gaussian(attempt, m)
        w = z @ t
        lw = algebra.left_mult(w)
        op = z.conj().T @ lw @ z  # action of w on the center, in center coordinates
        vals, vecs = np.linalg.eig(op)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if not np.all(np.abs(vals[:, None] - vals[None, :])[np.triu_indices(m, 1)] > 1e-6 * scale):
            continue
        # all m eigenvectors v at once: v^2 is column i of L(v_i) v_i, and e = v / lam
        v = z @ vecs
        v2 = np.einsum("inm,mi->ni", algebra._left_stack(v), v)
        lam = np.einsum("ni,ni->i", v.conj(), v2) / np.einsum("ni,ni->i", v.conj(), v)
        if np.any(np.abs(lam) < 1e-12):
            continue
        e = v / lam
        e2 = np.einsum("inm,mi->ni", algebra._left_stack(e), e)
        if np.any(np.linalg.norm(e2 - e, axis=0) > 1e-6 * np.maximum(1.0, np.linalg.norm(e, axis=0))):
            continue
        total = e.sum(axis=1)
        if np.linalg.norm(total - center.project(algebra.unit)) <= 1e-6 * max(1.0, np.linalg.norm(total)):
            return list(e.T)
    raise NotSemisimple("could not split the center into minimal idempotents")


def _support_key(v, tol: Tolerance):
    """Sort key of a central idempotent: its support, then its coordinates
    rounded to 6 digits, real parts before imaginary parts.

    Supports tie whenever every idempotent has full support, as in any rotated
    basis.  A minimal central idempotent is unique, so its rounded coordinates
    do not depend on the roundoff of the eigensolver or SVD that found it, and
    the order they give is the same on every run.
    """
    v = np.asarray(v)
    mag = np.abs(v)
    cut = 1e-8 * max(1.0, float(mag.max()))
    rounded = np.round(v, 6)
    return tuple(np.flatnonzero(mag > cut).tolist()), tuple(rounded.real.tolist()), tuple(rounded.imag.tolist())


def block_decomposition(algebra: FinDimAlgebra, tol: Tolerance | None = None) -> BlockDecomposition:
    """Wedderburn decomposition of a semisimple algebra into full matrix blocks.

    Computed once per algebra and tolerance and kept in ``algebra.derived(tol)``;
    :meth:`FinDimAlgebra.block_decomposition` returns this function's result,
    so both return the same object.  Raises :class:`NotSemisimple` on
    degenerate trace form and :class:`NonIntegerBlockSize` if some central
    block is not a full matrix algebra over C.  The blocks themselves come
    from the algebra's ``_decompose``: split from its center for structure
    constants, read off the form for a :class:`WedderburnAlgebra`.
    """
    return algebra.derived(tol).blocks


def induced_algebra(
    algebra: FinDimAlgebra,
    subspace: Subspace,
    unit_vec=None,
    tol: Tolerance | None = None,
    name: str | None = None,
) -> tuple[FinDimAlgebra, np.ndarray]:
    """Algebra structure on a multiplicatively closed subspace.

    Returns ``(B, Q)`` where Q's orthonormal columns are the chosen basis and
    ``B`` has the structure constants of the restriction.  Because Q is
    orthonormal, coordinates are projections: the structure constants, unit
    and involution of B are ``Q^H (q_a q_b)``, ``Q^H u`` and ``Q^H (q_a*)``.
    Raises :class:`ValidationError` ("subalgebra-closure") when products
    leave the span, that is when ``max_a |Q Q^H P_a - P_a|_F`` exceeds the
    threshold, P_a holding the products ``q_a q_b`` over b.  ``unit_vec``
    defaults to the ambient unit (which must then lie in the subspace).
    """
    tol = get_tol(tol)
    q = subspace.basis
    qh = q.conj().T
    unit_vec = algebra.unit if unit_vec is None else np.asarray(unit_vec, dtype=complex).ravel()
    unit_dist, unit_bound = subspace.distance(unit_vec), tol.bound(np.linalg.norm(unit_vec)) * 10
    if unit_dist > unit_bound:
        raise ValidationError("subalgebra-unit", unit_dist, unit_bound)
    # prods[a, b] = q_a q_b, and c[a, b] = Q^H (q_a q_b) its coordinates
    prods = algebra._left_products(q, q).transpose(0, 2, 1)
    c = prods @ q.conj()
    worst = float(np.max(np.linalg.norm(c @ q.T - prods, axis=(1, 2))))
    closure_bound = tol.bound(algebra.norm) * 10
    if worst > closure_bound:
        raise ValidationError("subalgebra-closure", worst, closure_bound)
    involution = None
    if algebra.involution is not None:
        starred = algebra.involution @ np.conj(q)
        if subspace.contains_columns(starred):
            involution = qh @ starred
    b = FinDimAlgebra(c, qh @ unit_vec, involution=involution, name=name or f"{algebra.name}|sub")
    return b, q


def inclusion_matrix(algebra: FinDimAlgebra, sub: Subspace, tol: Tolerance | None = None):
    """Bratteli inclusion matrix Lambda of a unital subalgebra B in A.

    ``Lambda[mu, q] = tr_q(z_mu) / m_mu`` is the multiplicity of the B-block
    ``mu`` inside the restriction of the A-block ``q``: z_mu is the central
    idempotent of ``mu`` and m_mu its size, and tr_q is
    :meth:`FinDimAlgebra.block_trace`.  A minimal idempotent p of ``mu`` has
    ``tr_q(p) = Lambda[mu, q]``, and z_mu is a sum of m_mu of them.  B is
    :func:`induced_algebra` on ``sub``.  Returns ``(Lambda, blocks_B, blocks_A)``.
    """
    tol = get_tol(tol)
    blocks_a = algebra.block_decomposition(tol)
    b_alg, q = induced_algebra(algebra, sub, tol=tol, name=f"{algebra.name}|B")
    blocks_b = b_alg.block_decomposition(tol)
    return _inclusion_matrix(algebra, blocks_b, q, tol), blocks_b, blocks_a


def _inclusion_matrix(algebra: FinDimAlgebra, blocks_b: BlockDecomposition, embed, tol: Tolerance) -> np.ndarray:
    """Lambda of :func:`inclusion_matrix` from B's blocks, for ``embed`` (dim A, dim B)
    the matrix of a unital injective homomorphism B -> A, which the caller vouches for.
    Raises ValidationError "inclusion-dimension-count" unless ``sizes_B @ Lambda == sizes_A``."""
    blocks_a = algebra.block_decomposition(tol)
    lam = np.zeros((len(blocks_b), len(blocks_a)), dtype=int)
    for mu, bb in enumerate(blocks_b):
        z = embed @ bb.central_idempotent  # in A's coordinates
        for qi, ba in enumerate(blocks_a):
            tr = algebra.block_trace(ba, z) / bb.size
            lam[mu, qi] = round_to_int(tr, f"inclusion multiplicity ({mu},{qi})")
    sizes_a = np.array(blocks_a.sizes)
    sizes_b = np.array(blocks_b.sizes)
    if not np.array_equal(sizes_b @ lam, sizes_a):
        raise ValidationError("inclusion-dimension-count", float(np.max(np.abs(sizes_b @ lam - sizes_a))), 0.0)
    return lam


def _minimal_idempotent_in_block(algebra: FinDimAlgebra, block: Block, tol: Tolerance):
    """Rank-one idempotent inside one matrix block, via a generic spectral projector."""
    if block.size == 1:
        return block.central_idempotent
    q = block.subspace.basis
    m2 = q.shape[1]
    for attempt in range(8):
        t = gaussian(1000 + attempt, m2) + 1j * gaussian(2000 + attempt, m2)
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
    """Markov trace data of a connected inclusion."""

    index: float
    weights: np.ndarray  # trace of a minimal projection per A-block

    def trace(self, algebra: FinDimAlgebra, blocks: BlockDecomposition, a) -> complex:
        return complex(sum(w * algebra.block_trace(b, a) for w, b in zip(self.weights, blocks)))


def markov_trace(algebra: FinDimAlgebra, sub: Subspace, tol: Tolerance | None = None) -> MarkovTrace:
    """Markov trace and index of a connected inclusion B ⊂ A.

    The ``index`` is the Perron eigenvalue of Lambda^T Lambda and the weights
    its Perron vector, normalized so that the trace of 1 is 1.  Raises
    :class:`NotConnected` when Lambda^T Lambda is not irreducible, that is
    when the Bratteli diagram of the inclusion is not connected.  No row or
    column of Lambda is zero: a nonzero idempotent has a positive trace in
    some block, and every A-block receives ``sizes_B @ Lambda > 0``.
    """
    tol = get_tol(tol)
    lam, _, blocks_a = inclusion_matrix(algebra, sub, tol)
    gram = (lam.T @ lam).astype(float)
    if not is_irreducible_nonneg(gram, tol):
        raise NotConnected(f"the inclusion with matrix {lam.tolist()} is not connected")
    index, s = perron_frobenius(gram, tol)
    weights = s / float(np.array(blocks_a.sizes, dtype=float) @ s)  # trace(1) = 1
    return MarkovTrace(index=float(index), weights=weights)


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
    gram = phi @ algebra._left_stack(stars)  # phi(e_i* e_j)
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

    ``expectation`` is the matrix of E in the algebra basis.  A quasi-basis
    is a tensor ``T = sum u_i (x) v_i`` with ``sum u_i E(v_i x) = x = sum E(x
    u_i) v_i``, held as ``T[i, j]`` over basis pairs; any two-sided solution
    yields the same index element ``sum u_i v_i`` (Watatani, *Index for
    C*-subalgebras*, Mem. AMS 424, 1990).  Two routes find T:

    * block by block (:func:`_block_quasi_basis`), O(n^4): for each minimal
      idempotent f in the spectral decomposition of a seeded generic element
      of B, bases X of A f and Y of f A and the pairing ``E(y_k x_l) = P_kl
      f`` give ``T = sum_f X P^-1 Y^T / n_f``, n_f the size of f's block;
    * dense: the least-squares solution of both equations at once, an (2n^2,
      n^2) system, O(n^6).

    The block route's T is kept when both equations hold with a residual
    within ``tol.quasi_basis_residual(n)``, the threshold the dense solve is
    held to, checked in O(n^4) (:func:`_quasi_basis_residual`); otherwise, as
    when B does not decompose or a pairing is singular, the dense route
    decides and raises NoQuasiBasis above that threshold.  The index is a
    scalar when the element lies within ``tol.scalar_index_residual`` of a
    multiple of the unit.
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
    lb, rb = algebra._left_stack(ran.basis), algebra._right_stack(ran.basis)
    left, right = np.linalg.norm(lb @ e - e @ lb, axis=(1, 2)), np.linalg.norm(rb @ e - e @ rb, axis=(1, 2))
    for j in range(ran.dim):
        checks.add(f"left-module-map[{j}]", left[j], tol.bound(scale**2) * 100)
        checks.add(f"right-module-map[{j}]", right[j], tol.bound(scale**2) * 100)
    if algebra.involution is not None:
        inv = algebra.involution
        checks.add("star-preserving", np.linalg.norm(e @ inv - inv @ np.conj(e)), tol.bound(scale) * 10)
    if not checks.ok:
        worst = max(checks.failures, key=lambda c: c.residual)
        raise NotConditionalExpectation(f"{worst.name}: residual {worst.residual:.3e}")

    t = _block_quasi_basis(algebra, e, ran, tol)
    if t is None or not _quasi_basis_residual(algebra, e, t) <= tol.quasi_basis_residual(n):
        t = _dense_quasi_basis(algebra, e, tol)
    element = np.einsum("ij,ijk->k", t, algebra.c)
    lam = complex(np.vdot(algebra.unit, element) / np.vdot(algebra.unit, algebra.unit))
    scalar = lam if np.linalg.norm(element - lam * algebra.unit) <= tol.scalar_index_residual(abs(lam)) else None
    return WatataniIndex(element=element, scalar=scalar, quasi_basis=t)


def _block_quasi_basis(algebra: FinDimAlgebra, e, ran: Subspace, tol: Tolerance) -> np.ndarray | None:
    """The quasi-basis ``T = sum_f X_f P_f^-1 Y_f^T / n_f`` of E onto B = ``ran``, block by block, or None.

    A seeded generic element g of B is ``sum_f lam_f f`` over orthogonal
    minimal idempotents f of B, n_mu of them in block mu ≅ M_(n_mu), with
    distinct eigenvalues lam_f.  So L(g) and R(g) are diagonalizable on A,
    their lam_f-eigenspaces are f A and A f, and one eigendecomposition of
    each gives bases Y_f of f A and X_f of A f for every f at once, L(f) as
    the spectral projector of L(g), f = L(f) 1 and n_f = n_mu = tr L(f) on B.
    E maps f A f into f B f = C f, so ``E(y_k x_l) = P_kl f``, and when P is
    invertible ``z = sum_lk x_l (P^-1)_lk E(y_k z)`` for z in A f.  Summing
    ``x e_a1 e_1a`` over matrix units of block mu with e_11 = f turns this
    into ``sum_lk x_l (P^-1)_lk E(y_k x) = x z_mu`` for every x, z_mu the
    central support of f, so dividing by n_mu and summing over all f gives
    the left equation; the right one follows in the same way from f A.
    Eigenvalues of L(g) are grouped, and matched with those of R(g), within
    ``tol.bound`` of their largest magnitude.  None when an eigensolver
    fails, the eigenvalues of L(g) and R(g) do not match with equal
    multiplicities, some n_f is not a positive integer or a pairing is
    singular; the caller's residual check decides the rest, a NaN residual
    included.
    """
    q = ran.basis
    g = q @ _generic_pair(q.shape[1])[:, 0]
    try:
        lam_l, y_all = np.linalg.eig(algebra.left_mult(g))
        lam_r, x_all = np.linalg.eig(algebra.right_mult(g))
        y_inv = np.linalg.inv(y_all)
    except np.linalg.LinAlgError:
        return None
    cut = tol.bound(float(np.max(np.abs(lam_l))))
    n = algebra.dim
    t = np.zeros((n, n), dtype=complex)
    taken = np.zeros(n, dtype=bool)
    for gl in _eigenvalue_groups(lam_l, cut):
        gr = np.flatnonzero(np.abs(lam_r - lam_l[gl[0]]) <= cut)  # the same eigenvalue of R(g)
        if len(gr) != len(gl) or taken[gr].any():
            return None
        taken[gr] = True
        y, x = y_all[:, gl], x_all[:, gr]  # bases of f A and A f
        proj = y @ y_inv[gl]  # L(f)
        f = proj @ algebra.unit
        try:
            size = round_to_int(np.trace(q.conj().T @ proj @ q), "block size of a minimal idempotent")
            if size < 1:
                return None
            ex = e @ algebra._left_products(y, x)  # [k, :, l] = E(y_k x_l)
            pairing = np.tensordot(f.conj(), ex, axes=([0], [1])) / np.vdot(f, f)
            t += x @ np.linalg.solve(pairing, y.T) / size
        except (NonIntegerMultiplicity, np.linalg.LinAlgError):
            return None
    return t


def _eigenvalue_groups(vals, cut: float) -> list[list[int]]:
    """Indices of ``vals`` grouped by the first value within ``cut`` of each, in order of first appearance."""
    first = np.argmax(np.abs(vals[:, None] - vals[None, :]) <= cut, axis=1)
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(first.tolist()):
        groups.setdefault(k, []).append(i)
    return list(groups.values())


def _quasi_basis_residual(algebra: FinDimAlgebra, e, t) -> float:
    """``sqrt(|sum_ij T_ij L(e_i) E L(e_j) - 1|_F^2 + |sum_ij T_ij R(e_j) E R(e_i) - 1|_F^2)``.

    The two quasi-basis equations for T as maps on A, the residual that the
    dense route's least-squares solve reports, from (n, n, n) stacks of left
    and right multiplications in O(n^4).
    """
    n = algebra.dim
    eye = np.eye(n)
    # sum_i L(e_i) E L(t_i) for the rows t_i of T, and sum_j R(e_j) E R(s_j) for its columns s_j,
    # each one (n, n^2) @ (n^2, n) GEMM
    left = algebra._left_stack(eye).transpose(1, 0, 2).reshape(n, -1) @ (e @ algebra._left_stack(t.T)).reshape(-1, n)
    right = algebra._right_stack(eye).transpose(1, 0, 2).reshape(n, -1) @ (e @ algebra._right_stack(t)).reshape(-1, n)
    return float(np.sqrt(np.linalg.norm(left - eye) ** 2 + np.linalg.norm(right - eye) ** 2))


def _dense_quasi_basis(algebra: FinDimAlgebra, e, tol: Tolerance) -> np.ndarray:
    """The least-squares quasi-basis of both equations as one (2n^2, n^2) system;
    raises NoQuasiBasis when its residual exceeds ``tol.quasi_basis_residual(n)``."""
    c, n = algebra.c, algebra.dim
    l1 = contract("jlp,mp,imk->klij", c, e, c).reshape(n * n, n * n)
    l2 = contract("lip,mp,mjk->klij", c, e, c).reshape(n * n, n * n)
    target = np.eye(n, dtype=complex).reshape(n * n)
    t, resid = lstsq(np.vstack([l1, l2]), np.concatenate([target, target]), tol)
    if resid > tol.quasi_basis_residual(n):
        raise NoQuasiBasis(f"no quasi-basis within tolerance (residual {resid:.3e})")
    return t.reshape(n, n)
