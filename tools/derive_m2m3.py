"""Derive the 13-dimensional quantum groupoid on M_2 + M_3 and write its data file.

Construction
------------
Start from the golden-ratio fusion rule on two sectors {0, 1}:

    0 x a = a,   1 x 1 = 0 + 1,

with quantum dimensions (1, phi), phi the golden ratio, and the single
nontrivial recoupling matrix

    F = [[1/phi, 1/sqrt(phi)], [1/sqrt(phi), -1/phi]]

(real, symmetric, unitary; every recoupling matrix with a 0-label is the
scalar 1).  For each sector k set

    V_k := span{ (y, x) : x appears in y x k },

so dim V_0 = 2 and dim V_1 = 3, and put  H := End(V_0) + End(V_1) = M_2 + M_3
on the matrix-unit basis.  A basis vector (y, z) of V_a composed with (z, w)
of V_b recouples into channel m with amplitude [F^{y a b}_w]_{z m}; collecting
these amplitudes gives coisometries

    J^m_{ab} : V_a (x) V_b -> V_m,       J^m J^{m'*} = delta_{m m'} id,

and the comultiplication is conjugation through the recoupling,

    Delta(T) := sum_{a,b,m} (J^m_{ab})^* T_m J^m_{ab}  in  End(V_a) (x) End(V_b),

which is multiplicative because the channels are orthogonal, and maps the
unit to the (non-identity) composability projection.  The counit is the
unique solution of (eps (x) id) Delta = id, the antipode is solved from the
axioms, and the star structure is the blockwise adjoint.

The script validates every axiom, then gates on the expected invariants
(sector dimensions 1 and phi, fusion 3 x 3 = 2 + 3, Markov index 2 + 3 phi,
Haar index 5 + sqrt(5)) before writing src/whakit/data/m2_m3.wha.json.

Run from the repository root:  python3 tools/derive_m2m3.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from whakit.algebra import FinDimAlgebra, block_decomposition, watatani_index
from whakit.config import get_tol
from whakit.integrals import haar_expectations, haar_integral
from whakit.linalg import lstsq
from whakit.reptheory import markov_index, sector_dimensions
from whakit.wha import WeakBialgebra, WeakHopfAlgebra, dual_wha, is_weak_kac, validate_wha
from whakit import whafile

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def fuse(a: int, b: int) -> tuple[int, ...]:
    if a == 0:
        return (b,)
    if b == 0:
        return (a,)
    return (0, 1)


def f_symbol(y: int, a: int, b: int, w: int, z: int, m: int) -> float:
    """[F^{y a b}_w]_{z m} in the standard gauge (only the all-1 label is nontrivial)."""
    if 0 in (y, a, b):
        return 1.0
    if w == 0:
        return 1.0  # single admissible channel z = m = 1
    table = {
        (0, 0): 1.0 / PHI,
        (0, 1): 1.0 / np.sqrt(PHI),
        (1, 0): 1.0 / np.sqrt(PHI),
        (1, 1): -1.0 / PHI,
    }
    return table[(z, m)]


def build() -> WeakHopfAlgebra:
    sectors = (0, 1)
    # carrier bases: V_k = [(y, x)] with x in fuse(y, k)
    carriers = {k: [(y, x) for y in sectors for x in sectors if x in fuse(y, k)] for k in sectors}
    dims = {k: len(carriers[k]) for k in sectors}
    assert dims == {0: 2, 1: 3}

    # enumerate matrix units E^k_{pq}
    basis: list[tuple[int, int, int]] = []
    offset = {}
    for k in sectors:
        offset[k] = len(basis)
        basis.extend((k, p, q) for p in range(dims[k]) for q in range(dims[k]))
    n = len(basis)
    assert n == 13
    index = {t: i for i, t in enumerate(basis)}

    c = np.zeros((n, n, n))
    for k in sectors:
        for p in range(dims[k]):
            for q in range(dims[k]):
                for s in range(dims[k]):
                    c[index[(k, p, q)], index[(k, q, s)], index[(k, p, s)]] = 1.0
    unit = np.zeros(n)
    for k in sectors:
        for p in range(dims[k]):
            unit[index[(k, p, p)]] = 1.0
    involution = np.zeros((n, n))
    for k, p, q in basis:
        involution[index[(k, q, p)], index[(k, p, q)]] = 1.0

    # recoupling coisometries J^m_{ab}: V_a (x) V_b -> V_m
    jmat: dict[tuple[int, int, int], np.ndarray] = {}
    for a in sectors:
        for b in sectors:
            for m in fuse(a, b):
                j = np.zeros((dims[m], dims[a] * dims[b]))
                for row, (y, w) in enumerate(carriers[m]):
                    if m not in fuse(a, b) or w not in fuse(y, m):
                        continue
                    for pa, (ya, z) in enumerate(carriers[a]):
                        if ya != y:
                            continue
                        for pb, (zb, wb) in enumerate(carriers[b]):
                            if zb != z or wb != w:
                                continue
                            j[row, pa * dims[b] + pb] = f_symbol(y, a, b, w, z, m)
                jmat[(a, b, m)] = j

    # channel orthogonality J^m J^{m'*} = delta id  (makes Delta multiplicative)
    for a in sectors:
        for b in sectors:
            for m in fuse(a, b):
                for m2 in fuse(a, b):
                    prod = jmat[(a, b, m)] @ jmat[(a, b, m2)].T
                    want = np.eye(dims[m]) if m == m2 else np.zeros((dims[m], dims[m2]))
                    assert np.allclose(prod, want, atol=1e-12), (a, b, m, m2)

    delta = np.zeros((n * n, n))
    for k, p, q in basis:
        e = np.zeros((dims[k], dims[k]))
        e[p, q] = 1.0
        col = index[(k, p, q)]
        for a in sectors:
            for b in sectors:
                if k not in fuse(a, b):
                    continue
                j = jmat[(a, b, k)]
                mat = j.T @ e @ j  # operator on V_a (x) V_b
                da, db = dims[a], dims[b]
                for pa in range(da):
                    for qa in range(da):
                        for pb in range(db):
                            for qb in range(db):
                                coeff = mat[pa * db + pb, qa * db + qb]
                                if abs(coeff) < 1e-15:
                                    continue
                                r1 = index[(a, pa, qa)]
                                r2 = index[(b, pb, qb)]
                                delta[r1 * n + r2, col] += coeff

    # counit: unique solution of (eps (x) id) Delta = id = (id (x) eps) Delta,
    # i.e. sum_p eps_p d3[p,q,j] = delta_qj and sum_q eps_q d3[p,q,j] = delta_pj
    d3 = delta.reshape(n, n, n)
    a_rows = d3.transpose(1, 2, 0).reshape(n * n, n)
    b_rows = d3.transpose(0, 2, 1).reshape(n * n, n)
    big = np.vstack([a_rows, b_rows])
    rhs = np.concatenate([np.eye(n).reshape(n * n), np.eye(n).reshape(n * n)])
    eps, resid = lstsq(big, rhs, get_tol(None))
    assert resid < 1e-10, f"counit system inconsistent (residual {resid:.3e})"

    alg = FinDimAlgebra(
        c,
        unit,
        involution=involution,
        basis_labels=[f"E{k}[{p}{q}]" for k, p, q in basis],
        name="M2+M3",
    )
    w = WeakHopfAlgebra.from_wba(WeakBialgebra(alg, delta, np.asarray(eps, dtype=complex).ravel()))
    validate_wha(w).raise_if_failed()
    return w


def verify(w: WeakHopfAlgebra) -> dict:
    """Gate on the expected invariants before the data file is written."""
    out = {}
    sub = w.counital_subalgebras
    assert [b.size for b in block_decomposition(w.algebra)] == [2, 3]
    assert sub.left.dim == 2 and sub.right.dim == 2
    assert sub.center_left.dim == 1 and sub.hypercenter.dim == 1, "must be biconnected"
    dual_sub = dual_wha(w).counital_subalgebras
    assert dual_sub.center_left.dim == 1, "dual must be connected"
    assert haar_integral(w) is not None
    assert not is_weak_kac(w), "sector dimension phi forces S^2 != id"

    table = sector_dimensions(w)
    ds = {s.size: s.d for s in table.sectors}
    assert abs(ds[2] - 1.0) < 1e-9, ds
    assert abs(ds[3] - PHI) < 1e-9, ds
    out["d"] = ds

    # fusion: the size-3 sector squares to one copy of each sector
    q3 = next(s for s in table.sectors if s.size == 3)
    from whakit.reptheory import monoidal_product

    sq = monoidal_product(w, q3.rep, q3.rep)
    mult = table.multiplicities(sq)
    assert mult.tolist() == [1, 1], mult
    out["fusion_3x3"] = mult.tolist()

    delta = markov_index(w)
    assert abs(delta - (2 + 3 * PHI)) < 1e-9, delta
    out["markov_index"] = delta

    el, _er = haar_expectations(w)
    wat = watatani_index(w.algebra, el)
    assert wat.is_scalar, "Haar expectation must have scalar index"
    haar_index = float(np.real(wat.scalar))
    assert abs(haar_index - (5 + np.sqrt(5.0))) < 1e-8, haar_index
    out["haar_index"] = haar_index
    return out


def main() -> int:
    w = build()
    stats = verify(w)
    target = Path(__file__).resolve().parent.parent / "src" / "whakit" / "data" / "m2_m3.wha.json"
    whafile.save(
        w,
        target,
        name="M2+M3",
        provenance="derived by tools/derive_m2m3.py: golden-ratio recoupling construction",
    )
    reloaded = whafile.load(target)
    assert np.allclose(reloaded.algebra.c, w.algebra.c, atol=0)
    print(f"wrote {target}")
    for k, v in stats.items():
        print(f"  {k}: {v}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
