"""Built-in example weak Hopf algebras and negative-test perturbations.

Groupoid algebras C[G] (comultiplication g -> g (x) g, antipode g -> g^-1,
star g -> g^-1) cover the commutative-coalgebra corner; their duals, the
function algebras on G, cover the commutative-algebra corner.  Group algebras
are the one-object case.  Sweedler's four-dimensional Hopf algebra is the
stock non-semisimple example.  ``fusion_wha`` builds the weak Hopf algebra
of a fusion category from its fusion rules and F-symbols; ``m2_m3`` is the
one of the Fibonacci category, a genuinely non-group-like quantum groupoid on
M_2 + M_3 with S^2 != id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import FinDimAlgebra
from .config import DEFAULT_SEED, rng
from .errors import InvalidGroupoid
from .linalg import lstsq
from .wha import WeakBialgebra, WeakHopfAlgebra

__all__ = [
    "Groupoid",
    "cyclic_group",
    "symmetric_group",
    "pair_groupoid",
    "disjoint_union",
    "groupoid_wha",
    "function_wha",
    "cyclic_wha",
    "symmetric_wha",
    "pair_groupoid_wha",
    "sweedler_h4",
    "fusion_wha",
    "m2_m3",
    "perturb",
]


@dataclass
class Groupoid:
    """A finite groupoid given by explicit composition/identity/inverse tables.

    ``compose[(f, g)]`` is f after g, defined exactly when
    ``source(f) == target(g)``.
    """

    name: str
    objects: list[str]
    morphisms: list[str]
    source: dict[str, str]
    target: dict[str, str]
    compose: dict[tuple[str, str], str]
    identity: dict[str, str]
    inverse: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        morph = set(self.morphisms)
        if len(morph) != len(self.morphisms):
            raise InvalidGroupoid("duplicate morphism names")
        for m in self.morphisms:
            if self.source.get(m) not in self.objects or self.target.get(m) not in self.objects:
                raise InvalidGroupoid(f"morphism {m!r} has no source/target")
        for obj in self.objects:
            e = self.identity.get(obj)
            if e not in morph or self.source[e] != obj or self.target[e] != obj:
                raise InvalidGroupoid(f"object {obj!r} has no identity morphism")
        for f in self.morphisms:
            for g in self.morphisms:
                composable = self.source[f] == self.target[g]
                defined = (f, g) in self.compose
                if composable != defined:
                    raise InvalidGroupoid(f"composition table mismatch at ({f!r}, {g!r})")
                if defined:
                    h = self.compose[(f, g)]
                    if h not in morph or self.source[h] != self.source[g] or self.target[h] != self.target[f]:
                        raise InvalidGroupoid(f"ill-typed composite {f!r} o {g!r} = {h!r}")
        for f in self.morphisms:
            e_t, e_s = self.identity[self.target[f]], self.identity[self.source[f]]
            if self.compose[(e_t, f)] != f or self.compose[(f, e_s)] != f:
                raise InvalidGroupoid(f"identity law fails at {f!r}")
            finv = self.inverse.get(f)
            if finv is None:
                raise InvalidGroupoid(f"morphism {f!r} has no inverse")
            if self.compose[(f, finv)] != e_t or self.compose[(finv, f)] != e_s:
                raise InvalidGroupoid(f"inverse law fails at {f!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                if (f, g) not in self.compose:
                    continue
                for h in self.morphisms:
                    if (g, h) not in self.compose:
                        continue
                    if self.compose[(self.compose[(f, g)], h)] != self.compose[(f, self.compose[(g, h)])]:
                        raise InvalidGroupoid(f"associativity fails at ({f!r}, {g!r}, {h!r})")


def cyclic_group(n: int) -> Groupoid:
    if n < 1:
        raise InvalidGroupoid("cyclic group needs n >= 1")
    names = [f"g{i}" for i in range(n)]
    return Groupoid(
        name=f"Z{n}",
        objects=["*"],
        morphisms=names,
        source={m: "*" for m in names},
        target={m: "*" for m in names},
        compose={(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)},
        identity={"*": names[0]},
        inverse={names[i]: names[(-i) % n] for i in range(n)},
    )


def symmetric_group(n: int) -> Groupoid:
    if not 1 <= n <= 5:
        raise InvalidGroupoid("symmetric group supported for 1 <= n <= 5")
    perms = list(itertools.permutations(range(n)))
    name_of = {p: "s" + "".join(map(str, p)) for p in perms}

    def comp(p, q):  # p after q
        return tuple(p[q[i]] for i in range(n))

    def inv(p):
        out = [0] * n
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    names = [name_of[p] for p in perms]
    return Groupoid(
        name=f"S{n}",
        objects=["*"],
        morphisms=names,
        source={m: "*" for m in names},
        target={m: "*" for m in names},
        compose={(name_of[p], name_of[q]): name_of[comp(p, q)] for p in perms for q in perms},
        identity={"*": name_of[tuple(range(n))]},
        inverse={name_of[p]: name_of[inv(p)] for p in perms},
    )


def pair_groupoid(n: int) -> Groupoid:
    """Objects 0..n-1 with exactly one morphism between any two of them."""
    if n < 1:
        raise InvalidGroupoid("pair groupoid needs n >= 1")
    objs = [str(i) for i in range(n)]
    names = {(i, j): f"{i}<-{j}" for i in range(n) for j in range(n)}
    return Groupoid(
        name=f"Pair{n}",
        objects=objs,
        morphisms=[names[(i, j)] for i in range(n) for j in range(n)],
        source={names[(i, j)]: str(j) for i in range(n) for j in range(n)},
        target={names[(i, j)]: str(i) for i in range(n) for j in range(n)},
        compose={
            (names[(i, j)], names[(j, k)]): names[(i, k)]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        },
        identity={str(i): names[(i, i)] for i in range(n)},
        inverse={names[(i, j)]: names[(j, i)] for i in range(n) for j in range(n)},
    )


def disjoint_union(*groupoids: Groupoid) -> Groupoid:
    """Disjoint union; morphisms from different pieces never compose."""
    if not groupoids:
        raise InvalidGroupoid("need at least one groupoid")
    objects, morphisms = [], []
    source, target, identity, inverse = {}, {}, {}, {}
    compose = {}
    for tag, g in enumerate(groupoids):
        ren_o = {o: f"{tag}.{o}" for o in g.objects}
        ren_m = {m: f"{tag}.{m}" for m in g.morphisms}
        objects += [ren_o[o] for o in g.objects]
        morphisms += [ren_m[m] for m in g.morphisms]
        source.update({ren_m[m]: ren_o[g.source[m]] for m in g.morphisms})
        target.update({ren_m[m]: ren_o[g.target[m]] for m in g.morphisms})
        identity.update({ren_o[o]: ren_m[g.identity[o]] for o in g.objects})
        inverse.update({ren_m[m]: ren_m[g.inverse[m]] for m in g.morphisms})
        compose.update({(ren_m[f], ren_m[h]): ren_m[r] for (f, h), r in g.compose.items()})
    return Groupoid(
        name="+".join(g.name for g in groupoids),
        objects=objects,
        morphisms=morphisms,
        source=source,
        target=target,
        compose=compose,
        identity=identity,
        inverse=inverse,
    )


def groupoid_wha(g: Groupoid, name: str | None = None) -> WeakHopfAlgebra:
    """The groupoid algebra C[G] as a weak Hopf *-algebra."""
    g.validate()
    n = len(g.morphisms)
    index = {m: i for i, m in enumerate(g.morphisms)}
    c = np.zeros((n, n, n), dtype=complex)
    for (f, h), r in g.compose.items():
        c[index[f], index[h], index[r]] = 1.0
    unit = np.zeros(n, dtype=complex)
    for obj in g.objects:
        unit[index[g.identity[obj]]] = 1.0
    delta = np.zeros((n * n, n), dtype=complex)
    for j in range(n):
        delta[j * n + j, j] = 1.0
    eps = np.ones(n, dtype=complex)
    s = np.zeros((n, n), dtype=complex)
    for m, minv in g.inverse.items():
        s[index[minv], index[m]] = 1.0
    alg = FinDimAlgebra(
        c, unit, involution=s.copy(), basis_labels=list(g.morphisms), name=name or f"C[{g.name}]"
    )
    return WeakHopfAlgebra(alg, delta, eps, s)


def function_wha(g: Groupoid) -> WeakHopfAlgebra:
    """Functions on the groupoid: the dual of C[G] on delta-function basis."""
    from .wha import dual_wha

    w = dual_wha(groupoid_wha(g))
    w.algebra.name = f"F({g.name})"
    w.algebra.basis_labels = [f"d_{m}" for m in g.morphisms]
    return w


def cyclic_wha(n: int) -> WeakHopfAlgebra:
    return groupoid_wha(cyclic_group(n))


def symmetric_wha(n: int) -> WeakHopfAlgebra:
    return groupoid_wha(symmetric_group(n))


def pair_groupoid_wha(n: int) -> WeakHopfAlgebra:
    return groupoid_wha(pair_groupoid(n))


def sweedler_h4() -> WeakHopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra (basis 1, g, x, gx).

    Relations g^2 = 1, x^2 = 0, xg = -gx; not semisimple, no involution.
    """
    n = 4

    def idx(a: int, b: int) -> int:
        return a + 2 * b

    c = np.zeros((n, n, n), dtype=complex)
    for a, b in itertools.product(range(2), repeat=2):
        for a2, b2 in itertools.product(range(2), repeat=2):
            if b + b2 >= 2:
                continue
            sign = (-1) ** (b * a2)
            c[idx(a, b), idx(a2, b2), idx((a + a2) % 2, b + b2)] = sign
    unit = np.array([1, 0, 0, 0], dtype=complex)
    delta = np.zeros((n * n, n), dtype=complex)
    one, g, x, gx = 0, 1, 2, 3
    delta[one * n + one, one] = 1
    delta[g * n + g, g] = 1
    delta[x * n + one, x] = 1
    delta[g * n + x, x] = 1
    delta[gx * n + g, gx] = 1
    delta[one * n + gx, gx] = 1
    eps = np.array([1, 1, 0, 0], dtype=complex)
    s = np.zeros((n, n), dtype=complex)
    s[one, one] = 1
    s[g, g] = 1
    s[gx, x] = -1
    s[x, gx] = 1
    alg = FinDimAlgebra(c, unit, involution=None, basis_labels=["1", "g", "x", "gx"], name="H4")
    return WeakHopfAlgebra(alg, delta, eps, s)


def fusion_wha(fusion_rules, f_symbol, name: str = "fusion") -> WeakHopfAlgebra:
    """The weak Hopf *-algebra H = (+)_k End(V_k) of a multiplicity-free fusion category.

    ``fusion_rules[(a, b)]`` lists the channels of a (x) b over sortable labels,
    and ``f_symbol(y, a, b, w, z, m)`` is the recoupling coefficient
    [F^{y a b}_w]_{z m}.  The carrier of sector k is
    V_k = span{(y, x) : x in y (x) k}, H is spanned by the matrix units of the
    V_k in label order with the blockwise adjoint as involution, and

        Delta(T) = sum_{a, b, m} (J^m_{ab})^* T_m J^m_{ab},

    where J^m_{ab} : V_a (x) V_b -> V_m sends (y, z) (x) (z, w) to
    [F^{y a b}_w]_{z m} (y, w).  The counit solves (eps (x) id) Delta = id =
    (id (x) eps) Delta in least squares and the antipode is solved by
    :meth:`WeakHopfAlgebra.from_wba`, so an F that breaks the pentagon or
    unitarity raises :class:`~whakit.errors.ValidationError` naming the
    failed axiom.
    """
    labels = sorted({a for a, _ in fusion_rules})
    carriers = {k: [(y, x) for y in labels for x in labels if x in fusion_rules[(y, k)]] for k in labels}
    dims = {k: len(carriers[k]) for k in labels}
    offset, n = {}, 0
    for k in labels:
        offset[k], n = n, n + dims[k] ** 2
    block = {k: slice(offset[k], offset[k] + dims[k] ** 2) for k in labels}

    c = np.zeros((n, n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    involution = np.zeros((n, n), dtype=complex)
    for k in labels:  # E_pq E_qs = E_ps, 1 = sum_p E_pp, E_pq^* = E_qp
        o, d = offset[k], dims[k]
        p, q, s = np.indices((d, d, d))
        c[o + p * d + q, o + q * d + s, o + p * d + s] = 1.0
        unit[o + np.arange(d) * (d + 1)] = 1.0
        p, q = np.indices((d, d))
        involution[o + q * d + p, o + p * d + q] = 1.0

    delta3 = np.zeros((n, n, n), dtype=complex)
    for (a, b), channels in fusion_rules.items():
        da, db = dims[a], dims[b]
        for m in channels:
            j = np.zeros((dims[m], da, db), dtype=complex)
            for row, (y, w) in enumerate(carriers[m]):
                for pa, (ya, z) in enumerate(carriers[a]):
                    for pb, (zb, wb) in enumerate(carriers[b]):
                        if (ya, zb, wb) == (y, z, w):
                            j[row, pa, pb] = f_symbol(y, a, b, w, z, m)
            # <E^a_{pa qa} (x) E^b_{pb qb}, Delta(E^m_{pq})> = conj(J[p, pa, pb]) J[q, qa, qb]
            delta3[block[a], block[b], block[m]] = np.einsum("pxy,quv->xuyvpq", j.conj(), j).reshape(da**2, db**2, -1)

    # counit: sum_p eps_p d3[p, q, j] = delta_qj and sum_q eps_q d3[p, q, j] = delta_pj
    rows = np.vstack([delta3.transpose(1, 2, 0).reshape(n * n, n), delta3.transpose(0, 2, 1).reshape(n * n, n)])
    eye = np.eye(n).reshape(n * n)
    eps, _ = lstsq(rows, np.concatenate([eye, eye]))

    alg = FinDimAlgebra(
        c,
        unit,
        involution=involution,
        basis_labels=[f"E{k}[{p}{q}]" for k in labels for p in range(dims[k]) for q in range(dims[k])],
        name=name,
    )
    return WeakHopfAlgebra.from_wba(WeakBialgebra(alg, delta3.reshape(n * n, n), eps))


_FIBONACCI_RULES = {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (1, 1): (0, 1)}
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_F_TAU = np.array([[1.0 / _PHI, 1.0 / np.sqrt(_PHI)], [1.0 / np.sqrt(_PHI), -1.0 / _PHI]])


def _fibonacci_f(y, a, b, w, z, m):
    """Fibonacci F-symbols: only [F^{tau tau tau}_tau]_{zm} is not the scalar 1."""
    return _F_TAU[z, m] if (y, a, b, w) == (1, 1, 1, 1) else 1.0


def m2_m3() -> WeakHopfAlgebra:
    """A 13-dimensional weak Hopf *-algebra on M_2 + M_3 with a non-involutive
    antipode: :func:`fusion_wha` of the Fibonacci category (sectors 1 and tau,
    tau (x) tau = 1 + tau, quantum dimensions 1 and the golden ratio)."""
    return fusion_wha(_FIBONACCI_RULES, _fibonacci_f, name="M2+M3")


_PERTURBABLE = ("structure_constants", "unit", "counit", "comultiplication", "antipode", "involution")


def perturb(
    w: WeakHopfAlgebra,
    field: str = "structure_constants",
    magnitude: float = 1e-3,
    seed: int | None = None,
    index: int | None = None,
) -> WeakHopfAlgebra:
    """A deliberately broken copy of ``w`` for negative tests.

    Adds ``magnitude`` to one coefficient of the chosen structure array,
    leaving everything else bit-identical.  The coefficient is picked by
    ``seed`` unless an explicit flat ``index`` is given (which makes
    exhaustive sweeps possible).
    """
    if field not in _PERTURBABLE:
        raise ValueError(f"field must be one of {_PERTURBABLE}")
    r = rng(DEFAULT_SEED if seed is None else seed)

    c = w.algebra.c.copy()
    unit = w.unit.copy()
    inv = None if w.algebra.involution is None else w.algebra.involution.copy()
    delta = w.delta.copy()
    eps = w.eps.copy()
    s = w.antipode.copy()
    arrays = {
        "structure_constants": c,
        "unit": unit,
        "counit": eps,
        "comultiplication": delta,
        "antipode": s,
        "involution": inv,
    }
    arr = arrays[field]
    if arr is None:
        raise ValueError("cannot perturb a missing involution")
    flat = int(r.integers(arr.size)) if index is None else int(index) % arr.size
    arr.flat[flat] += magnitude
    alg = FinDimAlgebra(
        c, unit, involution=inv, basis_labels=list(w.algebra.basis_labels), name=f"{w.name}~"
    )
    return WeakHopfAlgebra(alg, delta, eps, s)
