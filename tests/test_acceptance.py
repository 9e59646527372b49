"""Acceptance suite: the numerical guarantees the package advertises.

One test per guarantee.  Each registers a single ``criterion N
PASS/FAIL`` line (see conftest) so the terminal summary doubles as
the acceptance report.  The tolerances quoted here are the advertised ones,
not implementation slack — loosening any of them is an interface change.
"""

from __future__ import annotations

import time

import numpy as np

import whakit as wk
from whakit.linalg import Subspace, kernel, lstsq, orth

SEED = 0x57484131
GOLDEN = (1 + np.sqrt(5)) / 2

STAR = ("z2", "z3", "z4", "z5", "s3", "p2", "p3", "p4", "fp2", "m23")
WEAK_KAC = {k: k != "m23" for k in STAR}
EXACT_DELTA = {"z2": 2, "z3": 3, "z4": 4, "z5": 5, "p2": 2, "p3": 3, "p4": 4}

class _Criterion:
    """Collects sub-check failures and records one verdict line on exit."""

    def __init__(self, record, num: int):
        self._record = record
        self.num = num
        self.failures: list[str] = []
        self.detail = ""

    def check(self, cond, msg: str) -> None:
        if not cond:
            self.failures.append(msg)

    def __enter__(self):
        return self

    def __exit__(self, etype, exc, tb):
        if etype is not None:
            self._record(self.num, "FAIL", f"{etype.__name__}: {exc}")
            return False
        if self.failures:
            extra = f" (+{len(self.failures) - 1} more)" if len(self.failures) > 1 else ""
            self._record(self.num, "FAIL", self.failures[0] + extra)
            raise AssertionError("\n".join(self.failures))
        self._record(self.num, "PASS", self.detail)
        return False


# --------------------------------------------------------------------------
# 1. axiom gate


def _first_violation(w):
    """Name of the first failed axiom check, or None when everything passes."""
    rep = wk.validate_wha(w)
    return None if rep.ok else rep.failures[0].name


def _perturbable_sizes(w):
    n = w.dim
    sizes = {
        "structure_constants": n**3,
        "unit": n,
        "counit": n,
        "comultiplication": n**3,
        "antipode": n * n,
    }
    if w.algebra.involution is not None:
        sizes["involution"] = n * n
    return sizes


def test_criterion_01_axioms_and_perturbation_gate(examples, acceptance):
    with _Criterion(acceptance, 1) as c:
        gate = dict(examples)
        for key in ("z3", "p2", "s3", "fp2"):
            gate[key + "^"] = examples[key].dual

        slowest = 0.0
        for key, w in gate.items():
            t0 = time.perf_counter()
            rep = wk.validate_wba(w)
            elapsed = time.perf_counter() - t0
            slowest = max(slowest, elapsed)
            c.check(rep.ok, f"{key}: {[f.name for f in rep.failures]}")
            c.check(elapsed < 1.0, f"{key}: validate_wba took {elapsed:.2f}s (budget 1s)")

        # single-coefficient +1e-3 perturbations must all be rejected with a
        # named violation: exhaustively for dim <= 6, sampled above that
        rng = np.random.default_rng(SEED)
        rejected = 0
        for key, w in gate.items():
            for field, size in _perturbable_sizes(w).items():
                if w.dim <= 6:
                    idxs = range(size)
                else:
                    idxs = sorted(rng.choice(size, size=min(8, size), replace=False).tolist())
                for i in idxs:
                    try:
                        name = _first_violation(wk.perturb(w, field, magnitude=1e-3, index=i))
                    except Exception as exc:  # construction itself may reject
                        name = type(exc).__name__
                    if name:
                        rejected += 1
                    else:
                        c.failures.append(f"{key}: +1e-3 at {field}[{i}] passed every check")
        c.detail = (
            f"{len(gate)} algebras valid (slowest axiom pass {slowest * 1e3:.0f} ms); "
            f"{rejected} perturbations rejected with a named violation"
        )


# --------------------------------------------------------------------------
# 2. antipode solver


def test_criterion_02_antipode_solver(examples, acceptance):
    with _Criterion(acceptance, 2) as c:
        worst = 0.0
        for key, w in examples.items():
            s = wk.solve_antipode(w)
            cst, d3 = w.algebra.c, w.delta3
            pl, pr = w.counital_maps
            n = w.dim

            # defining equations, recomputed from raw structure tensors
            r1 = np.einsum("ap,aqk,pqi->ki", s, cst, d3, optimize=True) - pr
            r2 = np.einsum("pak,aq,pqi->ki", cst, s, d3, optimize=True) - pl
            t3 = np.einsum("pqj,jri->pqri", d3, d3)
            r3 = np.einsum("ap,aqm,br,mbk,pqri->ki", s, cst, s, cst, t3, optimize=True) - s
            resid = max(np.linalg.norm(r1), np.linalg.norm(r2), np.linalg.norm(r3))
            worst = max(worst, resid)
            c.check(resid < 1e-9, f"{key}: defining-equation residual {resid:.2e}")
            c.check(
                np.linalg.norm(s - w.antipode) < 1e-9,
                f"{key}: solved antipode differs from the stored one",
            )

            # uniqueness: the homogeneous part of the solver's linear system
            # (both counital equations plus the linearized absorber ones)
            # must have trivial kernel
            eye = np.eye(n * n)
            blocks = np.vstack(
                [
                    np.einsum("aqk,pqi->kiap", cst, d3, optimize=True).reshape(n * n, n * n),
                    np.einsum("pak,pqi->kiaq", cst, d3, optimize=True).reshape(n * n, n * n),
                    np.einsum("pqi,rq,ark->kiap", d3, pl, cst, optimize=True).reshape(n * n, n * n) - eye,
                    np.einsum("pqi,rp,rbk->kibq", d3, pr, cst, optimize=True).reshape(n * n, n * n) - eye,
                ]
            )
            ker = kernel(blocks)
            c.check(ker.shape[1] == 0, f"{key}: antipode system has a {ker.shape[1]}-dim kernel")
        c.detail = f"residual ≤ {worst:.1e} and unique solution on {len(examples)} algebras"


# --------------------------------------------------------------------------
# 3. semisimplicity <-> normalized integral


def test_criterion_03_semisimplicity_iff_normalized_integral(examples, acceptance):
    with _Criterion(acceptance, 3) as c:
        for key, w in examples.items():
            try:
                wk.block_decomposition(w.algebra)
                semisimple = True
            except wk.NotSemisimple:
                semisimple = False
            nli = wk.normalized_left_integral(w)
            c.check(
                (nli is not None) == semisimple,
                f"{key}: semisimple={semisimple} but normalized integral "
                f"{'exists' if nli is not None else 'missing'}",
            )
            c.check(wk.maschke_check(w) == semisimple, f"{key}: maschke_check disagrees")
            c.check(semisimple == (key != "h4"), f"{key}: unexpected semisimplicity verdict")
        c.detail = f"equivalence holds on {len(examples)}/{len(examples)} algebras (h4 the negative case)"


# --------------------------------------------------------------------------
# 4. Haar integral


def test_criterion_04_haar_integral_and_positivity(examples, acceptance):
    with _Criterion(acceptance, 4) as c:
        for key in STAR:
            w = examples[key]
            h = wk.haar_integral(w)
            c.check(h is not None, f"{key}: no Haar integral found")
            if h is None:
                continue
            alg = w.algebra
            for label, other in (
                ("h - h*", alg.star(h)),
                ("h - h^2", w.mul(h, h)),
                ("h - S(h)", w.s(h)),
            ):
                r = np.linalg.norm(h - other)
                c.check(r < 1e-9, f"{key}: ||{label}|| = {r:.2e}")

        for key, w in examples.items():
            direct = wk.haar_integral(w) is not None
            c.check(wk.haar_criterion(w) == direct, f"{key}: existence criterion disagrees with direct solve")

        ratios = []
        for key in STAR:
            gram = wk.haar_state(examples[key].dual).gram
            eig = np.linalg.eigvalsh(gram)
            ratios.append(eig.min() / eig.max())
            c.check(
                eig.min() > 1e-12 * eig.max(),
                f"{key}: Haar sesquilinear form not positive definite (min eig {eig.min():.2e})",
            )
        c.detail = (
            f"Haar properties ≤ 1e-9 on {len(STAR)} C* algebras; "
            f"positive definite with eig ratio ≥ {min(ratios):.3f}"
        )


# --------------------------------------------------------------------------
# 5. canonical grouplike element


def _right_mult(alg, a):
    return np.einsum("iak,a->ki", alg.c, a)


def test_criterion_05_canonical_grouplike_and_modular_identity(examples, acceptance):
    with _Criterion(acceptance, 5) as c:
        for key in STAR:
            w = examples[key]
            alg = w.algebra
            cg = wk.canonical_grouplike(w)
            g = cg.g
            ginv = alg.inverse(g)

            # implements S^2 by conjugation
            ad_g = alg.left_mult(g) @ _right_mult(alg, ginv)
            r = np.linalg.norm(ad_g - w.antipode @ w.antipode)
            c.check(r < 1e-8, f"{key}: ||g·g^-1 conjugation - S^2|| = {r:.2e}")

            # balanced block traces
            for b in wk.block_decomposition(alg):
                tg = alg.regular_trace(alg.mul(b.central_idempotent, g)) / b.size
                tgi = alg.regular_trace(alg.mul(b.central_idempotent, ginv)) / b.size
                c.check(
                    abs(tg - tgi) < 1e-8,
                    f"{key}: block trace of g ({tg:.6f}) != of g^-1 ({tgi:.6f})",
                )

            if WEAK_KAC[key]:
                c.check(np.linalg.norm(g - w.unit) < 1e-9, f"{key}: g != 1 on a weak Kac algebra")
            else:
                c.check(np.linalg.norm(g - w.unit) > 1e-6, f"{key}: g unexpectedly trivial")

            # modular identity of the dual Haar functional:
            # <h^, ab> = <h^, b (gL gR) a (gL gR)^-1>
            hd = wk.haar_functional(w)
            k = w.mul(cg.g_left, cg.g_right)
            ad_k = alg.left_mult(k) @ _right_mult(alg, alg.inverse(k))
            lhs = np.einsum("k,ijk->ij", hd, alg.c)
            rhs = np.einsum("m,jam,ai->ij", hd, alg.c, ad_k, optimize=True)
            r = np.max(np.abs(lhs - rhs))
            c.check(r < 1e-8, f"{key}: modular identity off by {r:.2e}")

            # the Haar functional is a trace exactly in the weak Kac case
            tracial = np.max(np.abs(lhs - lhs.T)) < 1e-8
            c.check(
                tracial == wk.is_weak_kac(w),
                f"{key}: Haar functional tracial={tracial} but weak Kac={wk.is_weak_kac(w)}",
            )
        c.detail = f"conjugation, trace balance, modular identity on {len(STAR)} algebras; g=1 iff weak Kac here"


# --------------------------------------------------------------------------
# 6. duality


def test_criterion_06_bidual_and_counital_duality(examples, acceptance):
    with _Criterion(acceptance, 6) as c:
        for key, w in examples.items():
            b = wk.dual_wha(w.dual)
            pairs = [
                ("multiplication", b.algebra.c, w.algebra.c),
                ("unit", b.unit, w.unit),
                ("counit", b.eps, w.eps),
                ("comultiplication", b.delta3, w.delta3),
                ("antipode", b.antipode, w.antipode),
            ]
            c.check(
                (b.algebra.involution is None) == (w.algebra.involution is None),
                f"{key}: bidual gained/lost the star structure",
            )
            if w.algebra.involution is not None:
                pairs.append(("involution", b.algebra.involution, w.algebra.involution))
            for label, got, want in pairs:
                r = np.linalg.norm(got - want)
                c.check(r < 1e-10, f"{key}: bidual {label} off by {r:.2e}")

            # l |-> l -> 1^ maps A^L bijectively onto the dual's A^R,
            # and r |-> 1^ <- r maps A^R onto the dual's A^L
            d = w.dual
            arr = wk.sweedler_arrows(w)
            one_hat = d.unit
            sub = w.derived().counital_subalgebras
            dsub = d.derived().counital_subalgebras
            for label, basis, action, target in (
                ("A^L -> dual A^R", sub.left.basis, lambda v: arr.act(v, one_hat), dsub.right),
                ("A^R -> dual A^L", sub.right.basis, lambda v: arr.ract(one_hat, v), dsub.left),
            ):
                cols = np.column_stack([action(basis[:, j]) for j in range(basis.shape[1])])
                rank = np.linalg.matrix_rank(cols, tol=1e-8)
                c.check(rank == basis.shape[1], f"{key}: {label} has rank {rank} < {basis.shape[1]}")
                c.check(Subspace(cols, w.dim).equals(target), f"{key}: image of {label} is wrong")
        c.detail = f"bidual ≤ 1e-10 and counital duality bijective on {len(examples)} algebras"


# --------------------------------------------------------------------------
# 7. Markov index routes


def _corner_index(w):
    """Markov-trace index of z A^L ⊂ z A for the first vacuum projection z."""
    vac = wk.vacua(w)
    z = np.asarray(vac.projections)[0]
    alg = w.algebra
    space = Subspace(orth(alg.left_mult(z)), w.dim)
    corner, qmat = wk.induced_algebra(alg, space, unit_vec=z, name=f"{w.name}|corner")
    coords, resid = lstsq(qmat, alg.left_mult(z) @ w.derived().counital_subalgebras.left.basis)
    if resid > 1e-8:
        raise AssertionError(f"{w.name}: z A^L does not embed in the corner")
    mt = wk.markov_trace(corner, Subspace(orth(coords), corner.dim))
    return float(mt.index)


def test_criterion_07_index_routes_agree(examples, acceptance):
    with _Criterion(acceptance, 7) as c:
        spread_worst = 0.0
        for key in STAR:
            w = examples[key]
            delta = w.derived().sectors.delta
            routes = {
                "PF of the dual dimension matrix": w.dual.derived().sectors.delta,
                "corner inclusion index": _corner_index(w),
                "markov_index": wk.markov_index(w),
            }
            for label, val in routes.items():
                spread_worst = max(spread_worst, abs(val - delta))
                c.check(abs(val - delta) < 1e-6, f"{key}: {label} = {val:.8f} vs δ = {delta:.8f}")

            if key in EXACT_DELTA:
                c.check(abs(delta - EXACT_DELTA[key]) < 1e-9, f"{key}: δ = {delta!r}, expected {EXACT_DELTA[key]}")

            # Haar index I: always >= δ, equal exactly in the weak Kac case
            e_l, _ = wk.haar_expectations(w)
            wat = wk.watatani_index(w.algebra, e_l)
            c.check(wat.is_scalar, f"{key}: Haar index element is not scalar")
            haar_i = float(np.real(wat.scalar))
            c.check(haar_i >= delta - 1e-9, f"{key}: I = {haar_i:.8f} < δ = {delta:.8f}")
            c.check(
                (abs(haar_i - delta) < 1e-9) == WEAK_KAC[key],
                f"{key}: I - δ = {haar_i - delta:.2e} but weak Kac = {WEAK_KAC[key]}",
            )
        c.detail = f"four routes within {max(spread_worst, 1e-16):.1e} on {len(STAR)} algebras; I = δ iff weak Kac"


# --------------------------------------------------------------------------
# 8. representation category


def test_criterion_08_representation_category(examples, acceptance):
    with _Criterion(acceptance, 8) as c:
        def mult(table, w, rep):
            raw = table.multiplicities(rep)
            ints = np.rint(np.real(raw)).astype(int)
            c.check(
                np.max(np.abs(raw - ints)) < 1e-6 and ints.min() >= 0,
                f"{w.name}: non-integer fusion multiplicities {raw}",
            )
            return ints

        for key in ("z3", "s3", "fp2", "m23"):
            w = examples[key]
            t = w.derived().sectors
            irreps = [s.rep for s in t.sectors]

            # fusion: integrality and associativity of the multiplicities
            prods: dict[tuple[int, int], object] = {}
            for i, di in enumerate(irreps):
                for j, dj in enumerate(irreps):
                    prods[i, j] = wk.monoidal_product(w, di, dj)
                    mult(t, w, prods[i, j])
            for i, di in enumerate(irreps):
                for j in range(len(irreps)):
                    for k, dk in enumerate(irreps):
                        left = mult(t, w, wk.monoidal_product(w, prods[i, j], dk))
                        right = mult(t, w, wk.monoidal_product(w, di, prods[j, k]))
                        c.check(
                            np.array_equal(left, right),
                            f"{key}: fusion not associative on ({i},{j},{k}): {left} vs {right}",
                        )

            # dimension matrices: additive, multiplicative, transposed by conjugation
            for i, di in enumerate(irreps):
                for j, dj in enumerate(irreps):
                    dm_i, dm_j = t.dimension_matrix(di), t.dimension_matrix(dj)
                    r_add = np.linalg.norm(t.dimension_matrix(di.direct_sum(dj)) - dm_i - dm_j)
                    r_mul = np.linalg.norm(t.dimension_matrix(prods[i, j]) - dm_i @ dm_j)
                    c.check(r_add < 1e-8, f"{key}: d not additive on ({i},{j}): off by {r_add:.2e}")
                    c.check(r_mul < 1e-6, f"{key}: d not multiplicative on ({i},{j}): off by {r_mul:.2e}")
                r_conj = np.linalg.norm(
                    t.dimension_matrix(wk.conjugate_rep(w, di)) - t.dimension_matrix(di).T
                )
                c.check(r_conj < 1e-8, f"{key}: conjugation does not transpose d on sector {i}")

        # d_q: grouplike trace formula vs standard solutions, and d_q >= 1
        worst = 0.0
        for key in STAR:
            w = examples[key]
            t = w.derived().sectors
            alg = w.algebra
            weights = np.asarray(t.vacua.weights)
            for s in t.sectors:
                z = t.blocks.blocks[s.index].central_idempotent
                tr_g = alg.regular_trace(alg.mul(z, t.grouplike.g)) / s.size
                d_formula = float(np.real(tr_g)) / np.sqrt(weights[s.vacuum_left] * weights[s.vacuum_right])
                gap = abs(d_formula - s.solution.d)
                worst = max(worst, gap)
                c.check(gap < 1e-6, f"{key} sector {s.index}: trace formula {d_formula:.8f} vs standard solution {s.solution.d:.8f}")
                c.check(abs(d_formula - s.d) < 1e-9, f"{key} sector {s.index}: table d disagrees with trace formula")
                c.check(s.d >= 1 - 1e-9, f"{key} sector {s.index}: d = {s.d:.8f} < 1")
        c.detail = f"integer associative fusion; d additive/multiplicative; trace vs standard d within {max(worst, 1e-16):.1e}"


# --------------------------------------------------------------------------
# 9. actions, crossed products, Galois


def test_criterion_09_actions_crossed_products_galois(examples, acceptance):
    with _Criterion(acceptance, 9) as c:
        actions = {
            "translation on functions(Z2)": wk.arrow_action(examples["z2"]),
            "translation on functions(Z3)": wk.arrow_action(examples["z3"]),
            "arrows on functions(pair-2)": wk.arrow_action(examples["fp2"]),
            "dual regular of Z3": wk.dual_regular_action(examples["z3"]),
            "dual regular of pair-2": wk.dual_regular_action(examples["p2"]),
            "dual regular of pair-3": wk.dual_regular_action(examples["p3"]),
        }
        regular_family = (
            "dual regular of pair-2",
            "dual regular of pair-3",
            "arrows on functions(pair-2)",
        )

        for name, act in actions.items():
            rep = wk.validate_action(act)
            c.check(rep.ok, f"{name}: action axioms fail: {[f.name for f in rep.failures]}")

            # on groupoids and group algebras A is free over A^L
            w = act.wha
            expected = act.module.dim * w.dim // w.derived().counital_subalgebras.left.dim
            cp = wk.crossed_product(act)
            c.check(cp.report.ok, f"{name}: crossed product construction report not ok")
            c.check(
                cp.algebra.dim == expected,
                f"{name}: crossed product dim {cp.algebra.dim}, expected {expected}",
            )

        # dual regular actions (whose coaction is Delta itself) and arrow
        # actions are Galois, groupoid or not; the crossed product then has
        # the dimension of the Galois map's domain
        galois_keys = ("z3", "s3", "p2", "p3", "fp2", "m23")
        for key in galois_keys:
            for kind, make in (("dual regular", wk.dual_regular_action), ("arrows", wk.arrow_action)):
                act = make(examples[key])
                mat, bij = wk.galois_map(act)
                c.check(bij, f"{kind} of {key}: Galois map {mat.shape} is not bijective")
                dim = wk.crossed_product(act).algebra.dim
                c.check(
                    mat.shape == (dim, dim),
                    f"{kind} of {key}: crossed dim {dim}, but dim M (x)_N M = {mat.shape[1]}",
                )

        worst = 0.0
        for name in regular_family:
            act = actions[name]
            rep = wk.verify_basic_construction(act)
            worst = max(worst, max(ch.residual for ch in rep.checks))
            c.check(rep.ok, f"{name}: {[f.name for f in rep.failures]}")
            c.check(worst < 1e-8, f"{name}: basic-construction residual {worst:.2e}")
            reg = wk.is_regular(act)
            c.check(reg.regular, f"{name}: expected a regular action")

        for name, act in actions.items():
            if name in regular_family:
                continue
            # the module is maximal abelian in the crossed product, so the
            # relative-commutant clause fails while the other two hold
            reg = wk.is_regular(act)
            c.check(not reg.regular, f"{name}: expected non-regular")
            clauses = reg.failing_clauses()
            c.check(
                len(clauses) == 1 and "(ii)" in clauses[0],
                f"{name}: failing clauses {clauses}",
            )

        # a trivial action: Galois degenerates and regularity is refused
        scalars = wk.FinDimAlgebra(np.ones((1, 1, 1)), np.array([1.0]), involution=np.eye(1), name="C")
        triv = wk.trivial_action(examples["z2"], scalars)
        mat, bij = wk.galois_map(triv)
        c.check(not bij, "trivial action: Galois map unexpectedly bijective")
        c.check(
            np.linalg.matrix_rank(mat) < max(mat.shape),
            "trivial action: Galois map has full rank",
        )
        reg = wk.is_regular(triv)
        c.check(not reg.regular and reg.failing_clauses(), "trivial action: regularity not refused")
        c.detail = (
            f"6 actions: crossed dims = dim M · dim A / dim A^L; "
            f"{2 * len(galois_keys)} actions: Galois bijective, crossed dim = dim M ⊗_N M; "
            f"basic construction ≤ {worst:.1e} on the regular family; trivial action refused"
        )


# --------------------------------------------------------------------------
# 10. smash products


def test_criterion_10_smash_products(examples, acceptance):
    with _Criterion(acceptance, 10) as c:
        for key, w in examples.items():
            cp = wk.smash_product(w)
            sizes = wk.block_decomposition(cp.algebra).sizes
            if key.startswith("z"):
                n = w.dim
                c.check(
                    sizes == (n,),
                    f"{key}: smash product blocks {sizes}, expected a single M_{n} factor",
                )
            al_alg, _ = wk.induced_algebra(w.algebra, w.derived().counital_subalgebras.left, name=f"{key}|A^L")
            al_sizes = wk.block_decomposition(al_alg).sizes
            c.check(
                len(sizes) == len(al_sizes),
                f"{key}: smash product has {len(sizes)} blocks but A^L has {len(al_sizes)}",
            )
        c.detail = f"A # A^ is M_n for cyclic groups; block count matches A^L on {len(examples)} algebras"


# --------------------------------------------------------------------------
# 11. the M2 ⊕ M3 showcase


def test_criterion_11_m2_m3_showcase(acceptance):
    from whakit.cli import analyze_wha

    with _Criterion(acceptance, 11) as c:
        w = wk.m2_m3()
        stages = analyze_wha(w)["stages"]
        sizes = {s["n_q"]: s["d_q"] for s in stages["sectors"]["sectors"]}
        c.check(set(sizes) == {2, 3}, f"unexpected sector sizes {sorted(sizes)}")
        d2, d3 = sizes.get(2, 0.0), sizes.get(3, 0.0)
        c.check(abs(d2 - 1) < 1e-6, f"d_2 = {d2!r}, expected 1")
        c.check(abs(d3 - GOLDEN) < 1e-6, f"d_3 = {d3!r}, expected (1+sqrt 5)/2")

        t = w.derived().sectors
        tau = next(s.rep for s in t.sectors if s.size == 3)
        fusion = np.rint(np.real(t.multiplicities(wk.monoidal_product(w, tau, tau)))).astype(int)
        c.check(np.array_equal(fusion, [1, 1]), f"3 x 3 decomposes as {fusion}, expected 2 + 3")

        delta = stages["sectors"]["delta"]
        c.check(abs(delta - (2 + 3 * GOLDEN)) < 1e-6, f"δ = {delta!r}, expected 2+3·(1+sqrt 5)/2")
        c.check(abs(stages["index"]["markov_index"] - delta) < 1e-9, "index stage disagrees with sector stage")

        haar_i = stages["index"]["haar_index"]
        c.check(abs(haar_i - (5 + np.sqrt(5))) < 1e-6, f"I = {haar_i!r}, expected 5+sqrt 5")
        c.detail = f"d = (1, {d3:.7f}), 3x3 = 2+3, δ = {delta:.7f}, I = {haar_i:.7f}"
