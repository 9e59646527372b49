"""Module algebra actions, crossed products, regularity, Galois, smash."""

import copy
import json
import re
import tracemalloc

import numpy as np
import pytest

import whakit as wk
from whakit.cli import EX_OK, main
from whakit.linalg import Subspace


@pytest.fixture(scope="module")
def scalars():
    return wk.FinDimAlgebra(
        np.ones((1, 1, 1)), np.array([1.0]), involution=np.eye(1), name="C"
    )


def _actions(examples):
    return {
        "arrow z2": wk.arrow_action(examples["z2"]),
        "arrow z3": wk.arrow_action(examples["z3"]),
        "arrow fp2": wk.arrow_action(examples["fp2"]),
        "dualreg z3": wk.dual_regular_action(examples["z3"]),
        "dualreg p2": wk.dual_regular_action(examples["p2"]),
        "dualreg p3": wk.dual_regular_action(examples["p3"]),
    }


@pytest.fixture(scope="module")
def actions(examples):
    return _actions(examples)


REGULAR = ["dualreg p2", "dualreg p3", "arrow fp2"]
NON_REGULAR = ["arrow z2", "arrow z3", "dualreg z3"]

# name -> (module dim, crossed dim, blocks, invariants dim)
CROSSED = {
    "arrow z2": (2, 4, (2,), 1),
    "arrow z3": (3, 9, (3,), 1),
    "arrow fp2": (4, 8, (2, 2), 2),
    "dualreg z3": (3, 9, (3,), 1),
    "dualreg p2": (4, 8, (2, 2), 2),
    "dualreg p3": (9, 27, (3, 3, 3), 3),
}


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_action_axioms(actions, name):
    rep = wk.validate_action(actions[name])
    assert rep.ok, [f.name for f in rep.failures]


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_crossed_product_dimensions_and_blocks(actions, name):
    act = actions[name]
    dim_m, dim_cross, blocks, dim_inv = CROSSED[name]
    assert act.module.dim == dim_m
    cp = wk.crossed_product(act)
    assert cp.algebra.dim == dim_cross
    assert cp.report.ok
    assert wk.block_decomposition(cp.algebra).sizes == blocks
    assert wk.invariants(act).dim == dim_inv
    # dim(M x| A) = dim M * dim A / dim A^L on these (A free over A^L)
    al = act.wha.derived().counital_subalgebras.left.dim
    assert cp.algebra.dim == act.module.dim * act.wha.dim // al


def _z2_on_c3(fixed, involution=None):
    """C[Z_2] on C^3 (pointwise product) by alpha_g = +1 on span{1, fixed} and -1 on span{e_1}.

    alpha_g^2 = 1, so both routes of :func:`invariants` find span{1, fixed}; alpha_g is not
    multiplicative, so that span need not be a *-subalgebra."""
    c = np.zeros((3, 3, 3))
    for i in range(3):
        c[i, i, i] = 1.0
    m_alg = wk.FinDimAlgebra(c, np.ones(3), involution=involution, name="C^3")
    p = np.column_stack([np.ones(3), fixed, [0.0, 1.0, 0.0]])
    g = p @ np.diag([1.0, 1.0, -1.0]) @ np.linalg.inv(p)
    # alpha[i, j, k] is the coefficient of m_k in alpha_{e_i}(m_j): the transposed operator
    return wk.WhaAction(wk.cyclic_wha(2), m_alg, np.stack([np.eye(3), g.T]), name="z2 on C^3")


def test_invariants_not_closed_under_the_product_are_a_mismatch():
    # (e_1 + 2 e_2)^2 = e_1 + 4 e_2 is not in span{1, e_1 + 2 e_2}
    with pytest.raises(wk.InvariantMismatch, match="^invariants are not closed under the product$"):
        wk.invariants(_z2_on_c3([0.0, 1.0, 2.0]))


def test_invariants_not_closed_under_the_involution_are_a_mismatch():
    # span{1, e_2} is a subalgebra, but the star swapping e_1 and e_2 takes e_2 out of it
    swap = np.eye(3)[:, [0, 2, 1]]
    assert wk.invariants(_z2_on_c3([0.0, 0.0, 1.0])).dim == 2
    with pytest.raises(wk.InvariantMismatch, match="^invariants are not closed under the involution$"):
        wk.invariants(_z2_on_c3([0.0, 0.0, 1.0], involution=swap))


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_crossed_product_embeddings(actions, name):
    # m -> m x| 1 and a -> 1 x| a are multiplicative into the crossed product
    act = actions[name]
    cp = wk.crossed_product(act)
    big, m_alg, w = cp.algebra, act.module, act.wha
    r = np.random.default_rng(0x57484131)
    m1, m2 = r.normal(size=(2, m_alg.dim))
    a1, a2 = r.normal(size=(2, w.dim))
    assert np.linalg.norm(cp.embed_m @ m_alg.mul(m1, m2) - big.mul(cp.embed_m @ m1, cp.embed_m @ m2)) < 1e-8
    assert np.linalg.norm(cp.embed_a @ w.mul(a1, a2) - big.mul(cp.embed_a @ a1, cp.embed_a @ a2)) < 1e-8
    assert np.linalg.norm(cp.element(m_alg.unit, w.unit) - big.unit) < 1e-8
    # covariance: (1 x| a)(m x| 1) = alpha_{a_(1)}(m) x| a_(2)
    lhs = big.mul(cp.embed_a @ a1, cp.embed_m @ m1)
    d = w.coproduct(a1)
    rhs = np.zeros(big.dim, dtype=complex)
    eye = np.eye(w.dim)
    for p in range(w.dim):
        for q in range(w.dim):
            if abs(d[p, q]) < 1e-14:
                continue
            rhs += d[p, q] * cp.element(act.amat(eye[p]) @ m1, eye[q])
    assert np.linalg.norm(lhs - rhs) < 1e-8


def test_ill_defined_product_is_rejected(examples):
    act = wk.arrow_action(examples["z3"])
    bad = wk.WhaAction(act.wha, act.module, act.alpha.copy(), name="broken")
    bad.alpha[0, 1, 2] += 1e-2
    with pytest.raises((wk.IllDefinedProduct, wk.ValidationError)):
        wk.crossed_product(wk.WhaAction(act.wha, act.module, bad.alpha, name="broken"))


def test_ill_defined_product_is_rejected_where_the_relation_span_is_nonzero(examples):
    # on z3 A^L = C and the relation span is empty, so the descent check only
    # runs where A^L is larger, as for the pair groupoid
    act = wk.dual_regular_action(examples["p2"])
    alpha = act.alpha.copy()
    alpha[1, 0, 2] += 1e-2
    with pytest.raises(wk.IllDefinedProduct, match="does not descend") as err:
        wk.crossed_product(wk.WhaAction(act.wha, act.module, alpha, name="broken"))
    resid = float(re.search(r"residual ([0-9.e+-]+)", str(err.value)).group(1))
    assert resid == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("key, blocks", [("s3", (6,)), ("m23", (5, 8))])
def test_smash_product_on_a_complex_basis(examples, rotated, key, blocks):
    # the star of the crossed product is antilinear, so the coproduct enters
    # it conjugated; on a real basis the conjugation is invisible
    w = rotated(examples[key], seed=5)
    assert wk.validate_star(w).ok
    sp = wk.smash_product(w)
    assert wk.block_decomposition(sp.algebra).sizes == blocks


def _dense_reference(act):
    """Product tensor of M x| A on M (x) A and its star matrix, formed densely."""
    w, m_alg = act.wha, act.module
    n = m_alg.dim * w.dim
    big = np.einsum(
        "pqa,pjr,irk,qbc->iajbkc", w.delta3, act.alpha, m_alg.c, w.algebra.c, optimize=True
    ).reshape(n, n, n)
    inv_a = w.algebra.involution
    st = np.einsum(
        "pqa,mp,mjr,ji,nq->rnia", np.conj(w.delta3), inv_a, act.alpha, m_alg.involution, inv_a,
        optimize=True,
    ).reshape(n, n)
    return big, st


@pytest.mark.parametrize("complex_basis", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("key", ["p2", "p3", "fp3", "m23"])
def test_crossed_product_matches_dense_reference(examples, rotated, key, complex_basis):
    w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
    if complex_basis:
        w = rotated(w, seed=11)
    act = wk.dual_regular_action(w)
    cp = wk.crossed_product(act)
    big, st = _dense_reference(act)
    car = cp.carrier
    cq = np.einsum("ia,jb,ijk,kg->abg", car, car, big, np.conj(car), optimize=True)
    unit = car.conj().T @ np.kron(act.module.unit, act.wha.unit)
    inv = car.conj().T @ st @ np.conj(car)

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    assert rel(cp.algebra.c, cq) < 1e-12
    assert rel(cp.algebra.unit, unit) < 1e-12
    assert rel(cp.algebra.involution, inv) < 1e-12
    # an embedding row's threshold is tol.bound(|c_src|_F |E|_F + |c_out|_F |E|_F^2), E the embedding matrix
    thr = {c.name: c.threshold for c in cp.report.checks}
    for name, src, emb in (
        ("embedding-M-multiplicative", act.module.c, cp.embed_m),
        ("embedding-A-multiplicative", act.wha.algebra.c, cp.embed_a),
    ):
        e = np.linalg.norm(emb)
        want = wk.DEFAULT_TOL.bound(np.linalg.norm(src) * e + np.linalg.norm(cq) * e**2)
        assert thr[name] == pytest.approx(want, rel=1e-12), name


def test_crossed_product_memory_stays_below_the_dense_tensor():
    # the dense product tensor of p4 alone is 256^3 complex entries = 256 MiB
    act = wk.dual_regular_action(wk.pair_groupoid_wha(4))
    tracemalloc.start()
    try:
        cp = wk.crossed_product(act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cp.dim == 64
    assert peak < 256 * 2**20


def test_crossed_product_memory_stays_below_the_deleted_product_tensor():
    # the dense route's (d_full, d_full, d) tensor is (256, 256, 64) complex
    # entries = 64 MiB on p4; the concrete route never forms it
    act = wk.dual_regular_action(wk.pair_groupoid_wha(4))
    tracemalloc.start()
    try:
        cp = wk.crossed_product(act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cp.dim == 64
    assert peak < 64 * 2**20


def test_a_wedderburn_crossed_product_stores_ops_and_coordinates_and_no_cubic_array(actions, m23):
    """The Wedderburn form that a Galois crossed product takes keeps Pi, T and T^-1, and no (d, d, d) array."""
    for act in list(actions.values()) + [wk.dual_regular_action(m23)]:
        cp = wk.crossed_product(act)
        d, k = cp.dim, act.module.dim
        assert isinstance(cp.algebra, wk.WedderburnAlgebra)
        arrays = {key: v.shape for key, v in vars(cp.algebra).items() if isinstance(v, np.ndarray)}
        assert arrays["ops"] == (d, k, k)
        assert arrays["coords"] == arrays["_inverse"] == (d, d)
        assert [key for key, shape in arrays.items() if len(shape) == 3] == ["ops"]
        assert (d, d, d) not in arrays.values()


def test_crossed_product_peak_is_within_two_and_a_half_structure_constants(m23):
    # c, the star row's slices (at most 3/8 of c) and the carrier, embeddings and factors: 1.5 c
    act = wk.dual_regular_action(m23)
    wk.crossed_product(act)  # the action report and m23's derived structures are kept
    tracemalloc.start()
    try:
        cp = wk.crossed_product(act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cp.dim == 89
    assert peak <= 1.6 * cp.algebra.c.nbytes


# ---------------------------------------------------------------------------
# the two routes of crossed_product: concrete on M for Galois actions, dense otherwise


def _spy_on_the_dense_route(monkeypatch):
    """Replace the dense route by a wrapper that records what each call returned or raised."""
    calls = []
    dense = wk.actions._dense_product

    def spy(*args, **kwargs):
        try:
            out = dense(*args, **kwargs)
        except Exception as exc:
            calls.append(exc)
            raise
        calls.append(out)
        return out

    monkeypatch.setattr(wk.actions, "_dense_product", spy)
    return calls


@pytest.mark.parametrize("complex_basis", [False, True], ids=["canonical", "complex"])
@pytest.mark.parametrize("make", [wk.dual_regular_action, wk.arrow_action], ids=["dualreg", "arrow"])
@pytest.mark.parametrize("key", ["z3", "s3", "p2", "p3", "fp2", "fp3", "m23", "p4"])
def test_galois_crossed_products_take_the_concrete_route(
    examples, rotated, monkeypatch, key, make, complex_basis
):
    w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
    if complex_basis:
        w = rotated(w, seed=11)
    act = make(w)
    calls = _spy_on_the_dense_route(monkeypatch)
    cp = wk.crossed_product(act)
    assert calls == []
    # the same crossed product with the Wedderburn form refused: the dense route decides
    _refuse_the_wedderburn_form(monkeypatch)
    ref = wk.crossed_product(act)
    assert len(calls) == 1

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    for field in ("carrier", "embed_m", "embed_a"):
        assert rel(getattr(cp, field), getattr(ref, field)) < 1e-12, field
    assert rel(cp.algebra.c, ref.algebra.c) < 1e-12
    assert rel(cp.algebra.unit, ref.algebra.unit) < 1e-12
    assert rel(cp.algebra.involution, ref.algebra.involution) < 1e-12
    assert cp.report.ok
    assert [(r.name, pytest.approx(r.threshold, rel=1e-12)) for r in cp.report.checks] == [
        (r.name, r.threshold) for r in ref.report.checks
    ]
    # the Wedderburn form against the dense route: blocks, the inclusion of M, every row's name and
    # verdict, and the residuals of the rows that both compute from coordinates; the associativity
    # and star rows report certificates, which bound the dense norms
    assert (cp.route, ref.route) == ("wedderburn", "dense")
    assert isinstance(cp.algebra, wk.WedderburnAlgebra) and type(ref.algebra) is wk.FinDimAlgebra
    assert cp.algebra.block_decomposition().sizes == ref.algebra.block_decomposition().sizes
    assert _inclusion_of_m(cp) == _inclusion_of_m(ref)
    verdicts = [(r.name, r.passed) for r in ref.report.checks]
    assert [(r.name, r.passed) for r in cp.report.checks] == verdicts
    rows = {r.name: r for r in cp.report.checks}
    for r in ref.report.checks:
        if r.name in ("associativity", "star-antimultiplicative"):
            assert rows[r.name].residual >= r.residual, r.name
        else:
            assert abs(rows[r.name].residual - r.residual) <= 1e-3 * r.threshold, r.name
    # a basic construction: the blocks of M x| A are m_l = sum_q Lambda(N c M)[l, q] s_q over M's blocks s_q
    lam, _, m_blocks = wk.inclusion_matrix(act.module, wk.invariants(act))
    assert sorted(cp.algebra.sizes) == sorted((lam @ np.array(m_blocks.sizes)).tolist())
    assert sorted(cp.algebra.block_decomposition().sizes) == sorted(cp.algebra.sizes)


def _refuse_the_wedderburn_form(mp):
    """Make the Wedderburn form refuse, so that the dense route decides."""
    mp.setattr(wk.actions, "_wedderburn_product", lambda *args: None)


def _inclusion_of_m(cp):
    """Lambda(M c M x| A) through ``embed_m``, its columns sorted, so that the order of M x| A's blocks does not matter."""
    m_blocks = cp.action.module.block_decomposition()
    lam = wk.actions._inclusion_matrix(cp.algebra, m_blocks, cp.embed_m, wk.DEFAULT_TOL)
    return sorted(map(tuple, lam.T.tolist()))


# ---------------------------------------------------------------------------
# the Wedderburn form: the operators Pi_g on M, never the (d, d, d) tensor


@pytest.mark.parametrize("key", ["m23", "p4"])
def test_the_basic_construction_on_the_represented_form_is_the_dense_one(examples, monkeypatch, key):
    """Every row of verify_basic_construction on the Wedderburn form, the crossed product represented
    on M, gives the dense route's verdict and residual.  All pass on p4; m23's dual regular action
    is not regular (clause (ii)), so there the Jones rows pass and the items comparing commutants and
    centers with A^L, A^R, Z^L, Z^R fail on both."""
    cp = wk.crossed_product(wk.dual_regular_action(examples[key]))
    assert isinstance(cp.algebra, wk.WedderburnAlgebra)
    got = wk.verify_basic_construction(cp.action, cp)
    _refuse_the_wedderburn_form(monkeypatch)
    want = wk.verify_basic_construction(cp.action, wk.crossed_product(cp.action))
    assert [(r.name, r.passed) for r in got.checks] == [(r.name, r.passed) for r in want.checks]
    for r, w in zip(got.checks, want.checks):
        assert abs(r.residual - w.residual) <= 1e-12, r.name
    assert got.ok == (key == "p4")
    assert all(r.passed for r in got.checks if r.name.startswith(("jones", "M2")))


@pytest.mark.parametrize("key", ["m23", "p4"])
def test_the_star_certificate_refuses_a_bent_involution(examples, key):
    """Scaling any one column of the involution by 1 + 1e-6 makes the certificate miss the star
    row's threshold, and the coordinate row that then decides fails (checked on three columns)."""
    big = wk.crossed_product(wk.dual_regular_action(examples[key])).algebra
    assert isinstance(big, wk.WedderburnAlgebra)
    row = {r.name: r for r in big.validate().checks}["star-antimultiplicative"]
    assert row.passed and big._star_bound() == row.residual
    for col in range(big.dim):
        bent = copy.copy(big)  # the same operators and frames, with the involution bent
        bent.involution = big.involution.copy()
        bent.involution[:, col] *= 1 + 1e-6
        assert bent._star_bound() > row.threshold, col
        if col in (0, big.dim // 2, big.dim - 1):
            bent_row = {r.name: r for r in bent.validate().checks}["star-antimultiplicative"]
            assert not bent_row.passed, col
            assert bent_row.residual == bent._star_defect()


def _star_identity_residual(big, g):
    """``|G Pi(e_i*) - Pi_i^H G|_F / |G|_F`` over all basis vectors e_i."""
    star_ops = np.tensordot(big.involution, big.ops, axes=([0], [0]))
    return np.linalg.norm(g @ star_ops - big.ops.conj().transpose(0, 2, 1) @ g) / np.linalg.norm(g)


@pytest.mark.parametrize("basis", ["canonical", "real", "complex"])
@pytest.mark.parametrize("make", [wk.dual_regular_action, wk.arrow_action], ids=["dualreg", "arrow"])
@pytest.mark.parametrize("key", ["p2", "s3", "p3", "fp3", "m23", "p4"])
def test_the_trace_form_inner_product_makes_pi_a_star_representation(examples, rotated, key, make, basis):
    """G = sum_ij (K^-T)_ij Pi_i^H Pi_j, K = S^T T, satisfies G Pi(x*) = Pi(x)^H G, and its
    certificate, not the coordinate fallback, decides the star row."""
    w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
    if basis != "canonical":
        w = rotated(w, seed=5, real=basis == "real")
    big = wk.crossed_product(make(w)).algebra
    assert isinstance(big, wk.WedderburnAlgebra)
    assert _star_identity_residual(big, big._star_form()) <= 1e-12
    row = {r.name: r for r in big.validate().checks}["star-antimultiplicative"]
    assert row.passed and big._star_bound() == row.residual


@pytest.mark.parametrize("make", [wk.dual_regular_action, wk.arrow_action], ids=["dualreg", "arrow"])
def test_the_star_form_weights_are_the_transposed_inverse_gram_matrix(examples, rotated, make):
    """In a complex basis K is Hermitian but not symmetric, and the weights K^-1 in place of
    K^-T break the identity G Pi(x*) = Pi(x)^H G."""
    big = wk.crossed_product(make(rotated(examples["m23"], seed=3))).algebra
    k = big.involution.T @ big.trace_form()
    ops, n, m = big.ops, big.dim, big.ops.shape[1]
    wrong = np.tensordot(np.linalg.inv(k).T, ops.conj().transpose(0, 2, 1), axes=1)  # sum_i (K^-1)_ij Pi_i^H
    g = wrong.transpose(1, 0, 2).reshape(m, n * m) @ ops.reshape(n * m, m)
    assert _star_identity_residual(big, big._star_form()) <= 1e-12
    assert _star_identity_residual(big, g) > 0.1


def test_the_star_certificate_on_p4_stays_below_two_mib(examples):
    # the parent's (k^2, k^2) normal matrix and its Kronecker terms peaked at 3.3 MiB (k = 16)
    big = wk.smash_product(examples["p4"]).algebra
    tracemalloc.start()
    try:
        bound = big._star_bound()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound is not None and bound <= 1e-10
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("key", ["m23", "p4"])
def test_the_coordinate_star_row_matches_the_dense_one(examples, rotated, key):
    big = wk.crossed_product(wk.dual_regular_action(rotated(examples[key], 3))).algebra
    assert isinstance(big, wk.WedderburnAlgebra)
    dense = wk.FinDimAlgebra(big.c, big.unit, involution=big.involution)
    assert abs(big._star_defect() - dense._star_defect()) <= 1e-12 * big.norm**2


def test_no_library_path_reads_the_structure_constants_of_a_represented_algebra(examples, monkeypatch, tmp_path, capsys):
    """No library path reads ``c`` of the Wedderburn form, the crossed product represented on M, and
    the dense route never runs (it raises) on the crossprod ladder."""
    def refuse(self):
        raise AssertionError("a library path read the structure constants of the Wedderburn form")

    def never(*args, **kwargs):
        raise AssertionError("a Galois crossed product took the dense route")

    monkeypatch.setattr(wk.WedderburnAlgebra, "c", property(refuse))
    monkeypatch.setattr(wk.actions, "_dense_product", never)
    smash = {"s3": (6,), "p3": (3, 3, 3), "fp3": (3, 3, 3), "m23": (5, 8), "p4": (4, 4, 4, 4)}
    for key, blocks in smash.items():
        w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
        sp = wk.smash_product(w)
        assert isinstance(sp.algebra, wk.WedderburnAlgebra)
        assert wk.validate_action(sp.action).ok
        assert wk.block_decomposition(sp.algebra).sizes == blocks
        assert wk.is_regular(sp.action, sp).regular == (key in ("p3", "p4"))
        mat, bijective = wk.galois_map(sp.action)
        assert mat.shape == (sp.dim, sp.dim) and bijective
        path = tmp_path / f"{key}.wha.json"
        wk.save(w, path)
        assert main(["crossprod", "smash", str(path), "--format", "json"]) == EX_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["block_sizes"] == sorted(blocks) and doc["product_route"] == "wedderburn"
    assert main(["crossprod", "translation", "8", "--format", "json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["block_sizes"] == [8] and doc["product_route"] == "wedderburn"


# ---------------------------------------------------------------------------
# the Wedderburn form: R(N)' = End_N(M), certified by commutation and a dimension count


@pytest.mark.parametrize("seed", [None, 13], ids=["canonical", "complex"])
@pytest.mark.parametrize("key", ["p2", "s3", "p3", "fp3", "m23", "p4"])
def test_the_wedderburn_primitives_are_the_dense_ones(examples, rotated, key, seed):
    """Every primitive of the Wedderburn form against the same algebra held as its structure constants."""
    w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
    big = wk.crossed_product(wk.dual_regular_action(w if seed is None else rotated(w, seed))).algebra
    assert isinstance(big, wk.WedderburnAlgebra)
    c = big.c
    dense = wk.FinDimAlgebra(c, big.unit, involution=big.involution)
    scale = float(np.linalg.norm(c))
    r = np.random.default_rng(1)
    g = r.normal(size=(big.dim, 3)) + 1j * r.normal(size=(big.dim, 3))
    assert np.linalg.norm(big._left_stack(g) - dense._left_stack(g)) <= 1e-12 * scale * np.linalg.norm(g)
    assert np.linalg.norm(big._right_stack(g) - dense._right_stack(g)) <= 1e-12 * scale * np.linalg.norm(g)
    assert np.linalg.norm(big.mul(g[:, 0], g[:, 1]) - dense.mul(g[:, 0], g[:, 1])) <= 1e-12 * scale * np.linalg.norm(g) ** 2
    assert abs(big.regular_trace(g[:, 2]) - dense.regular_trace(g[:, 2])) <= 1e-12 * scale * np.linalg.norm(g) * big.dim
    assert np.linalg.norm(big.trace_form() - dense.trace_form()) <= 1e-12 * np.linalg.norm(dense.trace_form())
    assert abs(big.norm - dense.norm) <= 1e-12 * dense.norm
    f = r.normal(size=(big.dim, big.dim))  # a linear map that is no homomorphism
    want = dense.homomorphism_defect(f, into=dense)
    assert abs(big.homomorphism_defect(f, into=big) - want) <= 1e-12 * want
    assert abs(big.homomorphism_defect(big.ops) - dense.homomorphism_defect(big.ops)) <= 1e-12 * scale
    assert big.center().equals(dense.center())
    got, want = big.block_decomposition(), dense.block_decomposition()
    assert got.sizes == want.sizes
    for b, a in zip(got, want):
        assert np.linalg.norm(b.central_idempotent - a.central_idempotent) <= 1e-9 * np.linalg.norm(a.central_idempotent)
        assert abs(big.block_trace(b, g[:, 0]) - dense.block_trace(a, g[:, 0])) <= 1e-10 * np.linalg.norm(g[:, 0]) * big.dim
    wedderburn = big.wedderburn_map()
    assert [phi.shape[1] for phi in wedderburn.phis] == list(got.sizes)
    for phi in wedderburn.phis:  # each block is a representation of the algebra
        assert dense.homomorphism_defect(phi) <= 1e-10 * scale * float(np.linalg.norm(phi)) ** 2


def test_the_invariants_are_computed_once_per_action_and_tolerance(examples, monkeypatch):
    """The Wedderburn form, the Galois map, regularity clause (ii) and the basic construction share N."""
    calls = []
    original = wk.actions._invariants

    def counting(action, tol):
        calls.append(tol)
        return original(action, tol)

    monkeypatch.setattr(wk.actions, "_invariants", counting)
    for key in ("p2", "s3", "p3", "m23"):
        calls.clear()
        sp = wk.smash_product(examples[key])
        assert sp.route == "wedderburn"
        wk.is_regular(sp.action, sp)
        wk.galois_map(sp.action)
        wk.verify_basic_construction(sp.action, sp)
        assert calls == [wk.DEFAULT_TOL], key
        other = wk.Tolerance(1e-8, 1e-8)
        wk.galois_map(sp.action, other)
        wk.invariants(sp.action, other)
        assert calls == [wk.DEFAULT_TOL, other], key


def test_algebras_weak_hopf_algebras_and_actions_keep_one_derived_cache_per_tolerance():
    """An algebra of either storage, a weak Hopf algebra and an action keep what they
    derive in ``derived(tol)``, one cache per tolerance, which every accessor reads."""
    w = wk.pair_groupoid_wha(2)
    sp = wk.smash_product(w)
    assert isinstance(sp.algebra, wk.WedderburnAlgebra) and type(w.algebra) is wk.FinDimAlgebra
    loose = wk.Tolerance(1e-8, 1e-8)
    for owner in (w.algebra, sp.algebra, w, sp.action):
        default, other = owner.derived(), owner.derived(loose)
        assert default is owner.derived(wk.DEFAULT_TOL) and other is owner.derived(loose)
        assert other is not default and (default.tol, other.tol) == (wk.DEFAULT_TOL, loose)
        assert default.owner is owner and other.owner is owner
    for alg in (w.algebra, sp.algebra):
        for tol in (wk.DEFAULT_TOL, loose):
            derived = alg.derived(tol)
            assert alg.center(tol) is derived.center
            assert alg.is_semisimple(tol) is derived.semisimple is True
            assert wk.block_decomposition(alg, tol) is alg.block_decomposition(tol) is derived.blocks
            assert alg.wedderburn_map(tol) is derived.wedderburn
        assert alg.center() is not alg.center(loose)
        assert alg.block_decomposition() is not alg.block_decomposition(loose)
    for tol in (wk.DEFAULT_TOL, loose):
        assert wk.validate_action(sp.action, tol) is sp.action.derived(tol).report
        assert sp.action.validate(tol) is sp.action.derived(tol).report
        assert wk.invariants(sp.action, tol) is sp.action.derived(tol).invariants
    assert wk.validate_action(sp.action) is not wk.validate_action(sp.action, loose)
    assert w.derived().counital_subalgebras is not w.derived(loose).counital_subalgebras


@pytest.mark.parametrize("seed", [None, 17], ids=["canonical", "complex"])
@pytest.mark.parametrize("key", ["p2", "s3", "p3", "fp3", "m23", "p4", "z8"])
def test_the_relative_commutant_is_the_pullback_of_n_prime_in_m(examples, rotated, key, seed):
    """M' n (M x| A) read off R(N' n M) is the commutant of embed_m's columns in the algebra."""
    if key == "z8":
        w = wk.cyclic_wha(8)
        act = wk.arrow_action(w if seed is None else rotated(w, seed))
        cp = wk.crossed_product(act)
    else:
        w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
        cp = wk.smash_product(w if seed is None else rotated(w, seed))
    assert cp.route == "wedderburn"
    got, _ = wk.actions._relative_commutant_and_a_r(cp, wk.DEFAULT_TOL)
    want = cp.algebra.commutant_in(cp.embed_m.T)
    assert got.dim == want.dim and got.equals(want)


def _bend_the_operators(monkeypatch, bend):
    """Let the Wedderburn route see ``bend(ops)`` in place of the operators Pi_g, and record what it returned.

    The bend is lifted to pi[(k, l), (i, a)] = (L(e_i) alpha_a)[k, l] = K[a, i, l, k] on the carrier
    alone, so pi still kills the relation span; the dense route, if it decides, sees K unbent."""
    seen = []
    original = wk.actions._wedderburn_product

    def bent(action, k_fac, carrier, *args):
        da, dm = k_fac.shape[:2]
        pi = k_fac.transpose(3, 2, 1, 0).reshape(dm * dm, dm * da)
        ops = (pi @ carrier).T.reshape(-1, dm, dm)
        pi = pi + (bend(ops) - ops).reshape(len(ops), -1).T @ carrier.conj().T
        seen.append(original(action, pi.reshape(dm, dm, dm, da).transpose(3, 2, 1, 0), carrier, *args))
        return seen[-1]

    monkeypatch.setattr(wk.actions, "_wedderburn_product", bent)
    return seen


def _off_the_commutant(ops):
    """Each Pi_g plus 1e-6 |Pi_g| times a seeded complex Gaussian matrix, which leaves R(N)'."""
    r = np.random.default_rng(6)
    noise = r.normal(size=ops.shape) + 1j * r.normal(size=ops.shape)
    scale = np.linalg.norm(ops, axis=(1, 2)) / np.linalg.norm(noise, axis=(1, 2))
    return ops + 1e-6 * scale[:, None, None] * noise


def _one_dependent_operator(ops):
    """Pi_{d-1} replaced by Pi_0 + Pi_1: every Pi_g still commutes with R(N), but rank Pi = d - 1 < sum m_l^2."""
    out = ops.copy()
    out[-1] = ops[0] + ops[1]
    return out


@pytest.mark.parametrize("bend", [_off_the_commutant, _one_dependent_operator], ids=["commutation", "count"])
@pytest.mark.parametrize("key", ["p3", "m23"])
def test_a_form_that_misses_a_check_falls_back_to_the_dense_route(examples, monkeypatch, key, bend):
    """Pi_g bent off R(N)' by 1e-6 miss the commutation bound, before the form is built, and a
    dependent Pi_g misses the count rank Pi = sum m_l^2; either way the Wedderburn form is refused and
    the dense route decides, with the rows it gives when the Wedderburn form is not tried."""
    act = wk.dual_regular_action(examples[key])
    ops = wk.crossed_product(act).algebra.ops  # the Pi_g of the Wedderburn form, unbent
    with monkeypatch.context() as mp:
        _refuse_the_wedderburn_form(mp)
        want = wk.crossed_product(act)
    built = []
    original = wk.WedderburnAlgebra.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(wk.WedderburnAlgebra, "__init__", spy)
    seen = _bend_the_operators(monkeypatch, bend)
    got = wk.crossed_product(act)
    assert seen == [None] and (built == [] if bend is _off_the_commutant else len(built) == 1)
    assert got.route == "dense" and want.route == "dense"
    assert [(r.name, r.passed, r.residual) for r in got.report.checks] == [
        (r.name, r.passed, r.residual) for r in want.report.checks
    ]
    # the commutation residual over its bound: far below it on Pi, far above it on Pi bent off R(N)'
    right_n = act.module._right_stack(wk.invariants(act).basis)

    def commutation(ops):
        resid = np.sqrt(sum(np.linalg.norm(ops @ r - r @ ops) ** 2 for r in right_n))
        return resid / wk.DEFAULT_TOL.bound(2 * np.linalg.norm(ops) * np.linalg.norm(right_n))

    assert commutation(ops) < 1e-2
    if bend is _off_the_commutant:
        assert commutation(bend(ops)) > 1e2


def test_without_a_haar_integral_the_crossed_product_takes_the_dense_route(examples):
    """Sweedler's H4 has no Haar integral, so no invariants N: its smash product takes the dense route."""
    sp = wk.smash_product(examples["h4"])
    assert sp.route == "dense" and type(sp.algebra) is wk.FinDimAlgebra
    with pytest.raises(wk.NotSemisimple):
        wk.invariants(sp.action)
    assert wk.block_decomposition(sp.algebra).sizes == (4,)


@pytest.mark.parametrize("n", [2, 3])
def test_a_non_galois_action_builds_no_operator_algebra(scalars, monkeypatch, n):
    """C[Z_n] acting trivially on C is not Galois: the count rank Pi = 1 < n = d refuses the
    Wedderburn form before it is built, and the dense algebra is the one algebra that the crossed
    product attaches.  The invariants N = C are induced beforehand; they are kept per action."""
    act = wk.trivial_action(wk.cyclic_wha(n), scalars)
    act.derived(wk.DEFAULT_TOL).induced
    attached = []
    original = wk.FinDimAlgebra._attach

    def spy(self, *args, **kwargs):
        attached.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(wk.FinDimAlgebra, "_attach", spy)
    cp = wk.crossed_product(act)
    assert cp.route == "dense" and type(cp.algebra) is wk.FinDimAlgebra and cp.dim == n
    assert len(attached) == 1 and attached[0] is cp.algebra


def test_the_ising_smash_product_takes_the_wedderburn_form(ising):
    """d = 396 and blocks [10, 10, 14] from R(N)' in Wedderburn form, with a bijective Galois map."""
    sp = wk.smash_product(ising)
    assert sp.route == "wedderburn" and sp.dim == 396
    assert wk.block_decomposition(sp.algebra).sizes == (10, 10, 14)
    assert sp.report.ok
    mat, bijective = wk.galois_map(sp.action)
    assert mat.shape == (396, 396) and bijective


def test_the_trivial_action_takes_the_dense_route(examples, scalars, monkeypatch):
    # z3 acting trivially on C is not Galois: pi(C (x) A) = C has rank 1 < 3
    calls = _spy_on_the_dense_route(monkeypatch)
    cp = wk.crossed_product(wk.trivial_action(examples["z3"], scalars))
    assert len(calls) == 1
    assert cp.dim == 3
    assert np.array_equal(cp.algebra.c, calls[0])


def test_a_broken_action_is_decided_by_the_dense_route(examples, monkeypatch):
    # the input of test_ill_defined_product_is_rejected_where_the_relation_span_is_nonzero:
    # alpha is no longer multiplicative, so the concrete route refuses it
    act = wk.dual_regular_action(examples["p2"])
    alpha = act.alpha.copy()
    alpha[1, 0, 2] += 1e-2
    calls = _spy_on_the_dense_route(monkeypatch)
    with pytest.raises(wk.IllDefinedProduct, match="does not descend") as err:
        wk.crossed_product(wk.WhaAction(act.wha, act.module, alpha, name="broken"))
    assert len(calls) == 1
    assert calls[0] is err.value


def test_a_non_multiplicative_alpha_with_a_closed_image_is_refused(examples, monkeypatch):
    # alpha' = alpha o theta for a linear bijection theta of C[Z_3] that is
    # not multiplicative: pi' = pi o (id (x) theta) has the same closed,
    # faithful image, so only the multiplicativity and covariance rows
    # refuse it.  The dense route forms the abstract product, which is not
    # associative.
    act = wk.arrow_action(examples["z3"])
    alpha = act.alpha.copy()
    alpha[2] += 0.1 * alpha[1]
    module = wk.FinDimAlgebra(act.module.c, act.module.unit, name="C(Z3)")
    calls = _spy_on_the_dense_route(monkeypatch)
    with pytest.raises(wk.ValidationError, match="associativity"):
        wk.crossed_product(wk.WhaAction(act.wha, module, alpha, name="broken"))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the quotient M (x)_{A^L} A from the separability idempotent e = (S (x) id) Delta(1)


@pytest.mark.parametrize("key", ["z2", "z3", "z4", "z5", "s3", "p2", "p3", "p4", "fp2", "h4", "m23"])
def test_the_separability_idempotent_is_the_casimir_of_the_trace_form(examples, rotated, key):
    """(S (x) id) Delta(1) lies in A^L (x) A^L, and its coordinates there are T^-1 for
    the regular trace form T of the induced A^L, for A and for the acting algebra A^."""
    for w in (examples[key], rotated(examples[key], 7)):
        for v in (w, w.dual):
            al_alg, q = wk.induced_algebra(v.algebra, v.derived().counital_subalgebras.left)
            e_full = v.antipode @ v.delta1
            coef = q.conj().T @ e_full @ np.conj(q)
            assert np.linalg.norm(e_full - q @ coef @ q.T) <= 1e-12 * np.linalg.norm(e_full), v.name
            want = np.linalg.inv(al_alg.trace_form())
            assert np.linalg.norm(coef - want) <= 1e-12 * np.linalg.norm(want), v.name


def _spy_on_the_relation_span(monkeypatch):
    """Record every call of the relation-span SVD in ``actions``."""
    calls = []
    original = wk.actions.span_and_complement

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(wk.actions, "span_and_complement", spy)
    return calls


def _relation_complement(rho, lam):
    """The orthogonal complement of the span of ``rho_b x (x) y - x (x) lam_b y``, by the SVD of the span."""
    rel = wk.linalg.kron_sum(rho, lam)
    return wk.linalg.span_and_complement(rel.transpose(1, 0, 2).reshape(rel.shape[1], -1))[1]


@pytest.mark.parametrize("make", [wk.dual_regular_action, wk.arrow_action], ids=["dualreg", "arrow"])
@pytest.mark.parametrize("key", ["z3", "s3", "p2", "p3", "fp2", "fp3", "m23", "p4"])
def test_the_quotients_come_from_the_separability_idempotent(examples, monkeypatch, key, make):
    """tr E is the rank of the relation-span route, the carriers span one subspace, and
    neither the crossed product nor the Galois map takes the SVD of a relation span."""
    act = make(wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key])
    w, m_alg = act.wha, act.module
    a_alg = w.algebra
    lb = w.derived().counital_subalgebras.left.basis
    u = np.einsum("pjr,j->pr", act.alpha, m_alg.unit)  # alpha_{e_p}(1_M)
    # E(m (x) a) = sum_pq e[p, q] m u_p (x) e_q a, with e = (S (x) id) Delta(1)
    e = w.antipode @ w.delta1
    big_e = np.einsum("pq,pr,irk,qbc->kcib", e, u, m_alg.c, a_alg.c, optimize=True)
    big_e = big_e.reshape(m_alg.dim * w.dim, -1)
    ref = _relation_complement(m_alg._right_stack(u.T @ lb), a_alg._left_stack(lb))
    calls = _spy_on_the_relation_span(monkeypatch)
    cp = wk.crossed_product(act)
    assert abs(np.trace(big_e) - ref.shape[1]) <= 1e-9
    assert cp.dim == ref.shape[1]
    assert np.linalg.norm(cp.carrier @ cp.carrier.conj().T - ref @ ref.conj().T) <= 1e-12
    mat, _ = wk.galois_map(act)
    nb = wk.invariants(act).basis
    assert mat.shape[1] == _relation_complement(m_alg._right_stack(nb), m_alg._left_stack(nb)).shape[1]
    assert calls == []


@pytest.mark.parametrize("make", [wk.dual_regular_action, wk.arrow_action], ids=["dualreg", "arrow"])
@pytest.mark.parametrize("key", ["p2", "p3", "fp2", "m23"])
def test_the_carrier_is_elementary_tensors_on_either_route(examples, monkeypatch, key, make):
    """In canonical bases the carrier's columns are standard basis vectors e_i (x) e_a,
    whether the idempotent or the relation span computed the quotient."""
    act = make(examples[key])
    cp = wk.crossed_product(act)
    assert np.array_equal(np.sum(np.abs(cp.carrier) > 1e-12, axis=0), np.ones(cp.dim))
    assert np.allclose(cp.carrier.sum(axis=0), 1.0, rtol=0, atol=1e-13)
    monkeypatch.setattr(wk.actions, "_separable_quotient", lambda *args: None)
    assert np.linalg.norm(wk.crossed_product(act).carrier - cp.carrier) <= 1e-12


def test_a_broken_action_takes_the_relation_span(examples, monkeypatch):
    # the input of test_ill_defined_product_is_rejected_where_the_relation_span_is_nonzero:
    # u(l) = alpha_l(1_M) is not multiplicative on A^L, so the idempotent does not decide
    act = wk.dual_regular_action(examples["p2"])
    alpha = act.alpha.copy()
    alpha[1, 0, 2] += 1e-2
    calls = _spy_on_the_relation_span(monkeypatch)
    with pytest.raises(wk.IllDefinedProduct, match="does not descend"):
        wk.crossed_product(wk.WhaAction(act.wha, act.module, alpha, name="broken"))
    assert len(calls) == 1


def _no_sketch(monkeypatch):
    """Make every sketch in ``actions`` miss, so that the full SVD or ``orth`` decides next."""
    monkeypatch.setattr(wk.actions, "idempotent_range", lambda *args, **kwargs: None)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_an_svd_that_does_not_converge_falls_back_to_the_relation_span(examples, monkeypatch):
    # LAPACK's SVD of E did not converge on some rotated m23 inputs; after the sketch, the relation span then decides
    _no_sketch(monkeypatch)
    monkeypatch.setattr(wk.actions, "coimage_and_kernel", _no_convergence)
    calls = _spy_on_the_relation_span(monkeypatch)
    sp = wk.smash_product(examples["m23"])
    assert sp.dim == 89
    assert wk.block_decomposition(sp.algebra).sizes == (5, 8)
    mat, bijective = wk.galois_map(sp.action)
    assert mat.shape == (89, 89) and bijective
    assert len(calls) == 2  # the crossed product's quotient and the Galois map's domain


def test_an_svd_that_does_not_converge_on_either_route_propagates(examples, monkeypatch):
    _no_sketch(monkeypatch)
    monkeypatch.setattr(wk.actions, "coimage_and_kernel", _no_convergence)
    monkeypatch.setattr(wk.actions, "span_and_complement", _no_convergence)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        wk.smash_product(examples["m23"])


def test_an_svd_that_does_not_converge_is_not_reached_when_the_sketch_decides(examples, monkeypatch):
    monkeypatch.setattr(wk.actions, "coimage_and_kernel", _no_convergence)
    calls = _spy_on_the_relation_span(monkeypatch)
    sp = wk.smash_product(examples["m23"])
    mat, bijective = wk.galois_map(sp.action)
    assert sp.dim == 89 and mat.shape == (89, 89) and bijective
    assert calls == []


def test_the_idempotent_refuses_a_wrong_unit_or_a_surviving_relation(examples, monkeypatch):
    act = wk.dual_regular_action(examples["p2"])
    w, m_alg = act.wha, act.module
    lb = w.derived().counital_subalgebras.left.basis
    u_l = np.einsum("pjr,j->rp", act.alpha, m_alg.unit) @ lb
    rho, lam = m_alg._right_stack(u_l), w.algebra._left_stack(lb)
    coef = lb.conj().T @ (w.antipode @ w.delta1) @ np.conj(lb)
    tol = wk.DEFAULT_TOL
    ref = _relation_complement(rho, lam)
    bent = rho.copy()
    bent[0, 0, 1] += 1e-3
    for sketch in (True, False):  # the sketch decides, then the full SVD of E
        with monkeypatch.context() as patch:
            if not sketch:
                _no_sketch(patch)
            carrier = wk.actions._separable_quotient(rho, lam, coef, 1e-9, tol)
            assert carrier.shape == (16, 8)
            assert np.linalg.norm(carrier @ carrier.conj().T - ref @ ref.conj().T) <= 1e-12
            # sum_ij e_ij lam_i lam_j = 1/2
            assert wk.actions._separable_quotient(rho, lam, coef / 2, 1e-9, tol) is None
            # a right action that is not u: E no longer vanishes on the relations
            assert wk.actions._separable_quotient(bent, lam, coef, 1e-9, tol) is None


def _spy_on_the_sketch(monkeypatch):
    """Record ``(p, result)`` of every ``idempotent_range`` call in ``actions``."""
    calls = []
    original = wk.actions.idempotent_range

    def spy(p, tol=None):
        out = original(p, tol)
        calls.append((np.array(p), out))
        return out

    monkeypatch.setattr(wk.actions, "idempotent_range", spy)
    return calls


@pytest.mark.parametrize("key", ["p2", "s3", "p3", "fp3", "m23", "p4", "m23 complex"])
def test_the_sketch_spans_what_the_full_svd_spans(examples, rotated, monkeypatch, key):
    """Every idempotent the smash product and its Galois map hand to the sketch (E^H of both
    quotients, the corner rho(1)) is decided by it, and its projector is the full SVD's."""
    w = {"fp3": lambda: wk.function_wha(wk.pair_groupoid(3)), "m23 complex": lambda: rotated(examples["m23"], 7)}
    calls = _spy_on_the_sketch(monkeypatch)
    sp = wk.smash_product(w[key]() if key in w else examples[key])
    _, bijective = wk.galois_map(sp.action)
    assert bijective and len(calls) == 3
    for p, q in calls:
        assert q is not None
        u = wk.linalg.orth(p)
        assert np.linalg.norm(q @ q.conj().T - u @ u.conj().T) <= 1e-12


def test_a_sketch_that_misses_the_range_leaves_the_decision_to_the_svd(examples, monkeypatch):
    class Zero:
        """A sketch Omega = 0, which misses the range; on p3 so does its second product p Q_0."""

        def standard_normal(self, shape):
            return np.zeros(shape)

    act = wk.dual_regular_action(examples["p3"])
    ref = wk.crossed_product(act)
    ref_mat, _ = wk.galois_map(act)
    monkeypatch.setattr(wk.linalg, "rng", lambda *args: Zero())
    svds = []
    original = wk.actions.coimage_and_kernel
    monkeypatch.setattr(wk.actions, "coimage_and_kernel", lambda a, tol=None: svds.append(a.shape) or original(a, tol))
    sketches = _spy_on_the_sketch(monkeypatch)
    act = wk.dual_regular_action(examples["p3"])
    cp = wk.crossed_product(act)
    mat, bijective = wk.galois_map(act)
    assert [q for _, q in sketches] == [None, None, None]
    assert svds == [(81, 81), (81, 81)]  # the crossed product's E and the Galois domain's; the corner takes orth
    assert np.linalg.norm(cp.carrier - ref.carrier) <= 1e-12
    assert np.allclose(cp.algebra.c, ref.algebra.c, rtol=0, atol=1e-12)
    assert bijective and mat.shape == ref_mat.shape
    assert np.allclose(np.linalg.svd(mat, compute_uv=False), np.linalg.svd(ref_mat, compute_uv=False), rtol=0, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: wk.crossed_product(wk.arrow_action(wk.cyclic_wha(8))),
    lambda: wk.smash_product(wk.symmetric_wha(3)),
], ids=["z8 translation", "s3 smash"])
def test_hopf_quotients_take_the_identity_without_a_sketch(monkeypatch, build):
    """For a Hopf algebra A^L = C1, so E = 1 on M (x) A; N = C1 for these actions, so E = 1 on
    M (x) M; and rho(1) = 1 (x) 1.  Each is checked against 1 and taken whole: no sketch is drawn,
    and neither an SVD nor a relation span is formed."""
    def no_draw(*args):
        raise AssertionError("a sketch was drawn")

    monkeypatch.setattr(wk.linalg, "rng", no_draw)
    monkeypatch.setattr(wk.actions, "coimage_and_kernel", no_draw)
    calls = _spy_on_the_relation_span(monkeypatch)
    sketches = _spy_on_the_sketch(monkeypatch)
    cp = build()
    _, bijective = wk.galois_map(cp.action)
    assert bijective and calls == [] and len(sketches) == 3
    for p, q in sketches:
        assert np.array_equal(q, np.eye(p.shape[0]))
    assert np.array_equal(cp.carrier, np.eye(cp.dim))


def test_the_p4_crossed_product_peaks_below_eight_mib():
    # the (4, 256, 256) relation stack, its reshaped copy and their QR peaked at 17.4 MiB, and
    # the product with its (64, 64, 64) structure constants stored at 10.0 MiB; the SVD of E set
    # the peak at 7.4 MiB, and the sketch of E^H that replaced it leaves the call at 6.5 MiB
    act = wk.dual_regular_action(wk.pair_groupoid_wha(4))
    tracemalloc.start()
    try:
        cp = wk.crossed_product(act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cp.dim == 64
    assert peak <= 8 * 2**20, peak / 2**20


def test_the_m23_smash_product_peaks_below_eight_mib():
    # the (89, 89, 89) structure constants alone were 10.8 MiB of a 16.5 MiB peak
    w = wk.m2_m3()
    tracemalloc.start()
    try:
        sp = wk.smash_product(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.dim == 89
    assert peak <= 8 * 2**20, peak / 2**20


def test_the_p4_galois_map_peaks_below_eight_mib():
    # the domain's (4, 256, 256) relation stack, its reshaped copy and their QR peaked at 17.2 MiB
    act = wk.dual_regular_action(wk.pair_groupoid_wha(4))
    tracemalloc.start()
    try:
        mat, bijective = wk.galois_map(act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (64, 64) and bijective
    assert peak <= 8 * 2**20, peak / 2**20


def test_basic_construction_thresholds_follow_the_tolerance(actions):
    act = actions["dualreg p2"]
    tight = wk.DEFAULT_TOL.scaled(1e-3)
    default = {r.name: r.threshold for r in wk.verify_basic_construction(act).checks}
    rep = wk.verify_basic_construction(act, tol=tight)
    assert rep.ok, [f.name for f in rep.failures]
    got = {r.name: r.threshold for r in rep.checks}
    assert got.keys() == default.keys()
    for name, thr in default.items():
        if name == "M2-generated-by-M-and-e":
            # a dimension count, not a residual: its threshold is half a dimension
            assert thr == got[name] == 0.5
        else:
            assert thr == 1e-8
            assert got[name] == pytest.approx(thr / 1000, rel=1e-12)


@pytest.mark.parametrize("name", REGULAR)
def test_regular_actions(actions, name):
    act = actions[name]
    reg = wk.is_regular(act)
    assert reg.regular
    assert reg.failing_clauses() == []
    rep = wk.verify_basic_construction(act)
    assert rep.ok, [f.name for f in rep.failures]
    _, bij = wk.galois_map(act)
    assert bij


@pytest.mark.parametrize("name", NON_REGULAR)
def test_translation_type_actions_are_not_regular(actions, name):
    # M is maximal abelian in M x| A, so the relative commutant is M itself,
    # strictly larger than A^R: clause (ii) fails while (i) and (iii) hold
    act = actions[name]
    reg = wk.is_regular(act)
    assert not reg.regular
    assert reg.m_r_isomorphic and reg.finite_index and not reg.relative_commutant
    clauses = reg.failing_clauses()
    assert len(clauses) == 1 and "(ii)" in clauses[0]
    # the Galois map is still bijective for these translation-type actions
    _, bij = wk.galois_map(act)
    assert bij


@pytest.mark.parametrize(
    "key, make", [("fp2", wk.dual_regular_action), ("p2", wk.arrow_action)], ids=["dualreg fp2", "arrow p2"]
)
def test_galois_map_is_bijective_onto_the_corner(examples, key, make):
    act = make(examples[key])
    mat, bij = wk.galois_map(act)
    assert mat.shape == (8, 8)
    assert bij


def test_galois_is_not_regularity(examples):
    # the dual regular action of S_3 is Galois but not regular: the relative
    # commutant of M in M x| A is larger than A^R = C
    act = wk.dual_regular_action(examples["s3"])
    reg = wk.is_regular(act)
    assert not reg.regular
    assert reg.failing_clauses() == ["(ii) relative commutant M' in M x| A differs from A^R"]
    mat, bij = wk.galois_map(act)
    assert mat.shape == (36, 36)
    assert bij


def test_galois_map_of_the_ising_dual_regular_action(ising):
    # its crossed product is left out: the product tensor alone needs ~8.5 GB
    mat, bij = wk.galois_map(wk.dual_regular_action(ising))
    assert mat.shape == (396, 396)
    assert bij


def test_galois_map_rejects_an_image_outside_the_corner(examples):
    # alpha'_a = alpha_a + eps(a) theta with theta(m) = 1e-3 E(m x0), E = alpha_h
    # and E(x0) = 0: theta is left N-linear and vanishes on N, so the
    # invariants, the descent and rho(1) are unchanged, but the images
    # m theta(m') (x) 1^ lie outside (M (x) A^) rho(1)
    act = wk.dual_regular_action(examples["p2"])
    m_alg = act.module
    e = act.amat(wk.haar_integral(act.wha))
    x = np.random.default_rng(1).normal(size=m_alg.dim)
    x0 = x - e @ x
    theta = 1e-3 * e @ np.einsum("irk,r->ki", m_alg.c, x0)
    alpha = act.alpha + np.einsum("t,kj->tjk", act.wha.eps, theta)
    with pytest.raises(wk.CrossCheckMismatch, match="leaves the corner") as err:
        wk.galois_map(wk.WhaAction(act.wha, m_alg, alpha, name="broken"))
    resid = float(re.search(r"\(([0-9.]+e[+-][0-9]+)\)", str(err.value)).group(1))
    assert resid == pytest.approx(1.25e-3, rel=0.01)


def test_basic_construction_items_fail_exactly_where_expected(actions):
    rep = wk.verify_basic_construction(actions["arrow z3"])
    assert not rep.ok
    failing = {f.name for f in rep.failures}
    assert failing == {
        "item2: N' in M = A^L",
        "item3: M' in M2 = A^R",
        "item4: N' in M2 = A",
        "item5: Center M = A^L n A^R",
    }


def test_trivial_action(examples, scalars):
    act = wk.trivial_action(examples["z2"], scalars)
    assert wk.validate_action(act).ok
    assert wk.invariants(act).dim == 1
    cp = wk.crossed_product(act)
    assert cp.algebra.dim == 2
    mat, bij = wk.galois_map(act)
    assert mat.shape == (2, 1)
    assert not bij
    reg = wk.is_regular(act)
    assert not reg.regular
    assert any("(ii)" in c for c in reg.failing_clauses())


@pytest.mark.parametrize("key", ["p3", "fp3", "m23", "p4"])
def test_a_trivial_action_through_a_counit_that_is_not_multiplicative_has_an_empty_quotient(examples, scalars, key):
    w = wk.function_wha(wk.pair_groupoid(3)) if key == "fp3" else examples[key]
    act = wk.trivial_action(w, scalars)
    assert not wk.validate_action(act).ok
    with pytest.raises(wk.EmptyQuotient, match="0-dimensional"):
        wk.crossed_product(act)


def test_m_r_subalgebra(actions):
    for name in ("arrow z3", "dualreg p2"):
        act = actions[name]
        span, injective = wk.m_r_subalgebra(act)
        assert injective
        assert span.dim == act.wha.derived().counital_subalgebras.left.dim


# --------------------------------------------------------------------------
# smash products


SMASH = {
    "z2": (4, (2,)),
    "z3": (9, (3,)),
    "p2": (8, (2, 2)),
    "fp2": (8, (2, 2)),
    "s3": (36, (6,)),
    "h4": (16, (4,)),
}


@pytest.mark.parametrize("key", sorted(SMASH))
def test_smash_product_block_structure(examples, key):
    w = examples[key]
    dim, blocks = SMASH[key]
    sp = wk.smash_product(w)
    assert sp.algebra.dim == dim
    assert wk.block_decomposition(sp.algebra).sizes == blocks
    # block count matches the block count of A^L
    al_alg, _ = wk.induced_algebra(w.algebra, w.derived().counital_subalgebras.left)
    assert len(blocks) == len(wk.block_decomposition(al_alg).blocks)


def test_smash_of_a_group_algebra_is_a_full_matrix_algebra(examples):
    # C[Z_n] # C(Z_n) = M_n: one block of size n, center of dimension 1
    sp = wk.smash_product(examples["z3"])
    assert wk.block_decomposition(sp.algebra).sizes == (3,)
    assert sp.algebra.center().dim == 1


@pytest.mark.parametrize("key", ["p2", "m23"])
def test_smash_product_forms_one_trace_form_of_the_smash_product(examples, monkeypatch, key):
    forms = []
    for cls in (wk.FinDimAlgebra, wk.WedderburnAlgebra):

        def spy(self, original=cls.trace_form):
            forms.append(self)
            return original(self)

        monkeypatch.setattr(cls, "trace_form", spy)
    sp = wk.smash_product(examples[key])
    assert isinstance(sp.algebra, wk.WedderburnAlgebra)
    assert sum(a is sp.algebra for a in forms) == 1


def test_a_smash_product_that_is_not_semisimple_is_a_cross_check_mismatch(examples, monkeypatch):
    original = wk.FinDimAlgebra.is_semisimple

    def degenerate_on_the_smash(self, tol=None):
        return False if "x|" in self.name else original(self, tol)

    monkeypatch.setattr(wk.FinDimAlgebra, "is_semisimple", degenerate_on_the_smash)
    with pytest.raises(wk.CrossCheckMismatch, match="^smash product is not semisimple$"):
        wk.smash_product(examples["p2"])


def test_a_miscounted_inclusion_in_the_smash_product_is_a_cross_check_mismatch(examples, monkeypatch):
    original = wk.actions._inclusion_matrix

    def off_by_one_in_the_smash(algebra, blocks_b, embed, tol):
        lam = original(algebra, blocks_b, embed, tol)
        if "x|" in algebra.name:
            lam[0, 0] += 1
        return lam

    monkeypatch.setattr(wk.actions, "_inclusion_matrix", off_by_one_in_the_smash)
    with pytest.raises(wk.CrossCheckMismatch, match="are not the rows of"):
        wk.smash_product(examples["p2"])


@pytest.mark.parametrize("key", ["p3", "fp2", "m23"])
def test_smash_product_reads_its_inclusion_off_blocks_in_hand(examples, rotated, monkeypatch, key):
    """A^L is induced once (after the invariants N, which the Wedderburn form induces once), and
    Lambda(A c A # A^) from A's blocks through embed_m is Lambda of the induced copy of A, up to
    the order of its rows."""
    induced = []
    original = wk.actions.induced_algebra

    def counting(*args, **kwargs):
        induced.append(args[1].dim)
        return original(*args, **kwargs)

    monkeypatch.setattr(wk.actions, "induced_algebra", counting)
    for w in (examples[key], rotated(examples[key], 31)):
        induced.clear()
        sp = wk.smash_product(w)
        assert induced == [wk.invariants(sp.action).dim, w.derived().counital_subalgebras.left.dim]
        blocks_a = w.algebra.block_decomposition()
        got = wk.actions._inclusion_matrix(sp.algebra, blocks_a, sp.embed_m, wk.DEFAULT_TOL)
        want, blocks_copy, _ = wk.inclusion_matrix(sp.algebra, Subspace(sp.embed_m, sp.dim))
        assert sorted(zip(blocks_a.sizes, got.tolist())) == sorted(zip(blocks_copy.sizes, want.tolist()))
