"""The batched conjugate equations against the per-sector route they replaced.

``reference_solution`` is that route, kept here as the reference: for one
sector it forms the twisted conjugate, the truncated products with
:func:`whakit.monoidal_product`, solves Hom(D_eps, .) with
:func:`whakit.intertwiner_space`, and takes the unitors and zigzags one sector
at a time.  The library solves every sector of a size at once
(``reptheory._solve_conjugate_equations``); both must agree to roundoff.
"""

import numpy as np
import pytest

import whakit as wk
from whakit import reptheory
from whakit.linalg import orth

TIGHT = 1e-12


# -- the per-sector reference route --------------------------------------------


def _ref_conjugate(w, d, g_half, g_half_inv):
    """``a -> conj(D(g^(1/2) S(a)* g^(-1/2)))``, its twisted map formed for this sector alone."""
    alg = w.algebra
    twisted = alg.left_mult(g_half) @ alg.right_mult(g_half_inv) @ w.star_antipode
    out = wk.Representation(w, np.conj(np.tensordot(twisted, d.matrices, axes=(0, 0))), name=f"conj({d.name})")
    out.validate().raise_if_failed()
    return out


def _ref_unitor(w, d_eps, d, side):
    """Canonical unitor of ``d`` in the flat space, normalized to an isometry and checked."""
    first, second = (d_eps, d) if side == "left" else (d, d_eps)
    f, s, k = first.dim, second.dim, d.dim
    omega, eye = d_eps.gns.vector(w.unit)[:, None], np.eye(k)
    proj = np.einsum("qac,qbd->abcd", np.tensordot(w.delta1, first.matrices, axes=(0, 0)), second.matrices)
    proj = proj.reshape(f * s, f * s)
    u = proj @ (np.kron(omega, eye) if side == "left" else np.kron(eye, omega))
    u = u / np.sqrt(float(np.vdot(u, u).real) / k)
    assert np.linalg.norm(u.conj().T @ u - eye) <= 1e-7
    assert np.linalg.norm(u @ u.conj().T - proj) <= 1e-7
    fu = np.tensordot(first.matrices, u.reshape(f, s, k), axes=(2, 0))  # [p, a, d, l]
    sfu = np.tensordot(fu, second.matrices, axes=(2, 2))  # [p, a, l, q, b]
    moved = np.tensordot(w.delta3, sfu, axes=([0, 1], [0, 3]))  # [j, a, l, b]
    moved = moved.transpose(0, 1, 3, 2).reshape(w.dim, f * s, k)
    assert np.linalg.norm(moved - u @ d.matrices) <= 1e-7 * max(1.0, float(np.linalg.norm(d.matrices)))
    return u


def _ref_scalar(m):
    lam = complex(np.trace(m) / m.shape[0])
    assert np.linalg.norm(m - lam * np.eye(m.shape[0])) <= 1e-6 * max(1.0, abs(lam))
    assert abs(lam) >= 1e-9
    return lam


def _ref_zigzag(w, d_eps, d, x, y):
    """Scalar of ``E_l^H (y^H (x) 1)(1 (x) x) E_r`` on ``d``."""
    e_l, e_r = _ref_unitor(w, d_eps, d, "left"), _ref_unitor(w, d_eps, d, "right")
    eye = np.eye(d.dim)
    return _ref_scalar(e_l.conj().T @ np.kron(y.conj().T, eye) @ np.kron(eye, x) @ e_r)


def _ref_supported_hom(w, d_eps, target, vac):
    """The unique vacuum mu with Hom(D_eps, target) supported on D_eps(z_mu), and its unit element."""
    homs = wk.intertwiner_space(w, d_eps, target)
    assert homs
    found = []
    for mu, proj in enumerate(vac.rep_projections):
        part = orth(np.column_stack([(x @ proj).ravel() for x in homs]))
        if part.shape[1]:
            found.append((mu, part))
    assert len(found) == 1 and found[0][1].shape[1] == 1
    mu, part = found[0]
    return mu, part[:, 0].reshape(homs[0].shape)


def _ref_constant(x, proj):
    xe = x.conj().T @ x
    c = float((np.trace(xe) / np.trace(proj).real).real)
    assert np.linalg.norm(xe - c * proj) <= 1e-7 * max(1.0, abs(c))
    return c


def reference_solution(w, q):
    """The standard solution of sector ``q``, one sector at a time; R and Rbar as flat maps."""
    derived = w.derived()
    cg, vac = derived.grouplike, derived.vacua
    d_q, d_eps = derived.irreps[q], vac.counit_rep
    qbar = _ref_conjugate(w, d_q, cg.g_half, cg.g_half_inv)
    m2 = wk.monoidal_product(w, d_q, qbar)
    m1 = wk.monoidal_product(w, qbar, d_q)
    mu, r = _ref_supported_hom(w, d_eps, m1, vac)
    nu, rbar = _ref_supported_hom(w, d_eps, m2, vac)
    c1 = _ref_constant(r, vac.rep_projections[mu])
    c2 = _ref_constant(rbar, vac.rep_projections[nu])
    rf, rbf = m1.isometry @ r, m2.isometry @ rbar
    lam1 = _ref_zigzag(w, d_eps, d_q, rf, rbf)
    lam2 = _ref_zigzag(w, d_eps, qbar, rbf, rf)
    product = lam1 * lam2
    assert abs(abs(lam1) - abs(lam2)) <= 1e-6 * max(abs(lam1), abs(lam2))
    assert product.real > 0 and abs(product.imag) <= 1e-6 * abs(product)
    phase = abs(lam1) / lam1
    rf, lam1, lam2 = rf * phase, lam1 * phase, lam2 / phase
    d_val = float(np.sqrt(c1 * c2 / abs(lam1 * lam2)))
    scale = np.sqrt(d_val / c1) * np.sqrt(d_val / c2)
    return dict(
        r=rf * np.sqrt(d_val / c1),
        rbar=rbf * np.sqrt(d_val / c2),
        d=d_val,
        vacuum_left=nu,
        vacuum_right=mu,
        zigzag_left=lam1 * scale,
        zigzag_right=lam2 * scale,
    )


# -- the batch against the reference -------------------------------------------


def _algebras(examples, ising, rotated):
    base = [examples[key] for key in ("z3", "s3", "fp2", "m23", "p4")] + [ising, rotated(examples["m23"], seed=5)]
    return base + [w.dual for w in base]


def test_the_batch_matches_the_per_sector_route(examples, ising, rotated):
    """d, both zigzags, both vacua, R^H R, Rbar^H Rbar and |<R_batch, R_ref>| agree within
    1e-12 on every sector, whatever the size classes: s3 has sizes 1, 1, 2, p4's dual
    sixteen sectors of size 1, Ising blocks of sizes 3, 3 and 4, and m23 a complex basis."""
    seen = set()
    for w in _algebras(examples, ising, rotated):
        table = wk.sector_dimensions(w)
        seen.add(tuple(s.size for s in table.sectors))
        for s in table.sectors:
            got, want = s.solution, reference_solution(w, s.index)
            where = (w.name, s.index)
            assert abs(got.d - want["d"]) <= TIGHT * max(1.0, want["d"]), where
            assert abs(got.zigzag_left - want["zigzag_left"]) <= TIGHT, where
            assert abs(got.zigzag_right - want["zigzag_right"]) <= TIGHT, where
            assert (got.vacuum_left, got.vacuum_right) == (want["vacuum_left"], want["vacuum_right"]), where
            for mine, ref in ((got.r, want["r"]), (got.rbar, want["rbar"])):
                size = float(np.linalg.norm(ref)) ** 2
                gram_gap = np.linalg.norm(mine.conj().T @ mine - ref.conj().T @ ref)
                assert gram_gap <= TIGHT * max(1.0, size), where
                assert abs(abs(np.vdot(mine, ref)) - size) <= TIGHT * max(1.0, size), where
    assert (1, 1, 2) in seen and (1,) * 16 in seen and (3, 3, 4) in seen


def test_each_size_class_is_one_batch(examples, monkeypatch):
    """sector_dimensions solves s3's sectors in two batches (sizes 1 and 2) and p4's
    dual's sixteen in one; standard_solutions is the batch of one sector."""
    calls = []
    batch = reptheory._solve_conjugate_equations

    def spy(w, qs, tol=None):
        calls.append(list(qs))
        return batch(w, qs, tol)

    monkeypatch.setattr(reptheory, "_solve_conjugate_equations", spy)
    reptheory.sector_dimensions(wk.symmetric_wha(3))
    assert sorted(calls, key=len) == [[2], [0, 1]]
    calls.clear()
    reptheory.sector_dimensions(wk.pair_groupoid_wha(4).dual)
    assert calls == [list(range(16))]
    calls.clear()
    sol = wk.standard_solutions(examples["m23"], 1)
    assert calls == [[1]] and sol.d == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)


def test_a_sector_without_a_vacuum_supported_hom_raises_zero_intertwiner(monkeypatch):
    """Read through S instead of the star, the 'conjugate' of a character of Z_3 is the
    character itself; conj(q) (x) q = q^2 then misses the vacuum for both nontrivial
    characters, and the batch of all three names one of them."""
    w = wk.cyclic_wha(3)
    monkeypatch.setattr(reptheory, "_twisted_conjugation", lambda w, tol=None: w.antipode)
    with pytest.raises(wk.ZeroIntertwiner, match=r"^R of sector \d: intertwiner space is trivial$") as err:
        wk.sector_dimensions(w)
    trivial = next(q for q, rep in enumerate(w.derived().irreps) if np.allclose(rep.matrices.ravel(), 1.0))
    assert f"sector {trivial}" not in str(err.value)
    assert wk.standard_solutions(w, trivial).d == pytest.approx(1.0, abs=1e-12)


def test_sector_thresholds_follow_the_tolerance():
    """Each named threshold of the sector path has its former literal at the default
    and scales with the tolerance; three of them decide a check either way."""
    tight = wk.DEFAULT_TOL.scaled(1e-3)
    for mag in (0.0, 0.5, 1.0, 7.25):
        big = max(1.0, mag)
        for tol, f in ((wk.DEFAULT_TOL, 1.0), (tight, 1e-3)):
            assert tol.representation_residual(mag) == pytest.approx(10 * tol.bound(mag), rel=1e-12)
            assert tol.unitor_residual(mag) == pytest.approx(1e-7 * big * f, rel=1e-12)
            assert tol.proportionality_residual(mag) == pytest.approx(1e-7 * big * f, rel=1e-12)
            assert tol.zigzag_scalar_residual(mag) == pytest.approx(1e-6 * big * f, rel=1e-12)
            assert tol.zigzag_pair_residual(mag) == pytest.approx(1e-6 * mag * f, rel=1e-12)
            assert tol.trace_imaginary_residual(mag) == pytest.approx(1e-8 * big * f, rel=1e-12)
            assert tol.dimension_agreement(mag) == pytest.approx(1e-6 * big * f, rel=1e-12)
            assert tol.zigzag_floor() == pytest.approx(1e-9 * f, rel=1e-12)
    assert wk.DEFAULT_TOL.representation_residual(4.0) == pytest.approx(10 * (1e-9 + 4e-9), rel=1e-12)
    # a composite 1e-8 off the identity is the scalar 1 at the default, not at 1e-3 of it
    off = (np.eye(2) + 1e-8 * np.array([[1.0, 2.0], [0.0, -1.0]]))[None]
    assert reptheory._scalars_of(off, ["z"], wk.DEFAULT_TOL)[0] == pytest.approx(1.0)
    with pytest.raises(wk.NonScalarIndex, match="z is not scalar"):
        reptheory._scalars_of(off, ["z"], tight)
    # a composite of modulus 1e-10 vanishes at the default and not at 1e-3 of it
    faint = 1e-10 * np.eye(2)[None]
    with pytest.raises(wk.ZeroIntertwiner, match="z vanishes"):
        reptheory._scalars_of(faint, ["z"], wk.DEFAULT_TOL)
    assert reptheory._scalars_of(faint, ["z"], tight)[0] == pytest.approx(1e-10)


def test_unitor_intertwining_follows_the_tolerance(m23):
    """A perturbation of tau off A^R of size 1e-9 passes the intertwining check at the default
    (1e-7 |tau|) and fails it at 1e-3 of the default."""
    d_eps = wk.vacua(m23).counit_rep
    tau = wk.irreducible_representations(m23)[1]
    ar = m23.derived().counital_subalgebras.right.basis
    off_ar = np.eye(m23.dim) - ar @ np.linalg.pinv(ar)
    x = 1e-9 * np.random.default_rng(1).standard_normal((m23.dim, tau.dim, tau.dim))
    bent = (tau.matrices + np.einsum("ij,iab->jab", off_ar, x))[None]
    assert reptheory._unitors(m23, d_eps, bent, ["bent"], "right", wk.DEFAULT_TOL).shape == (1, 6, 3)
    with pytest.raises(wk.CrossCheckMismatch, match="right unitor of bent fails to intertwine"):
        reptheory._unitors(m23, d_eps, bent, ["bent"], "right", wk.DEFAULT_TOL.scaled(1e-3))
