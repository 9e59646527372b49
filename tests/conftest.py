"""Shared fixtures.

The example algebras are immutable, so one session-scoped copy is shared by
every test module.  Acceptance tests additionally register a one-line verdict
per criterion; the hook at the bottom echoes those after the run.
"""

from __future__ import annotations

import numpy as np
import pytest

import whakit as wk


def build_examples() -> dict[str, wk.WeakHopfAlgebra]:
    return {
        "z2": wk.cyclic_wha(2),
        "z3": wk.cyclic_wha(3),
        "z4": wk.cyclic_wha(4),
        "z5": wk.cyclic_wha(5),
        "s3": wk.symmetric_wha(3),
        "p2": wk.pair_groupoid_wha(2),
        "p3": wk.pair_groupoid_wha(3),
        "p4": wk.pair_groupoid_wha(4),
        "fp2": wk.function_wha(wk.pair_groupoid(2)),
        "h4": wk.sweedler_h4(),
        "m23": wk.m2_m3(),
    }


@pytest.fixture(scope="session")
def examples() -> dict[str, wk.WeakHopfAlgebra]:
    return build_examples()


def _rotated(w: wk.WeakHopfAlgebra, seed: int, real: bool = False) -> wk.WeakHopfAlgebra:
    """``w`` in the basis ``f_a = sum_i p[i, a] e_i`` of a random unitary ``p``, real orthogonal with ``real``."""
    r = np.random.default_rng(seed)
    g = r.normal(size=(w.dim, w.dim))
    p, _ = np.linalg.qr(g if real else g + 1j * r.normal(size=(w.dim, w.dim)))
    q = p.conj().T
    a = w.algebra
    c = np.einsum("ia,jb,ijk,dk->abd", p, p, a.c, q, optimize=True)
    d3 = np.einsum("ap,bq,pqj,jc->abc", q, q, w.delta3, p, optimize=True)
    inv = None if a.involution is None else q @ a.involution @ np.conj(p)
    alg = wk.FinDimAlgebra(c, q @ a.unit, involution=inv, name=a.name)
    return wk.WeakHopfAlgebra(alg, d3.reshape(w.dim**2, w.dim), p.T @ w.eps, q @ w.antipode @ p)


@pytest.fixture(scope="session")
def rotated():
    """``rotated(w, seed, real=False)``: ``w`` in a seeded random complex unitary (or real orthogonal) basis."""
    return _rotated


@pytest.fixture(scope="session")
def z3(examples):
    return examples["z3"]


@pytest.fixture(scope="session")
def s3(examples):
    return examples["s3"]


@pytest.fixture(scope="session")
def p2(examples):
    return examples["p2"]


@pytest.fixture(scope="session")
def fp2(examples):
    return examples["fp2"]


@pytest.fixture(scope="session")
def h4(examples):
    return examples["h4"]


@pytest.fixture(scope="session")
def m23(examples):
    return examples["m23"]


@pytest.fixture(scope="session")
def ising_category():
    """Fusion rules and F-symbols of the Ising category on labels 0 = 1, 1 = sigma, 2 = psi.

    sigma (x) sigma = 1 + psi, sigma (x) psi = psi (x) sigma = sigma, psi (x) psi = 1;
    F^{sigma sigma sigma}_sigma = [[1, 1], [1, -1]] / sqrt 2 over (z, m) in {1, psi},
    F^{sigma psi sigma}_psi = F^{psi sigma psi}_sigma = -1, every other F-symbol is 1.
    """
    rules = {
        (0, 0): (0,), (0, 1): (1,), (0, 2): (2,),
        (1, 0): (1,), (1, 1): (0, 2), (1, 2): (1,),
        (2, 0): (2,), (2, 1): (1,), (2, 2): (0,),
    }
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

    def f_symbol(y, a, b, w, z, m):
        if (y, a, b, w) == (1, 1, 1, 1):
            return hadamard[z // 2, m // 2]
        return -1.0 if (y, a, b, w) in ((1, 2, 1, 2), (2, 1, 2, 1)) else 1.0

    return rules, f_symbol


@pytest.fixture(scope="session")
def ising(ising_category) -> wk.WeakHopfAlgebra:
    """The weak Hopf algebra M_3 + M_4 + M_3 of the Ising category (dim 34, S^2 != id)."""
    return wk.fusion_wha(*ising_category, name="Ising")


@pytest.fixture(scope="session")
def idempotent_monoid() -> wk.WeakHopfAlgebra:
    """C[{1, x}] with x^2 = x: a bialgebra (Delta g = g (x) g) without an antipode.

    It passes every weak bialgebra axiom; the identity matrix stands in for
    the antipode it does not have.
    """
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 1] = 1.0
    delta = np.zeros((4, 2))
    delta[0, 0] = delta[3, 1] = 1.0
    alg = wk.FinDimAlgebra(c, np.array([1.0, 0.0]), involution=np.eye(2), basis_labels=["1", "x"], name="C[1,x]")
    return wk.WeakHopfAlgebra(alg, delta, np.ones(2), np.eye(2))


# --------------------------------------------------------------------------
# acceptance summary

_ACCEPTANCE: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def acceptance():
    """Record `criterion N PASS/FAIL` lines for the terminal summary."""

    def record(num: int, status: str, detail: str = "") -> None:
        line = f"criterion {num:2d}  {status}" + (f"  — {detail}" if detail else "")
        _ACCEPTANCE.append((num, line))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE):
            terminalreporter.write_line(line)
