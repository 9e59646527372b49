"""Numerical policy: tolerances and the deterministic RNG seed.

All equality in this package is approximate equality of complex arrays:
``x == y`` means ``norm(x - y) <= abs_tol + rel_tol * max(norm(x), norm(y))``
with the Frobenius norm.  A single :class:`Tolerance` instance is threaded
through every check; ``DEFAULT_TOL`` is the package-wide default
(1e-9 absolute, 1e-9 relative).  What an object derives at a tolerance is
kept in one :class:`Derived` per tolerance, ``obj.derived(tol)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Deterministic seed used everywhere randomness is needed ("WHA1" as ASCII).
DEFAULT_SEED = 0x57484131

#: Residual bound for rounding real numbers to integers (block sizes,
#: inclusion multiplicities, fusion multiplicities).
INT_ROUNDING_TOL = 1e-6


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used for all approximate comparisons."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def bound(self, *scales) -> float:
        """Comparison threshold for quantities of the given magnitudes."""
        return self.abs_tol + self.rel_tol * (max(map(float, scales)) if scales else 0.0)

    def quasi_basis_residual(self, n: int) -> float:
        """Bound on the residual of the two quasi-basis equations of an
        expectation on an n-dimensional algebra, each an identity of Frobenius
        norm sqrt(n): 50 ``bound(1)`` sqrt(n), 1e-7 sqrt(n) at the default."""
        return 50 * self.bound(1.0) * float(np.sqrt(n))

    def scalar_index_residual(self, magnitude: float) -> float:
        """How far an index element may lie from ``lam`` times the unit, for |lam| =
        ``magnitude``, and still be the scalar ``lam``: 50 ``bound(1)`` max(1,
        magnitude), 1e-7 max(1, magnitude) at the default."""
        return 50 * self.bound(1.0) * max(1.0, float(magnitude))

    def scaled(self, factor: float) -> "Tolerance":
        return Tolerance(self.abs_tol * factor, self.rel_tol * factor)


#: Package-wide default tolerance.
DEFAULT_TOL = Tolerance()


def get_tol(tol: Tolerance | None) -> Tolerance:
    """Resolve an optional per-call tolerance to the default."""
    return DEFAULT_TOL if tol is None else tol


class Derived:
    """What one owner derives at one tolerance, its entries ``functools.cached_property``s
    computed on first use (one that raises is not kept).  The owner is treated
    as immutable: build a new one instead of changing its arrays."""

    def __init__(self, owner, tol: Tolerance):
        self.owner, self.tol = owner, tol


class HasDerived:
    """An owner whose ``derived(tol)`` keeps one of its class attribute ``Derived`` per tolerance."""

    def derived(self, tol: Tolerance | None = None):
        tol = get_tol(tol)
        cache = vars(self).setdefault("_derived", {})
        if tol not in cache:
            cache[tol] = self.Derived(self, tol)
        return cache[tol]


def rng(seed: int | None = None) -> np.random.Generator:
    """Fresh deterministic generator (results never depend on call order)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


@lru_cache(maxsize=1024)
def gaussian(seed: int, size: int) -> np.ndarray:
    """``rng(seed).standard_normal(size)``, drawn once per seed and size and kept read-only."""
    draw = rng(seed).standard_normal(size)
    draw.flags.writeable = False
    return draw


def round_to_int(x: float, what: str = "value", tol: float = INT_ROUNDING_TOL) -> int:
    """Round to the nearest integer, raising if the residual exceeds ``tol``."""
    from .errors import NonIntegerMultiplicity

    n = int(round(float(np.real(x))))
    resid = abs(complex(x) - n)
    if resid > tol:
        raise NonIntegerMultiplicity(f"{what} = {x!r} is not an integer (residual {resid:.3e})")
    return n
