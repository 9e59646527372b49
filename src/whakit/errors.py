"""Exception types raised by whakit.

Everything derives from :class:`WhakitError` so callers can catch broadly.
Non-existence of well-defined objects (Haar integral, normalized integral)
is *not* an error and is reported as ``None`` by the relevant functions;
the exceptions below signal broken or out-of-contract input.
"""


class WhakitError(Exception):
    """Base class for all whakit errors."""


class DimensionMismatch(WhakitError):
    """Array shapes are inconsistent with the declared dimension."""


class ValidationError(WhakitError):
    """An axiom check failed.

    Carries the offending axiom name and the residual that exceeded tolerance.
    """

    def __init__(self, axiom, residual=None, threshold=None):
        self.axiom = axiom
        self.residual = residual
        self.threshold = threshold
        msg = f"axiom violated: {axiom}"
        if residual is not None:
            msg += f" (residual {residual:.3e}"
            if threshold is not None:
                msg += f", tolerance {threshold:.3e}"
            msg += ")"
        super().__init__(msg)


class SchemaError(WhakitError):
    """A serialized file does not match the expected schema (bad field path in message)."""


class NotSemisimple(WhakitError):
    """The algebra's regular trace form is degenerate."""


class NonIntegerBlockSize(WhakitError):
    """A central block has non-square dimension (not a full matrix block)."""


class NonIntegerMultiplicity(WhakitError):
    """An inclusion or fusion multiplicity failed to round to an integer."""


class NotConnected(WhakitError):
    """An inclusion's Bratteli graph is disconnected."""


class NoQuasiBasis(WhakitError):
    """No quasi-basis exists: the conditional expectation has no finite index."""


class NotConditionalExpectation(WhakitError):
    """The map is not a unital idempotent bimodule projection onto its range."""


class NotNonnegative(WhakitError):
    """A matrix expected to be entrywise nonnegative is not."""


class NoAntipode(WhakitError):
    """The antipode equations have no solution."""


class NonUniqueAntipode(WhakitError):
    """The antipode equations are degenerate (homogeneous kernel nontrivial)."""


class NoInvolution(WhakitError):
    """The operation needs a star structure but none is attached."""


class NotSeparable(WhakitError):
    """Delta(1) does not factor through the counital subalgebras."""


class NotIdempotent(WhakitError):
    """A solved element fails its idempotency consistency check (broken input)."""


class InconsistentMaschke(WhakitError):
    """Semisimplicity and existence of a normalized integral disagree."""


class InconsistentCriterion(WhakitError):
    """The Haar existence criterion disagrees with the direct solve."""


class NotPositive(WhakitError):
    """An element expected to be positive (or positive definite) is not."""


class NotPositiveDefinite(NotPositive):
    """A Gram matrix expected to be positive definite is not."""


class NonScalarIndex(WhakitError):
    """A Watatani index element is not a scalar multiple of the unit."""


class NotProportionalToMinimal(WhakitError):
    """R*R is not proportional to a single minimal vacuum projection."""


class ZeroIntertwiner(WhakitError):
    """A required intertwiner space is zero."""


class VacuumAssignmentFailed(WhakitError):
    """A sector could not be assigned left/right vacuum labels."""


class FactorizationResidualTooLarge(WhakitError):
    """No nonnegative factorization of the dimension matrices within tolerance."""


class CrossCheckMismatch(WhakitError):
    """Two independent routes to the same quantity disagree."""


class InvariantMismatch(WhakitError):
    """The two routes to the invariant subalgebra of an action disagree."""


class IllDefinedProduct(WhakitError):
    """A quotient product does not descend to the quotient space."""


class EmptyQuotient(WhakitError):
    """A relative tensor product is 0-dimensional: its relations span the whole space."""


class RankDeficient(WhakitError):
    """A map required to be injective/bijective is rank deficient."""


class InvalidGroupoid(WhakitError):
    """Composition/inverse tables do not define a groupoid."""
