"""Exception hierarchy for the amnm package.

Every failure mode that callers are expected to handle programmatically gets
its own class, and each carries the witnessing data (indices, constants) that
explains *why* the check failed.  The CLI maps these onto stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "AmnmError", "AxiomViolation", "NotCommutative", "NotIdempotent", "NotAssociative",
    "NotClosed", "NonPositiveWeight", "NotSubmultiplicative", "StructureMismatch",
    "DefectTooLarge", "PreconditionGap", "ClassificationFailure", "NoEligibleIndex", "ParseError",
]


class AmnmError(Exception):
    """Base class for all package-specific errors."""


class AxiomViolation(AmnmError):
    """An input structure fails one of its defining axioms.

    Attributes
    ----------
    witness:
        Indices exhibiting the violation (shape depends on the subclass).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCommutative(AxiomViolation):
    """Cayley table has table[i][j] != table[j][i]; witness = (i, j)."""


class NotIdempotent(AxiomViolation):
    """Cayley table has table[i][i] != i; witness = i."""


class NotAssociative(AxiomViolation):
    """Cayley table fails (ij)k = i(jk); witness = (i, j, k)."""


class NotClosed(AxiomViolation):
    """Cayley table entry out of range; witness = (i, j)."""


class NonPositiveWeight(AxiomViolation):
    """A weight value is not a finite, strictly positive real; witness = index."""


class NotSubmultiplicative(AxiomViolation):
    """omega(xy) > omega(x) * omega(y) for some pair; witness = (x, y)."""


class StructureMismatch(AmnmError):
    """Input lacks the special shape an operation requires.

    Raised e.g. when a weight constructor expecting an orthogonal sum of free
    blocks is handed a table without that structure, or when a totally-ordered
    chain is required and absent.
    """


class DefectTooLarge(AmnmError):
    """Measured multiplicativity defect exceeds the method's threshold."""

    def __init__(self, defect: float, threshold: float, what: str = "defect"):
        super().__init__(
            f"{what} {defect!r} is not below the required threshold {threshold!r}"
        )
        self.defect = defect
        self.threshold = threshold


class PreconditionGap(AmnmError):
    """The smallness condition 2*delta*C(eps)/eps < 1 fails.

    The correction recipe is only guaranteed when the measured defect, the
    flighty constant at level 2/eps and the target tolerance satisfy the
    strict inequality; this error reports the violating constants.
    """

    def __init__(self, delta: float, flighty: float, epsilon: float):
        margin = 2.0 * float(delta) * float(flighty) / float(epsilon)
        super().__init__(
            "correction precondition 2*delta*C/eps < 1 fails: "
            f"delta={delta!r}, C={flighty!r}, eps={epsilon!r}, margin={margin!r}"
        )
        self.delta = delta
        self.flighty = flighty
        self.epsilon = epsilon
        self.margin = margin


class ClassificationFailure(AmnmError):
    """An internal certified step found its promised invariant violated.

    This fires only if a caller lied about a precondition (or a genuine bug
    exists): every raise site corresponds to a step whose success is a proved
    consequence of the preconditions.
    """


class NoEligibleIndex(AmnmError):
    """No index in the weight sequence satisfies the eligibility condition."""


class ParseError(AmnmError):
    """Input document is malformed (bad JSON, missing field, wrong shape)."""
