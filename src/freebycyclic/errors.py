"""Exception hierarchy.

Two families matter to the command line interface: malformed textual input
(`InputParseError`, exit code 64) and violated structural preconditions or
invariants (`InvariantViolation`, exit code 65).
"""

from __future__ import annotations


class FreeByCyclicError(Exception):
    """Base class for all package-specific errors."""


class InputParseError(FreeByCyclicError):
    """A text input (word, map file, presentation file, CLI argument) is malformed."""


class InvariantViolation(FreeByCyclicError):
    """A structural precondition or internal invariant does not hold."""


class DisconnectedGraphError(InvariantViolation):
    """An operation that needs a connected graph received a disconnected one."""


class MarkingError(InvariantViolation):
    """A marking fails the homotopy-inverse word check."""


class NotIrreducibleError(InvariantViolation):
    """The transition matrix is not irreducible."""


class NotExpandingError(InvariantViolation):
    """The transition matrix is irreducible but not expanding."""


class FoldStuckError(InvariantViolation):
    """No fold is available but the graph map is not yet a relabeling."""


class NotACycleError(InvariantViolation):
    """A 1-chain expected to be a cycle has nonzero boundary."""


class NonIntegralClassError(InvariantViolation):
    """A cohomology class expected to be integral has non-integer coordinates."""


class ConeInfeasibleError(InvariantViolation):
    """A class lies outside the open positive cone, or no representative
    clears a cellwise bound; carries a certifying cycle of 1-cells."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class DegeneratePhaseError(InvariantViolation):
    """A crossing height of a section falls off the crossing grid of its
    phase."""


class RiserError(InvariantViolation):
    """Two top pieces of a trapezoid meet at corners of different heights
    that one vertical chain joins: the top has a riser, which the torus
    does not model.  Carries the trapezoid, the x position, the lower and
    the upper corner as (0-cell, height) and the chain's verticals."""

    def __init__(self, trapezoid: str, x, lower: tuple[str, int],
                 upper: tuple[str, int], chain: tuple[str, ...]):
        super().__init__(
            f"top of {trapezoid} rises at x={x}: corner {lower} reaches "
            f"corner {upper} up the verticals {list(chain)}, and risers "
            "are not modelled")
        self.trapezoid, self.x = trapezoid, x
        self.lower, self.upper, self.chain = lower, upper, chain


class IterationBudgetError(InvariantViolation):
    """A flow trace exceeded its iteration budget."""


class TurnDataError(InvariantViolation):
    """A turn list violates the preconditions of the length perturbation."""


class OpenTraceError(InvariantViolation):
    """A word expected to abelianize to zero traced an open lattice path."""


class ExcludedDirectionError(InvariantViolation):
    """A direction expected inside a sector lies on an excluded ray."""
