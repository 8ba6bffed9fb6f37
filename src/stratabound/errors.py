"""Exception taxonomy shared across the package.

Every domain error derives from StrataboundError so callers can catch one
base class; InternalCheckError marks violated internal invariants (a bug or a
misread construction, never bad user input).
"""


class StrataboundError(Exception):
    """Base class for all domain errors raised by this package."""


class CoprimalityViolation(StrataboundError):
    """A Newton polygon segment (m, n) with gcd(m, n) != 1."""


class SlopeOrderViolation(StrataboundError):
    """Segment slopes are not non-increasing."""


class CurtailUndefined(StrataboundError):
    """Curtailment needs m_i <= n_i for every segment."""


class SymbolNotInSequence(StrataboundError):
    """A symbol was looked up in a sequence that does not contain it."""


class InvalidPair(StrataboundError):
    """A small-modification pair must be a 0-symbol ordered before a 1-symbol."""


class PreconditionViolated(StrataboundError):
    """An operation was called outside its stated domain."""


class ContextTooLarge(StrataboundError):
    """A specialization check would use more nodes than the budget allows.

    The budget (``--budget``, ``STRATABOUND_BUDGET``) caps the nodes one
    call uses.  For the oracle (``weyl.generic_specializations_oracle``) a
    call on w in context (h, c) needs C(h, c) + l(w) + 1 nodes: the typed
    representatives of the context plus the permutations it types, checked
    before any work.  For the pairwise reference search (``weyl.specializes``)
    a node is one row choice tried.  |W_J| = c!·d! does not count.
    """


class DimensionMismatch(StrataboundError):
    """Degrees or zero/one counts do not match the ambient context."""


class VerificationFailure(StrataboundError):
    """A cross-validation report came back with a counterexample witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalCheckError(StrataboundError):
    """An internal invariant failed; indicates a bug, not bad input."""
