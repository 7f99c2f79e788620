"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: 1 for a usage error or a file that
cannot be read or written; 2 for refused input (malformed content or a
bad HCOL_* value, raised as ValueError, and CeilingError for input
above a ceiling); 3 for InvariantViolation.
"""


class HcolError(Exception):
    """Base class for toolkit errors."""


class CeilingError(HcolError):
    """A configured feasibility ceiling would be exceeded.

    Mostly raised *before* starting a search that cannot finish at desk
    scale (exponential subset enumeration, oversized oracle instances,
    field degrees out of range).  It is also raised after bounded work
    that found no answer: by the seeded samplers ``normalize_first_entry``
    and ``kneser_rep`` after ``retry_cap`` failed trials, and by
    ``hcol reduce`` when no edge gadget is found up to ``gadget_vertices``.
    Such a refusal is inconclusive, never a negative answer.
    """


class InvariantViolation(HcolError):
    """An internal invariant that should hold by construction was violated.

    Seeing this exception means a bug, not a bad input.
    """
