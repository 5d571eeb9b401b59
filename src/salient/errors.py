"""Shared exception types.

Exceeding a guard raises GuardExceeded (CLI exit code 2); nothing is ever
silently truncated. The DEFAULT_* guards are keyword defaults that callers
may override, and the CLI's --limit adjusts one per subcommand: the
brute-force n cap (classes, count --method bfs, singletons), the orbit
member cap (class), the multiset and cf size caps, the umbral order cap and
the extension-count size cap (poset extensions). The other guards are fixed
module constants: series.CF_BOX_CAP and series.PROFILE_CAP,
posets.GRADED_SWEEP_RANK and posets.GRADED_SWEEP_SIZE, and mfenum.MAX_RANK,
mfenum.MAX_ELEMENTS and mfenum.MAX_FAMILY. Malformed input raises
DomainError (CLI exit code 1).
"""


class SalientError(Exception):
    """Base class for all package errors."""


class DomainError(SalientError, ValueError):
    """Invalid input value: bad word, malformed gamma word, and so on."""


class GuardExceeded(SalientError):
    """A size or limit guard was exceeded."""


class OrbitOverflowError(GuardExceeded):
    """A breadth-first orbit closure grew past its member cap."""


class InternalConsistencyError(SalientError):
    """A cross-checkable identity failed inside the library itself."""
