"""Exception classes shared across the matching engine.

The distinction that matters operationally is between caller mistakes
(UsageError, AlphabetError, ConfigError) and StructuralViolation, which
signals that a bound the algorithm guarantees was breached at runtime:
a queue over capacity, a missed scheduling deadline, a progression whose
fingerprints stopped following the derivation law.  A structural violation
means either a fingerprint false positive or a bug; it is surfaced, never
swallowed.
"""


class UsageError(ValueError):
    """An operation was called outside its contract (bad lengths, ranges)."""


class ConfigError(ValueError):
    """Invalid configuration: unsupported prime width or mode, a forced
    randomized route that the pattern does not allow."""


class AlphabetError(ValueError):
    """A symbol fell outside the declared dense alphabet."""

    def __init__(self, symbol, index, sigma):
        self.symbol = symbol
        self.index = index
        self.sigma = sigma
        super().__init__(
            f"symbol {symbol} at stream index {index} outside alphabet [0, {sigma})"
        )


class StructuralViolation(RuntimeError):
    """A bound guaranteed by the algorithm was breached at runtime."""
