"""Exception classes shared across the matching engine.

The distinction that matters operationally is between caller mistakes
(UsageError, AlphabetError, ConfigError) and StructuralViolation, which
signals that a bound the algorithm guarantees was breached at runtime:
a queue over capacity, a missed scheduling deadline, a progression whose
fingerprints stopped following the derivation law.  A structural violation
means either a fingerprint false positive or a bug; it is surfaced, never
swallowed.

The first error out of an engine ends its stream: the engine's generator
is replaced by a `Stopped`, so every later call raises `UsageError`
naming that error, while the stream index stays at the arrival that
raised and the matches reported before it stand.  `AlphabetError` is not
an engine error: the front end raises it after the engine has taken the
rejected symbol as a fresh one, and the stream goes on.
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


class Stopped:
    """Stands in for the generator of an engine that an error stopped: a
    send raises `UsageError` naming that error.  It keeps the message
    alone, not the error, whose traceback holds the engine's frames."""

    __slots__ = ("why",)

    def __init__(self, err: BaseException):
        self.why = f"the stream ended at an earlier error: {type(err).__name__}: {err}"

    def send(self, msg):
        raise UsageError(self.why)
