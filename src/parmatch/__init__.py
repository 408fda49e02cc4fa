"""Streaming parameterized matching in sublinear space.

Report, for every arriving stream symbol, whether the last m symbols are
an injective relabelling of an m-length pattern, in constant work per
symbol.  The randomized engine uses O(|alphabet| * log m) words; the
deterministic one O(|alphabet| + rho) words, rho being the pattern's
parameterized period.
"""

from .alphabet_filter import AlphabetFilter, densify_pattern
from .det_matcher import DetMatcher
from .errors import AlphabetError, ConfigError, StructuralViolation, UsageError
from .fingerprint import FieldContext, context_new, fp_of_sequence
from .pattern import PatternProfile, build_profile
from .predecessor import NEVER, LastOccurrence, pred_string
from .stream_matcher import StreamMatcher

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "AlphabetFilter",
    "ConfigError",
    "DetMatcher",
    "FieldContext",
    "LastOccurrence",
    "NEVER",
    "PatternProfile",
    "StreamMatcher",
    "StructuralViolation",
    "UsageError",
    "build_profile",
    "context_new",
    "densify_pattern",
    "fp_of_sequence",
    "pred_string",
]
