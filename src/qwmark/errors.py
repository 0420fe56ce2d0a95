"""Shared exception taxonomy.

Every failure the library raises deliberately derives from QwmarkError so the
CLI can map error classes to distinct exit codes.  Anything else escaping is a
bug, not a usage fault.
"""

from __future__ import annotations


class QwmarkError(Exception):
    """Base class for all deliberate library errors."""


class DimensionError(QwmarkError):
    """Operator/state dimensions disagree or are not a power of two."""


class DimensionCapError(QwmarkError):
    """A requested Hilbert-space dimension exceeds the configured cap."""


class DegenerateStateError(QwmarkError):
    """A measurement branch has (numerically) zero norm and cannot renormalize."""


class EigensolverError(QwmarkError):
    """The dense eigensolver failed to converge or produced invalid spectra."""


class InvariantError(QwmarkError):
    """A runtime consistency check failed (e.g. Bernoulli-equivalence probe)."""


class FlushLimitError(QwmarkError):
    """The post-loop flush phase exceeded its round cap without re-anchoring."""


class RoundLimitError(QwmarkError):
    """An exact API run would need more rounds than the engine's cap."""


class LengthError(QwmarkError):
    """A bit string or byte record has the wrong length for its role."""


class IndexRangeError(QwmarkError):
    """A message/bit index lies outside its declared range."""


class FormatError(QwmarkError):
    """A serialized key, circuit, or config file is malformed."""
