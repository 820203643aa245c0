"""Shared exception types, and the type check every config dataclass runs.

Every toolkit-specific failure subclasses DiarkitError so callers can catch
one base; each also subclasses the closest builtin (ValueError, IndexError)
to stay idiomatic. File-not-found and OS-level failures use the builtins
FileNotFoundError / OSError directly.
"""

import math
from dataclasses import fields
from numbers import Integral, Real


class DiarkitError(Exception):
    pass


def check_numbers(config) -> None:
    """Raise ValueError unless each field of dataclass ``config`` annotated
    ``int`` or ``float`` holds a finite number of that kind, and each one
    annotated ``bool`` holds a bool; a bool is no number here, and
    ``int | None`` also takes None."""
    for f in fields(config):
        kind, value = f.type.partition(" ")[0], getattr(config, f.name)
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")
        if kind not in ("int", "float") or (value is None and f.type.endswith("| None")):
            continue
        finite_real = kind == "float" and isinstance(value, Real) and math.isfinite(value)
        if isinstance(value, bool) or not (isinstance(value, Integral) or finite_real):
            raise ValueError(f"{f.name} must be a finite {kind}, got {value!r}")


# ---- audio_io ----

class CorruptHeader(DiarkitError, ValueError):
    pass


class UnsupportedFormat(DiarkitError, ValueError):
    pass


class EmptyBuffer(DiarkitError, ValueError):
    pass


class RttmParseError(DiarkitError, ValueError):
    """Base for RTTM text failures; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedLine(RttmParseError):
    pass


class NonNumericTime(RttmParseError):
    pass


class NonPositiveDuration(RttmParseError):
    pass


# ---- preprocess ----

class SilentInput(DiarkitError, ValueError):
    pass


class LengthMismatch(DiarkitError, ValueError):
    pass


class TooShort(DiarkitError, ValueError):
    pass


# ---- embed ----

class SegmentOutOfRange(DiarkitError, ValueError):
    pass


class TooFewFrames(DiarkitError, ValueError):
    pass


class DimMismatch(DiarkitError, ValueError):
    pass


class TruncatedFile(DiarkitError, ValueError):
    pass


# ---- cluster ----

class ZeroVector(DiarkitError, ValueError):
    pass


class EmptyInput(DiarkitError, ValueError):
    pass


class KTooLarge(DiarkitError, ValueError):
    pass


# ---- metrics ----

class EmptyMatrix(DiarkitError, ValueError):
    pass


class MixedFiles(DiarkitError, ValueError):
    pass


class EmptyReference(DiarkitError, ValueError):
    pass


class EmptyScores(DiarkitError, ValueError):
    pass


class ZeroBaseline(DiarkitError, ValueError):
    pass


# ---- losses ----

class IndexOutOfRange(DiarkitError, IndexError):
    pass


class ImpossibleAlignment(DiarkitError, ValueError):
    pass


class UnnormalizedRow(DiarkitError, ValueError):
    pass


class LabelOutOfRange(DiarkitError, ValueError):
    pass


class EmptyData(DiarkitError, ValueError):
    pass


# ---- corpus ----

class BadSpeakerCount(DiarkitError, ValueError):
    pass


class BadSplit(DiarkitError, ValueError):
    pass


class IoError(DiarkitError, OSError):
    """Filesystem failure while writing or reading corpus artifacts."""
