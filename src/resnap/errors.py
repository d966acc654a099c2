"""Exception hierarchy shared across the package."""
from __future__ import annotations

import time


class ResnapError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ResnapError):
    """Input bytes are not well formed (broken XML, undecodable text)."""


class ValidationError(ResnapError):
    """Input is structurally readable but violates a data contract."""


class EmptyLogError(ResnapError):
    """The source contains no events at all."""


class ConfigError(ResnapError):
    """A configuration value is missing, unknown, or inconsistent."""


class CellTimeoutError(ResnapError):
    """A single experiment cell exceeded its wall-time budget."""


def check_deadline(deadline: float | None) -> None:
    """Raise CellTimeoutError once ``time.monotonic()`` has passed ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise CellTimeoutError("wall-time budget exceeded")
