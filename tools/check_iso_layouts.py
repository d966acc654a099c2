"""Check that this interpreter's ``datetime.fromisoformat`` reads every
layout the readers decode as arrays, and list the fraction lengths it rejects.

Usage (standard library only, so any Python the package supports can
run it, numpy or not):

    python3 tools/check_iso_layouts.py

``resnap.parsers.decode_timestamps`` decodes the strict layout
``YYYY-MM-DD[T| ]HH:MM:SS[.fff|.ffffff][Z|z|±HH:MM]`` itself and hands
every other text to ``datetime.fromisoformat``. Its values are only the
per-value ones if ``fromisoformat`` reads each of these layouts, with the
``Z`` suffix written as ``+00:00`` as the readers do, to the same fields.
Exit status 0 when it does, 1 otherwise.
"""
from __future__ import annotations

import sys
from datetime import datetime, timedelta, timezone

FRACTIONS = (0, 3, 6)  # fractional-second digits decoded as arrays
SUFFIXES = ("", "Z", "z", "+05:30", "-23:59")
SEPARATORS = ("T", " ")
OTHER_FRACTIONS = (1, 7, 9)  # read one at a time on every interpreter


def layouts() -> list[tuple[str, datetime]]:
    """One sample text per strict layout and separator, with the instant it names."""
    samples = []
    for fraction in FRACTIONS:
        for suffix in SUFFIXES:
            for sep in SEPARATORS:
                digits = "123456"[:fraction]
                text = f"2024-02-29{sep}23:58:59" + (f".{digits}" if fraction else "") + suffix
                micro = int(digits.ljust(6, "0")) if fraction else 0
                zone = None
                if suffix in ("Z", "z"):
                    zone = timezone.utc
                elif suffix:
                    sign = -1 if suffix[0] == "-" else 1
                    offset = timedelta(hours=int(suffix[1:3]), minutes=int(suffix[4:]))
                    zone = timezone(sign * offset)
                samples.append((text, datetime(2024, 2, 29, 23, 58, 59, micro, tzinfo=zone)))
    return samples


def read(text: str) -> datetime:
    """``fromisoformat`` as the readers call it: ``Z`` or ``z`` becomes ``+00:00``."""
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def failures() -> list[str]:
    """The strict-layout samples this interpreter does not read to their instant."""
    wrong = []
    for text, expected in layouts():
        try:
            got = read(text)
        except ValueError as exc:
            wrong.append(f"{text!r}: {exc}")
            continue
        if got != expected or got.utcoffset() != expected.utcoffset():
            wrong.append(f"{text!r}: read as {got.isoformat()}, expected {expected.isoformat()}")
    return wrong


def rejected_fractions() -> list[int]:
    """Fraction lengths outside the strict layout that ``fromisoformat`` rejects here."""
    out = []
    for n in OTHER_FRACTIONS:
        try:
            read("2024-02-29T23:58:59." + "1" * n)
        except ValueError:
            out.append(n)
    return out


def main() -> int:
    wrong = failures()
    version = ".".join(map(str, sys.version_info[:3]))
    for line in wrong:
        print(f"NOT READ: {line}")
    print(
        f"Python {version}: {len(layouts()) - len(wrong)} of {len(layouts())} strict-layout "
        f"samples read; fraction lengths {rejected_fractions() or 'none'} of "
        f"{list(OTHER_FRACTIONS)} rejected by fromisoformat"
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
