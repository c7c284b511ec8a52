"""Exception hierarchy, and the shared rules for reading and writing files.

Everything user-data related derives from :class:`DataError` so the CLI can
map it to exit code 1; argparse handles usage errors (exit code 2). Every
reader of user files opens them with :func:`open_text`, model-file numbers
and the CLI's number flags are read by :func:`parse_int`, :func:`parse_float`
and :func:`parse_count`, and every report table is written by
:func:`write_csv`.
"""

import re
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TextIO


class DataError(Exception):
    """Invalid input data: a corpus, lexicon, grammar or model file, or a count table."""


class LexiconError(DataError):
    def __init__(self, message: str, tag: str | None = None):
        super().__init__(message)
        self.tag = tag  # the class at fault, if any


class CorpusError(DataError):
    pass


class TableError(DataError):
    pass


class GrammarError(DataError):
    pass


class ModelError(DataError):
    pass


@contextmanager
def open_text(path, error: type[DataError]) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading; every reader of user files does.

    A leading byte-order mark is dropped. Bytes that do not decode raise
    ``error`` naming the path, instead of a bare :class:`UnicodeDecodeError`.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_csv(path, fmt: str, header, rows) -> None:
    """Write a header and rows as CSV (``fmt="csv"``) or TSV (``fmt="tsv"``)."""
    import csv  # only the commands that write a report load it
    if fmt not in ("csv", "tsv"):
        raise DataError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def parse_int(text: str) -> int:
    """Integer written as ASCII digits only, within ``int()``'s digit limit.

    Raises ValueError otherwise: ``int()`` alone also takes signs, spaces,
    ``_`` separators and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


# the float shape export_model writes; float() alone also takes signs,
# spaces, "_" separators, non-ASCII digits, "inf" and "nan"
_FLOAT_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?")


def parse_float(text: str) -> float:
    """Float written in the ASCII shape :func:`classlm.lm.export_model`
    writes, ``-?digits[.digits][e±digits]``.

    Raises ValueError otherwise. A value past the float range reads as an
    infinity, which each caller bounds.
    """
    if not _FLOAT_RE.fullmatch(text):
        raise ValueError(f"bad number {text!r}")
    return float(text)


def parse_count(text: str):
    """Exact count written as digits, optionally followed by ``/digits`` or
    ``.digits``, whose value fits a float: an int when integral, else a
    Fraction, as ``--grid`` reads balance factors.

    Raises ValueError otherwise: signs and exponents are not count syntax,
    and a value past the float range could not be trained on.
    """
    from fractions import Fraction  # loaded, and the pattern compiled, only for a --grid
    if not re.fullmatch(r"[0-9]+(?:/[0-9]+|\.[0-9]+)?", text):
        raise ValueError(f"bad count {text!r}")
    try:
        count = Fraction(text)
        float(count)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad count {text!r}") from exc
    return count.numerator if count.denominator == 1 else count
