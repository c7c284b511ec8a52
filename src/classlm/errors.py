"""Exception hierarchy.

Everything user-data related derives from :class:`DataError` so the CLI can
map it to exit code 1; argparse handles usage errors (exit code 2).
"""

from collections.abc import Iterator
from contextlib import contextmanager
from typing import TextIO


class DataError(Exception):
    """Invalid input data (corpus, lexicon, grammar, table, or model file)."""


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
