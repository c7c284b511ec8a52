"""Reference checks for the outputs of the ``classlm`` commands.

Nothing here imports ``classlm``: the lexicon reader, the normalizer, the
ARPA reader and the chain-rule backoff scorer are written out naively from
the documented formats, so a change in the library cannot also change the
yardstick it is measured against.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import sys
from pathlib import Path

SENT_START, SENT_END, UNK = "<s>", "</s>", "<unk>"
RESERVED = frozenset((SENT_START, SENT_END, UNK))
_PUNCT = str.maketrans({c: " " for c in ".,;:!?"})
REL_TOL = 1e-9


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def printed_close(printed: str, value: float) -> bool:
    """A value printed with ``:.4f`` agrees with ``value`` at that precision."""
    return abs(float(printed) - value) <= 0.5e-4 + REL_TOL * abs(value)


# -- inputs ----------------------------------------------------------------


class Lexicon:
    """Tags, class sizes and member-sequence lookup of a lexicon file."""

    def __init__(self, path):
        self.sizes: dict[str, int] = {}
        self.seq: dict[tuple[str, ...], str] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tag, _, members = line.partition(":")
            tag = tag.strip().upper()
            words = [w.lower() for w in members.split()]
            self.sizes[tag] = len(words)
            for word in words:
                self.seq[tuple(word.split("_"))] = tag
        self.max_len = max(len(key) for key in self.seq)
        self.keep = self.sizes.keys() | RESERVED

    def normalize(self, tokens) -> tuple[str, ...]:
        """Greedy longest-match replacement of class members by their tag."""
        keep = self.keep
        cased = [t if t in keep else t.lower() for t in tokens]
        out = []
        i = 0
        while i < len(cased):
            if cased[i] in keep:
                out.append(cased[i])
                i += 1
                continue
            for length in range(min(self.max_len, len(cased) - i), 0, -1):
                tag = self.seq.get(tuple(cased[i : i + length]))
                if tag is not None:
                    out.append(tag)
                    i += length
                    break
            else:
                out.append(cased[i])
                i += 1
        return tuple(out)

    def normalize_text(self, text: str) -> tuple[str, ...]:
        return self.normalize(text.translate(_PUNCT).split())


def read_labeled(path) -> list[tuple[str, str]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            group, _, text = line.partition("\t")
            rows.append((group, text.strip()))
    return rows


def labeled_nus(lexicon: Lexicon, path) -> list[tuple[str, tuple[str, ...]]]:
    return [(group, lexicon.normalize_text(text)) for group, text in read_labeled(path)]


def sentence_nus(lexicon: Lexicon, path) -> list[tuple[str, ...]]:
    """The generated sentences as ``generalize`` scores them: normalized,
    non-empty, deduplicated and sorted."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return sorted({lexicon.normalize(line.split()) for line in lines if line.split()})


def gram_types(nus, n: int) -> list[set]:
    """Distinct k-grams (k = 1..n) of the boundary-padded utterances."""
    types = [set() for _ in range(n)]
    for nu in set(nus):
        padded = (SENT_START,) * (n - 1) + nu + (SENT_END,)
        for k in range(1, n + 1):
            types[k - 1].update(padded[i : i + k] for i in range(len(padded) - k + 1))
    return types


# -- models ----------------------------------------------------------------


class Model:
    """An exported model file, read line by line from its ARPA sections."""

    def __init__(self, path):
        self.probs: dict[tuple[str, ...], float] = {}
        self.bows: dict[tuple[str, ...], float] = {}
        self.sizes: dict[str, int] = {}
        section = ""
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            head = line.strip()
            if not head or head.startswith("#"):
                continue
            if head == "\\end\\":
                break
            if head.startswith("\\"):
                section = head
            elif section == "\\class-sizes:":
                tag, size = head.split()
                self.sizes[tag] = int(size)
            elif section.endswith("-grams:"):
                fields = line.split("\t")
                gram = tuple(fields[1].split())
                self.probs[gram] = float(fields[0])
                if len(fields) == 3:
                    self.bows[gram] = float(fields[2])
        self.order = max(len(g) for g in self.probs)
        self.vocab = {g[0] for g in self.probs if len(g) == 1}
        self.emission = {t: -math.log10(s) for t, s in self.sizes.items() if s > 1}

    def logprob10(self, context: tuple[str, ...], word: str) -> float:
        backoff = 0.0
        while context + (word,) not in self.probs:
            if not context:
                raise KeyError(word)
            backoff += self.bows.get(context, 0.0)
            context = context[1:]
        return backoff + self.probs[context + (word,)]

    def perplexity(self, nus, emission: bool) -> tuple[float, int, int]:
        """(perplexity, scored tokens, oov tokens); the end tag is scored,
        start padding is not."""
        total = 0.0
        tokens = oov = 0
        n = self.order
        for nu in nus:
            mapped = tuple(t if t in self.vocab else UNK for t in nu)
            oov += sum(1 for t in nu if t not in self.vocab)
            padded = (SENT_START,) * (n - 1) + mapped + (SENT_END,)
            for i in range(n - 1, len(padded)):
                total += self.logprob10(padded[i - n + 1 : i], padded[i])
                if emission:
                    total += self.emission.get(padded[i], 0.0)
            tokens += len(mapped) + 1
        return 10.0 ** (-total / tokens), tokens, oov


def grouped_perplexities(model: Model, labeled, emission: bool) -> dict[str, tuple]:
    """Perplexity over all utterances (key "") and per request group."""
    groups: dict[str, list] = {"": [nu for _, nu in labeled]}
    for group, nu in labeled:
        groups.setdefault(group, []).append(nu)
    return {group: model.perplexity(nus, emission) for group, nus in groups.items()}


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def cells_match(expected: list[list[str]], actual: list[list[str]]) -> bool:
    """Tables equal cell by cell, floats to a relative 1e-9."""
    if len(expected) != len(actual):
        return False
    for row_e, row_a in zip(expected, actual):
        if len(row_e) != len(row_a):
            return False
        for e, a in zip(row_e, row_a):
            if e == a:
                continue
            try:
                if not close(float(e), float(a)):
                    return False
            except ValueError:
                return False
    return True


# -- host speed --------------------------------------------------------------


def reference_work(bundle, lines: int = 6000) -> int:
    """A fixed amount of classlm-like work that does not involve ``classlm``:
    normalize the bundle's first ``lines`` utterances and count their 1- to
    3-grams. ``run.py`` times it as a subprocess next to every command, so
    its time tracks how fast the host runs this kind of Python just then."""
    lexicon = Lexicon(Path(bundle) / "lexicon.lex")
    counts: dict[tuple[str, ...], int] = {}
    with open(Path(bundle) / "corpus.tsv", encoding="utf-8") as fh:
        for line in itertools.islice(fh, lines):
            nu = lexicon.normalize_text(line.partition("\t")[2])
            padded = (SENT_START, SENT_START) + nu + (SENT_END,)
            for k in (1, 2, 3):
                for i in range(len(padded) - k + 1):
                    counts[padded[i : i + k]] = counts.get(padded[i : i + k], 0) + 1
    return len(counts)


if __name__ == "__main__":
    print(reference_work(sys.argv[1]))
