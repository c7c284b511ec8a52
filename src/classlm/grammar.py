"""Hand-written context-free grammars and exhaustive sentence generation.

Grammar file format (UTF-8)::

    # comment
    start Request;
    Request -> Greeting Body | Body;
    Greeting -> "good morning" | "hello";
    Body -> "from" "CITY-NAME" "to" "CITY-NAME" | TimePhrase;

Quoted strings are terminals, bare names are nonterminals, alternatives
are separated by ``|``, every rule ends with ``;``, and exactly one
``start Name;`` declaration is required. A ``#`` outside quotes starts a
comment that runs to the end of the line. A terminal is split into tokens
like corpus text (:func:`classlm.vocab.tokenize`), so it stands for a
token sequence without ``.,;:!?``, and one without tokens is epsilon; a
token spelling ``<s>`` or ``</s>`` is rejected as in corpus text
(:func:`classlm.normalize.boundary_tag`). An empty alternative is also
allowed and derives no tokens, which is the usual way to mark an element
optional. In a parsed :class:`Grammar`, each alternative is a tuple whose
items are terminals, each its token tuple, and nonterminals, each its name.

Grammars are written over normalized-utterance tokens, i.e. class tags such
as ``CITY-NAME`` are terminals, so generated sentences compare directly with
NUs, and are written as a plain corpus (:func:`classlm.normalize.write_sentences`).
:mod:`classlm.generalize` reads each terminal through the lexicon before it
generates, so a class member written inside one terminal becomes its tag.
Recursion is allowed. Generation is depth-bounded, and ``classlm generate``
notes when the depth bound cut the expansion.
"""

from __future__ import annotations

import re
from collections.abc import Generator
from typing import NamedTuple

from .errors import GrammarError, open_text
from .normalize import NU, boundary_tag
from .normalize import write_sentences  # pinned by perfbench TARGETS; ROADMAP item 2 deletes it
from .vocab import tokenize

# items are terminals, each its token tuple, or nonterminal names (str)
Alternative = tuple[tuple[str, ...] | str, ...]
Expansion = tuple[list[NU], bool]  # distinct strings, whether a bound cut any


class Grammar(NamedTuple):
    start: str
    productions: dict[str, tuple[Alternative, ...]]


class SentenceSet:
    """Deduplicated terminal sequences, lexicographically sorted, and
    whether a generation bound cut any."""

    __slots__ = ("sentences", "truncated")

    def __init__(self, sentences: tuple[NU, ...], truncated: bool):
        self.sentences = sentences
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __eq__(self, other):
        if not isinstance(other, SentenceSet):
            return NotImplemented
        return (self.sentences, self.truncated) == (other.sentences, other.truncated)

    def __repr__(self) -> str:
        return f"SentenceSet({self.sentences!r}, truncated={self.truncated!r})"


_TOKEN_RE = re.compile(
    r'"(?P<quoted>[^"]*)"'
    r"|(?P<comment>#.*)"
    r"|(?P<arrow>->)"
    r"|(?P<pipe>\|)"
    r"|(?P<semi>;)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_\-']*)"
    r"|(?P<junk>\S)"
)


def _scan(text: str, source: str):
    """Yield (kind, value, lineno) tokens, dropping # comments; a ``#``
    inside a quoted terminal is text."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN_RE.finditer(line):
            kind = match.lastgroup
            if kind == "comment":
                break
            if kind == "junk":
                raise GrammarError(
                    f"{source}:{lineno}: unexpected character {match.group()!r}"
                )
            yield kind, match.group(kind) if kind == "quoted" else match.group(), lineno


def parse_grammar_text(text: str, source: str = "<string>") -> Grammar:
    productions: dict[str, list[Alternative]] = {}
    start: str | None = None
    statements: list[tuple[int, list]] = []
    current: list = []
    current_line = 1
    for kind, value, lineno in _scan(text, source):
        if not current:
            current_line = lineno
        if kind == "semi":
            statements.append((current_line, current))
            current = []
        else:
            current.append((kind, value, lineno))
    if current:
        raise GrammarError(f"{source}:{current_line}: statement missing ';'")

    for lineno, tokens in statements:
        if not tokens:
            continue
        kinds = [k for k, _, _ in tokens]
        if kinds[0] == "name" and tokens[0][1] == "start":
            if len(tokens) != 2 or kinds[1] != "name":
                raise GrammarError(f"{source}:{lineno}: expected 'start Name;'")
            if start is not None:
                raise GrammarError(f"{source}:{lineno}: duplicate start declaration")
            start = tokens[1][1]
            continue
        if len(tokens) < 2 or kinds[0] != "name" or kinds[1] != "arrow":
            raise GrammarError(f"{source}:{lineno}: expected 'Name -> ...;'")
        lhs = tokens[0][1]
        alts: list[Alternative] = []
        items: list = []
        for kind, value, ln in tokens[2:]:
            if kind == "pipe":
                alts.append(tuple(items))
                items = []
            elif kind == "quoted":
                words = tokenize(value)
                tag = boundary_tag(words)
                if tag is not None:
                    raise GrammarError(f"{source}:{ln}: reserved tag {tag} in a terminal")
                items.append(tuple(words))
            elif kind == "name":
                items.append(value)
            else:
                raise GrammarError(f"{source}:{ln}: unexpected '->'")
        alts.append(tuple(items))
        productions.setdefault(lhs, []).extend(alts)

    if start is None:
        raise GrammarError(f"{source}: missing 'start Name;' declaration")
    if start not in productions:
        raise GrammarError(f"{source}: start symbol {start} has no production")
    for lhs, alts in productions.items():
        for alt in alts:
            for item in alt:
                if isinstance(item, str) and item not in productions:
                    raise GrammarError(
                        f"{source}: undefined nonterminal {item} "
                        f"(referenced from {lhs})"
                    )
    return Grammar(start, {lhs: tuple(alts) for lhs, alts in productions.items()})


def parse_grammar(path) -> Grammar:
    with open_text(path, GrammarError) as fh:
        return parse_grammar_text(fh.read(), source=str(path))


# the generation bounds of the CLI and of build_generalized_lm unless given
_MAX_DEPTH = 12
_MAX_SENTENCES = 100000


def generate(grammar: Grammar, max_depth: int, max_sentences: int) -> SentenceSet:
    """All derivations up to max_depth, deduplicated and sorted.

    The truncated flag is set exactly when a bound pruned something: a
    nonterminal expansion past max_depth, or a distinct sentence beyond
    max_sentences. Past that bound, the sentences kept are the first
    max_sentences distinct ones in derivation order (leftmost alternative
    first, leftmost item varying slowest). So a truncated set of fewer than
    max_sentences was cut by the depth bound: an expansion comes back empty
    only from past max_depth, and one that fills its cap fills every
    expansion it is joined into.

    Without recursion, an explicit stack of :func:`_expand` frames expands
    each (nonterminal, depth) the derivation reaches once, and drops it when
    every nonterminal naming it is done one level up. Each list of distinct
    strings stops at ``max_sentences + 1``; that loses nothing, since with a
    fixed tail distinct heads give distinct strings and with a fixed head
    distinct tails do.
    """
    if max_depth < 1 or max_sentences < 1:
        raise GrammarError("generation bounds must be positive")
    cap = max_sentences + 1
    # the nonterminals that each nonterminal's alternatives name
    children = {name: {item for alt in alts for item in alt if isinstance(item, str)}
                for name, alts in grammar.productions.items()}
    parents: dict[str, set[str]] = {name: set() for name in children}
    for name, used in children.items():
        for child in used:
            parents[child].add(name)
    done: dict[tuple[str, int], Expansion] = {}
    stack = [(grammar.start, 1, _expand(grammar.productions[grammar.start], cap))]
    reply: Expansion | None = None
    while stack:
        name, depth, frame = stack[-1]
        try:
            item = frame.send(reply)
        except StopIteration as finished:
            reply = done[name, depth] = finished.value
            stack.pop()
            for child in children[name]:
                if all((parent, depth) in done for parent in parents[child]):
                    done.pop((child, depth + 1), None)
            continue
        reply = ([], True) if depth == max_depth else done.get((item, depth + 1))
        if reply is None:
            stack.append((item, depth + 1, _expand(grammar.productions[item], cap)))
    strings, truncated = reply
    return SentenceSet(tuple(sorted(strings[:max_sentences])), truncated)


def _expand(alts: tuple[Alternative, ...], cap: int) -> Generator[str, Expansion, Expansion]:
    """First ``cap`` distinct strings of ``alts``, and whether a bound cut any.

    Yields each nonterminal it reaches and is sent that nonterminal's
    expansion one level deeper. An alternative stops at its first empty item.
    """
    strings: dict[NU, None] = {}
    truncated = False
    for alt in alts:
        product: list[NU] = [()]
        for item in alt:
            if isinstance(item, tuple):
                product = [head + item for head in product]
                continue
            tails, cut = yield item
            truncated |= cut
            product = _concat(product, tails, cap)
            if not product:
                break
        strings.update(dict.fromkeys(product))
        if len(strings) >= cap:
            break
    strings_list = list(strings)[:cap]
    return strings_list, truncated or len(strings_list) == cap


def _concat(heads: list[NU], tails: list[NU], cap: int) -> list[NU]:
    """First ``cap`` distinct head + tail strings, heads varying slowest."""
    out: dict[NU, None] = {}
    for head in heads:
        for tail in tails:
            out[head + tail] = None
            if len(out) == cap:
                return list(out)
    return list(out)
