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
Recursion is allowed. Only a cut by the depth bound empties an expansion,
and a list that fills the sentence cap fills every list it is joined into
unless a later item is empty, so :func:`generate` records the depth cut once.
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


class Grammar(NamedTuple):
    start: str
    productions: dict[str, tuple[Alternative, ...]]


class SentenceSet:
    """Deduplicated terminal sequences, lexicographically sorted, whether a
    bound cut any, and whether the depth bound did (left out of ``==``)."""

    __slots__ = ("sentences", "truncated", "depth_cut")

    def __init__(self, sentences: tuple[NU, ...], truncated: bool, depth_cut: bool = False):
        self.sentences = sentences
        self.truncated = truncated
        self.depth_cut = depth_cut

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __eq__(self, other):
        if not isinstance(other, SentenceSet):
            return NotImplemented
        return (self.sentences, self.truncated) == (other.sentences, other.truncated)

    def __repr__(self) -> str:
        return f"SentenceSet({self.sentences!r}, {self.truncated!r}, {self.depth_cut!r})"


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
    first, leftmost item varying slowest). depth_cut is set exactly when
    generation reached an expansion past max_depth, even if the cap also
    cut. That one record and the root's list give truncated: only a depth
    cut empties an expansion, and one that fills its cap fills every
    expansion it is joined into unless a later item comes back empty.

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
    done: dict[tuple[str, int], list[NU]] = {}
    stack = [(grammar.start, 1, _expand(grammar.productions[grammar.start], cap))]
    reply: list[NU] | None = None
    depth_cut = False
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
        depth_cut |= depth == max_depth
        reply = [] if depth == max_depth else done.get((item, depth + 1))
        if reply is None:
            stack.append((item, depth + 1, _expand(grammar.productions[item], cap)))
    return SentenceSet(tuple(sorted(reply[:max_sentences])),
                       depth_cut or len(reply) > max_sentences, depth_cut)


def _expand(alts: tuple[Alternative, ...], cap: int) -> Generator[str, list[NU], list[NU]]:
    """First ``cap`` distinct strings of ``alts``.

    Yields each nonterminal it reaches and is sent that nonterminal's
    expansion one level deeper. An alternative stops at its first empty item.
    """
    strings: dict[NU, None] = {}
    for alt in alts:
        product: list[NU] = [()]
        for item in alt:
            if isinstance(item, tuple):
                product = [head + item for head in product]
                continue
            product = _concat(product, (yield item), cap)
            if not product:
                break
        strings.update(dict.fromkeys(product))
        if len(strings) >= cap:
            break
    return list(strings)[:cap]


def _concat(heads: list[NU], tails: list[NU], cap: int) -> list[NU]:
    """First ``cap`` distinct head + tail strings, heads varying slowest."""
    out: dict[NU, None] = {}
    for head in heads:
        for tail in tails:
            out[head + tail] = None
            if len(out) == cap:
                return list(out)
    return list(out)
