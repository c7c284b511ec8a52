"""Hand-written context-free grammars and exhaustive sentence generation.

Grammar file format (UTF-8)::

    # comment
    start Request;
    Request -> Greeting Body | Body;
    Greeting -> "good morning" | "hello";
    Body -> "from" "CITY-NAME" "to" "CITY-NAME" | TimePhrase;

Quoted strings are terminals (a quoted string with spaces stands for that
token sequence; an empty string is epsilon), bare names are nonterminals,
alternatives are separated by ``|``, every rule ends with ``;``, and exactly
one ``start Name;`` declaration is required. An empty alternative is also
allowed and derives no tokens, which is the usual way to mark an element
optional.

Grammars are written over normalized-utterance tokens, i.e. class tags such
as ``CITY-NAME`` are terminals, so generated sentences compare directly with
NUs. Recursion is allowed but flagged, and generation is depth-bounded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections.abc import Iterable

from .errors import GrammarError, open_text
from .normalize import NU


@dataclass(frozen=True)
class Terminal:
    tokens: tuple[str, ...]


Alternative = tuple[object, ...]  # items are Terminal or nonterminal name (str)


@dataclass(frozen=True)
class Grammar:
    start: str
    productions: dict[str, tuple[Alternative, ...]]
    recursive: frozenset[str] = field(default_factory=frozenset)

    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(self.productions)


@dataclass(frozen=True)
class SentenceSet:
    """Deduplicated terminal sequences, lexicographically sorted."""

    sentences: tuple[NU, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


_TOKEN_RE = re.compile(
    r'"(?P<quoted>[^"]*)"'
    r"|(?P<arrow>->)"
    r"|(?P<pipe>\|)"
    r"|(?P<semi>;)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_\-']*)"
    r"|(?P<junk>\S)"
)


def _scan(text: str, source: str):
    """Yield (kind, value, lineno) tokens, dropping # comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("#", 1)[0]
        for match in _TOKEN_RE.finditer(code):
            kind = match.lastgroup
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
                items.append(Terminal(tuple(value.split())))
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
    frozen = {lhs: tuple(alts) for lhs, alts in productions.items()}
    return Grammar(start=start, productions=frozen, recursive=_recursive_set(frozen))


def parse_grammar(path) -> Grammar:
    with open_text(path, GrammarError) as fh:
        return parse_grammar_text(fh.read(), source=str(path))


def _recursive_set(productions: dict[str, tuple[Alternative, ...]]) -> frozenset[str]:
    """Nonterminals that can reach themselves (flagged, not forbidden)."""
    edges: dict[str, set[str]] = {
        lhs: {item for alt in alts for item in alt if isinstance(item, str)}
        for lhs, alts in productions.items()
    }
    recursive = set()
    for origin in edges:
        seen: set[str] = set()
        stack = list(edges[origin])
        while stack:
            node = stack.pop()
            if node == origin:
                recursive.add(origin)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(edges.get(node, ()))
    return frozenset(recursive)


def generate(grammar: Grammar, max_depth: int, max_sentences: int) -> SentenceSet:
    """All derivations up to max_depth, deduplicated and sorted.

    The truncated flag is set exactly when a bound pruned something: a
    nonterminal expansion past max_depth, or a distinct sentence beyond
    max_sentences.
    """
    if max_depth < 1 or max_sentences < 1:
        raise GrammarError("generation bounds must be positive")
    truncated = False

    def expand_nt(name: str, depth: int):
        nonlocal truncated
        if depth > max_depth:
            truncated = True
            return
        for alt in grammar.productions[name]:
            yield from expand_items(alt, depth)

    def expand_items(items: Alternative, depth: int):
        if not items:
            yield ()
            return
        head, rest = items[0], items[1:]
        if isinstance(head, Terminal):
            for tail in expand_items(rest, depth):
                yield head.tokens + tail
        else:
            for first in expand_nt(head, depth + 1):
                for tail in expand_items(rest, depth):
                    yield first + tail

    collected: set[NU] = set()
    for sentence in expand_nt(grammar.start, 1):
        if sentence in collected:
            continue
        if len(collected) >= max_sentences:
            truncated = True
            break
        collected.add(sentence)
    return SentenceSet(tuple(sorted(collected)), truncated)


def nu_coverage(sentences, nus: Iterable[NU]) -> float:
    """Fraction of distinct NUs exactly matched by a generated sentence."""
    distinct = {tuple(nu) for nu in nus}
    if not distinct:
        return 1.0
    return len(distinct & {tuple(s) for s in sentences}) / len(distinct)


def write_sentences(path, sentences: SentenceSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            fh.write(" ".join(sentence) + "\n")
