"""Independent naive references used to cross-check the fast paths.

The scorers re-derive probabilities by the textbook chain rule, recursively,
in the raw probability domain, reading only the model's stored tables. The
counter enumerates every padded window gram by gram, one utterance at a time.
The normalizer tries every member length at every token. The grammar
generator enumerates every derivation lazily. The corpus sampler passes raw
weights on every draw and splits each template as it fills it. The trainer
builds a Fraction for every unigram probability and backoff weight, and the
utterance scorer slices each position's backoff grams by index from a window
of the model's full order; both are the package's earlier kernels, the scorer
with the package's rule that a boundary tag never maps to ``<unk>``. The
generalization pipeline and the training-size sweep are composed from these
pieces alone, the obvious way: every count table in full, one merge and one
training per grid factor or prefix. The corpus studies (coverage, saturation,
overlap, unseen split) count with plain loops over the row lists, with no
histogram. The corpus reader parses one line at a time, splits it with a
regular expression of its own over the sentence punctuation and numbers its
errors as it counts the lines. The rest deliberately share no code with the
package's scoring loop, table internals, normalization shortcuts,
stack-driven generation or precomputed sampling tables.
"""

import math
import random
import re
from fractions import Fraction

from classlm.errors import CorpusError, GrammarError, ModelError
from classlm.grammar import SentenceSet
from classlm.lm import ClassNGramLM
from classlm.ngrams import Gram, NGramTable
from classlm.normalize import GROUPS
from classlm.synth import (
    FILLER_EXPONENT, FILLER_RATE, FILLERS, GROUP_SAMPLING, GROUP_TEMPLATES,
    NOISE_RATE, NOISE_UTTERANCES, SynthWorld, build_lexicon,
    grammar_text,
)
from classlm.vocab import RESERVED, SENT_END, SENT_START, UNK

LN10 = math.log(10.0)
# sentence punctuation, which corpus text drops
_PUNCTUATION = re.compile("[.,;:!?]")
BOUNDARY = (SENT_START, SENT_END)


def backoff_prob(model, context, word):
    """P(word | context) by the recursive backoff definition."""
    gram = tuple(context) + (word,)
    if gram in model.probs10:
        return 10.0 ** model.probs10[gram]
    if not context:
        raise KeyError(word)
    weight = 10.0 ** model.bows10[tuple(context)] if tuple(context) in model.bows10 else 1.0
    return weight * backoff_prob(model, tuple(context)[1:], word)


def nu_log_prob(model, nu, emission=False):
    """Natural-log probability of one NU, chain rule over padded positions."""
    mapped = tuple(t if t in model.vocab else UNK for t in nu)
    padded = (SENT_START,) * (model.order - 1) + mapped + (SENT_END,)
    total = 0.0
    for i in range(model.order - 1, len(padded)):
        context = padded[i - model.order + 1 : i]
        prob = backoff_prob(model, context, padded[i])
        if emission and padded[i] in model.class_sizes:
            prob *= 1.0 / model.class_sizes[padded[i]]
        total += math.log(prob)
    return total


def naive_train(table, lexicon):
    """Estimate a model from a closure-valid count table.

    Levels are built bottom-up so each conditional can interpolate with the
    already-smoothed lower level. Counts may be fractional (rescaled
    tables); type counts are always integers. Raises :class:`ModelError`
    when a context's count mass does not fit a float.
    """
    table.validate()
    unigram_counts = {g[0]: c for g, c in table if len(g) == 1 and c > 0}
    if not unigram_counts:
        raise ModelError("cannot train on an empty table")

    # injected grams can mention tokens that never occur as unigrams, so the
    # closed vocabulary collects tokens from every gram position
    table_tokens = {token for gram, _ in table for token in gram}
    vocab = sorted(table_tokens | set(lexicon.tags) | {SENT_START, SENT_END, UNK})
    raw: dict[Gram, float] = {}
    raw_bow: dict[Gram, float] = {}

    # unigram level: interpolate with the uniform distribution over vocab
    n_total = sum(unigram_counts.values())
    t_root = len(unigram_counts)
    p_uniform = Fraction(1, len(vocab))
    denom = n_total + t_root
    for word in vocab:
        count = unigram_counts.get(word, 0)
        raw[(word,)] = float((Fraction(count) + t_root * p_uniform) / denom)

    def lookup(context: Gram, word: str) -> float:
        acc = 1.0
        while context:
            prob = raw.get(context + (word,))
            if prob is not None:
                return acc * prob
            acc *= raw_bow.get(context, 1.0)
            context = context[1:]
        return acc * raw[(word,)]

    for k in range(2, table.order + 1):
        groups: dict[Gram, list[tuple[str, object]]] = {}
        for gram, count in table:
            if len(gram) == k and count > 0:
                groups.setdefault(gram[:-1], []).append((gram[-1], count))
        for context in sorted(groups):
            events = sorted(groups[context])
            mass = sum(count for _, count in events)
            types = len(events)
            try:
                scale = float(mass + types)
            except OverflowError as exc:
                raise ModelError(
                    f"counts of context {' '.join(context)!r} sum past the float range"
                ) from exc
            raw_bow[context] = float(Fraction(types) / (mass + types))
            for word, count in events:
                p_low = lookup(context[1:], word)
                raw[context + (word,)] = (float(count) + types * p_low) / scale

    probs10 = {gram: math.log10(p) for gram, p in raw.items()}
    bows10 = {context: math.log10(b) for context, b in raw_bow.items()}
    class_sizes = {tag: lexicon.class_size(tag) for tag in sorted(lexicon.tags)}
    return ClassNGramLM(table.order, probs10, bows10, class_sizes)


def naive_position_score(model, nu, j, emission):
    """log10 score of position ``j`` of ``nu``, ``len(nu)`` being the end tag.

    Tokens outside the vocabulary map to ``<unk>``, boundary tags never do.
    The window is of the model's full declared order, and each backoff gram
    is sliced from it by index. Raises :class:`KeyError` for a token without
    a unigram, which only a model lacking the ``<unk>`` unigram can reach.
    """
    vocab = model.vocab
    mapped = tuple(t if t in vocab or t in BOUNDARY else UNK for t in nu)
    order = model.order
    tokens = (SENT_START,) * (order - 1) + mapped + (SENT_END,)
    i = order - 1 + j
    acc = 0.0
    start = i - order + 1
    while True:
        gram = tokens[start : i + 1]
        prob = model.probs10.get(gram)
        if prob is not None:
            score = acc + prob
            break
        if start == i:
            # unigram miss; without this check start would pass i
            # and the empty slices after it would loop forever
            raise KeyError(tokens[i])
        bow = model.bows10.get(gram[:-1])
        if bow is not None:
            acc += bow
        start += 1
    if emission and model.class_sizes.get(tokens[i], 1) > 1:
        score += -math.log10(model.class_sizes[tokens[i]])
    return score


def naive_score_utterance(model, nu, emission):
    """(log10 total, scored token count, oov count) for one utterance: its
    position scores added in position order. The end tag is scored, the
    start padding is not; a boundary tag is not out of vocabulary."""
    nu = tuple(nu)
    total = 0.0
    for j in range(len(nu) + 1):
        total += naive_position_score(model, nu, j, emission)
    oov = sum(1 for t in nu if t not in model.vocab and t not in BOUNDARY)
    return total, len(nu) + 1, oov


def corpus_perplexity(model, corpus, emission=False):
    total = 0.0
    tokens = 0
    for nu in corpus:
        total += nu_log_prob(model, nu, emission)
        tokens += len(nu) + 1
    return math.exp(-total / tokens)


def context_prob_sum(model, context):
    """Sum of P(w | context) over the whole vocabulary, naive walk."""
    return sum(backoff_prob(model, context, word) for word in model.vocab)


def naive_extract(corpus, n):
    """gram -> count over every window of length 1..n of each padded NU."""
    counts = {}
    for nu in corpus:
        padded = [SENT_START] * (n - 1) + list(nu) + [SENT_END]
        for start in range(len(padded)):
            for length in range(1, n + 1):
                if start + length <= len(padded):
                    gram = tuple(padded[start : start + length])
                    counts[gram] = counts.get(gram, 0) + 1
    return counts


# id(lexicon) -> (lexicon, kept tokens, member words -> tag, longest member);
# the entry holds its lexicon, so the id is not reused while it is cached
_MEMBER_TABLES = {}


def naive_normalize(lexicon, utterance):
    """NU by greedy longest match, trying every member length at every token.

    Text is split at whitespace after each of ``.,;:!?`` becomes a space.
    Tags and reserved tags are kept, other tokens lowercased one by one; a
    run of tokens equal to a member split at ``_`` becomes the member's tag.
    The kept tokens and the member table are built from ``lexicon.classes``
    once per lexicon object.
    """
    if isinstance(utterance, str):
        for mark in ".,;:!?":
            utterance = utterance.replace(mark, " ")
        tokens = utterance.split()
    else:
        tokens = list(utterance)
    entry = _MEMBER_TABLES.get(id(lexicon))
    if entry is None:
        tag_of = {tuple(member.split("_")): tag
                  for tag, members in lexicon.classes.items() for member in members}
        entry = _MEMBER_TABLES[id(lexicon)] = (
            lexicon, set(lexicon.classes) | RESERVED, tag_of, max(map(len, tag_of), default=1))
    _, keep, tag_of, longest = entry
    tokens = [t if t in keep else t.lower() for t in tokens]
    out = []
    i = 0
    while i < len(tokens):
        if tokens[i] in keep:
            out.append(tokens[i])
            i += 1
            continue
        for length in range(min(longest, len(tokens) - i), 0, -1):
            tag = tag_of.get(tuple(tokens[i : i + length]))
            if tag is not None:
                out.append(tag)
                i += length
                break
        else:
            out.append(tokens[i])
            i += 1
    return tuple(out)


def naive_extension_sums(counts):
    """context -> total count of the grams that extend it by one token."""
    sums = {}
    for gram, count in counts.items():
        if len(gram) > 1:
            sums[gram[:-1]] = sums.get(gram[:-1], 0) + count
    return sums


def naive_merge(train_counts, grammar_counts, n, factor):
    """gram -> count of the generalized table, by the definition.

    Top-order grams: usual ones (also generated) are scaled by ``factor``,
    rare ones kept, unknown ones (only generated) get ``factor``. Every
    shorter gram is, recursively, the larger of its training count and the
    sum of its merged extensions.
    """
    top = {g: c for g, c in train_counts.items() if len(g) == n}
    for gram in top:
        if gram in grammar_counts:
            top[gram] = top[gram] * factor
    for gram in grammar_counts:
        if len(gram) == n and gram not in top:
            top[gram] = factor
    grams = set(train_counts) | set(top)
    grams |= {gram[:k] for gram in list(grams) for k in range(1, len(gram))}
    children = {}
    for gram in grams:
        if len(gram) > 1:
            children.setdefault(gram[:-1], []).append(gram)

    merged = {}

    def count(gram):
        if gram not in merged:
            if len(gram) == n:
                merged[gram] = top[gram]
            else:
                extensions = sum(count(child) for child in children.get(gram, []))
                merged[gram] = max(train_counts.get(gram, 0), extensions)
        return merged[gram]

    for gram in grams:
        count(gram)
    return merged


def naive_model(counts, n, lexicon):
    """``naive_train`` on closed gram -> count data, as the table it is.

    The counts are closed by their own definition, so the table constructor
    must store them as given: a constructor that repaired them further would
    otherwise go unseen here.
    """
    table = NGramTable(n, counts)
    assert dict(table) == counts
    return naive_train(table, lexicon)


def naive_read_corpus(path, labeled=False):
    """(group, text) rows of a corpus file, one per line whose text has a
    token; the group is ``""`` for plain corpora.

    Lines are read one at a time: a labeled line needs a tab after a group
    from :data:`GROUPS`, and a token spelling ``<s>`` or ``</s>`` in any case
    is an error naming the line by its number in the file.
    """
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            group, text = "", line
            if labeled and line.strip():
                if "\t" not in line:
                    raise CorpusError(f"{path}:{lineno}: expected 'group<TAB>utterance'")
                group, _, text = line.partition("\t")
                if group not in GROUPS:
                    raise CorpusError(f"{path}:{lineno}: unknown request group {group!r} "
                                      f"(expected one of {', '.join(GROUPS)})")
            tokens = _PUNCTUATION.sub(" ", text).split()
            for tag in (SENT_START, SENT_END):
                if any(token.lower() == tag for token in tokens):
                    raise CorpusError(f"{path}:{lineno}: reserved tag {tag} in the text")
            if tokens:
                rows.append((group, text.strip()))
    return rows


def nus_of(labeled):
    """The NUs of (group, NU) rows, in order."""
    return [nu for _, nu in labeled]


def naive_sweep(labeled_corpus, sizes, labeled_test, lexicon, n, emission=True):
    """The training-size sweep by its definition.

    One ``(size, {group: (pp, tokens, oov)})`` row per size: the counts of
    the first ``size`` training NUs, extracted whole and trained on, score
    each test group utterance by utterance.
    """
    groups = {}
    for group, nu in labeled_test:
        groups.setdefault(group, []).append(nu)
    rows = []
    for size in sizes:
        model = naive_model(naive_extract([nu for _, nu in labeled_corpus[:size]], n),
                            n, lexicon)
        rows.append((size, {
            group: (corpus_perplexity(model, nus, emission),
                    sum(len(nu) + 1 for nu in nus),
                    sum(token not in model.vocab for nu in nus for token in nu))
            for group, nus in sorted(groups.items())
        }))
    return rows


def naive_coverage(ranking_nus, measured_nus):
    """The coverage curve's (rank, fraction) points by counting with loops.

    NUs are ranked by their count in ``ranking_nus``, ties broken by the NU
    itself; each point is the share of ``measured_nus`` that equals one of
    the NUs ranked so far.
    """
    distinct = []
    for nu in ranking_nus:
        if nu not in distinct:
            distinct.append(nu)
    ranked = sorted(distinct, key=lambda nu: (-sum(1 for x in ranking_nus if x == nu), nu))
    points = []
    covered = 0
    for rank, nu in enumerate(ranked, start=1):
        covered += sum(1 for x in measured_nus if x == nu)
        points.append((rank, covered / len(measured_nus) if measured_nus else 0.0))
    return points


def naive_saturation(labeled_corpus, sizes, min_count):
    """Group -> number of the group's frequent NUs present in each prefix.

    A NU is frequent when it occurs more than ``min_count`` times in its
    group in the whole corpus; presence is checked row by row in the first
    ``size`` rows.
    """
    table = {}
    for group in sorted({group for group, _ in labeled_corpus}):
        group_nus = [nu for g, nu in labeled_corpus if g == group]
        frequent = [nu for nu in set(group_nus) if group_nus.count(nu) > min_count]
        table[group] = [
            sum(1 for nu in frequent if (group, nu) in labeled_corpus[:size])
            for size in sizes
        ]
    return table


def naive_overlap(labeled_train, labeled_test, threshold):
    """Group -> share of the group's distinct test NUs whose count among
    the group's training rows, over the number of those rows, exceeds
    ``threshold``."""
    overlap = {}
    for group in sorted({group for group, _ in labeled_test}):
        test_types = {nu for g, nu in labeled_test if g == group}
        group_train = [nu for g, nu in labeled_train if g == group]
        selected = [nu for nu in test_types
                    if group_train and group_train.count(nu) / len(group_train) > threshold]
        overlap[group] = len(selected) / len(test_types)
    return overlap


def naive_unseen(train_nus, test_nus):
    """(seen, unseen): the test NUs, in order, that do and do not occur in training."""
    seen = tuple(nu for nu in test_nus if nu in train_nus)
    unseen = tuple(nu for nu in test_nus if nu not in train_nus)
    return seen, unseen


def naive_generalize(train_nus, grammar, lexicon, n, grid, tuning_corpus, test_corpus,
                     max_depth, max_sentences, emission, mode):
    """The generalization experiment by its definition, as a dict.

    Keys: ``fields`` (event counts and the factor as the report writes
    them), ``factor`` (None in naive-sentences mode), ``curve`` ((factor, pp)
    pairs of the grid search), ``model``, ``baseline``, ``sentence_nus`` and
    ``perplexities`` (corpus label -> (baseline pp, generalized pp)).
    """
    # the grammar is written over NU tokens: each terminal stands for its NU
    terminal_nus = {name: tuple(tuple(item if isinstance(item, str)
                                      else naive_normalize(lexicon, item) for item in alt)
                                for alt in alts)
                    for name, alts in grammar.productions.items()}
    sentences = naive_generate(grammar._replace(productions=terminal_nus), max_depth,
                               max_sentences).sentences
    sentence_nus = [nu for nu in sentences if nu]
    train_counts = naive_extract(train_nus, n)
    grammar_counts = naive_extract(sentence_nus, n)
    train_top = {gram for gram in train_counts if len(gram) == n}
    grammar_top = {gram for gram in grammar_counts if len(gram) == n}

    def model_of(counts):
        return naive_model(counts, n, lexicon)

    baseline = model_of(train_counts)
    factor = None
    curve = []
    if mode == "naive-sentences":
        model = model_of(naive_extract(list(train_nus) + sentence_nus, n))
    else:
        best_pp = None
        for candidate in sorted({Fraction(f) for f in grid}):
            merged = model_of(naive_merge(train_counts, grammar_counts, n, candidate))
            pp = corpus_perplexity(merged, tuning_corpus, emission)
            curve.append((candidate, pp))
            if best_pp is None or pp < best_pp:
                factor, best_pp = candidate, pp
        model = model_of(naive_merge(train_counts, grammar_counts, n, factor))
    perplexities = {}
    for label, corpus in (("tuning", tuning_corpus), ("test", test_corpus),
                          ("grammar", sentence_nus)):
        if corpus:
            perplexities[label] = (corpus_perplexity(baseline, corpus, emission),
                                   corpus_perplexity(model, corpus, emission))
    return {
        "fields": {
            "used": len(train_top & grammar_top),
            "rare": len(train_top - grammar_top),
            "unknown": len(grammar_top - train_top),
            "balance_factor": "" if factor is None else str(factor),
        },
        "factor": factor,
        "curve": curve,
        "model": model,
        "baseline": baseline,
        "sentence_nus": sentence_nus,
        "perplexities": perplexities,
    }


def naive_generate(grammar, max_depth, max_sentences):
    """Every derivation up to max_depth, enumerated lazily one by one.

    Exponential in the grammar's ambiguity; only for small grammars.
    """
    if max_depth < 1 or max_sentences < 1:
        raise GrammarError("generation bounds must be positive")
    truncated = False

    def expand_nt(name, depth):
        nonlocal truncated
        if depth > max_depth:
            truncated = True
            return
        for alt in grammar.productions[name]:
            yield from expand_items(alt, depth)

    def expand_items(items, depth):
        if not items:
            yield ()
            return
        head, rest = items[0], items[1:]
        if isinstance(head, tuple):
            for tail in expand_items(rest, depth):
                yield head + tail
        else:
            for first in expand_nt(head, depth + 1):
                for tail in expand_items(rest, depth):
                    yield first + tail

    collected = set()
    for sentence in expand_nt(grammar.start, 1):
        if sentence in collected:
            continue
        if len(collected) >= max_sentences:
            truncated = True
            break
        collected.add(sentence)
    return SentenceSet(tuple(sorted(collected)), truncated)


def _zipf_weights(count, exponent):
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def naive_generate_world(size=5000, seed=7):
    """The seeded bundle drawn with ``weights=`` on every call, template by template."""
    rng = random.Random(seed)
    lexicon = build_lexicon()
    members = {tag: sorted(lexicon.classes[tag]) for tag in lexicon.classes}
    groups = list(GROUP_SAMPLING)
    g_weights = [weight for weight, _ in GROUP_SAMPLING.values()]
    t_weights = {
        g: _zipf_weights(len(GROUP_TEMPLATES[g]), exponent)
        for g, (_, exponent) in GROUP_SAMPLING.items()
    }
    f_weights = _zipf_weights(len(FILLERS), FILLER_EXPONENT)

    def fill(template: str) -> str:
        out = []
        for token in template.split():
            if token in members:
                out.append(rng.choice(members[token]).replace("_", " "))
            else:
                out.append(token)
        return " ".join(out)

    rows = []
    for _ in range(size):
        group = rng.choices(groups, weights=g_weights)[0]
        if rng.random() < NOISE_RATE:
            text = rng.choice(NOISE_UTTERANCES)
        else:
            template = rng.choices(
                GROUP_TEMPLATES[group], weights=t_weights[group]
            )[0]
            text = fill(template)
            if rng.random() < FILLER_RATE:
                filler = rng.choices(FILLERS, weights=f_weights)[0]
                text = f"{filler} {text}"
        rows.append((group, text))
    return SynthWorld(
        lexicon=lexicon,
        labeled_rows=rows,
        grammar_text=grammar_text(),
    )
