"""Independent naive references used to cross-check the fast paths.

The scorers re-derive probabilities by the textbook chain rule, recursively,
in the raw probability domain, reading only the model's stored tables. The
counter enumerates every padded window gram by gram. They deliberately share
no code with the package's scoring loop or table internals.
"""

import math

from classlm.vocab import SENT_END, SENT_START, UNK

LN10 = math.log(10.0)


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


def naive_extension_sums(counts):
    """context -> total count of the grams that extend it by one token."""
    sums = {}
    for gram, count in counts.items():
        if len(gram) > 1:
            sums[gram[:-1]] = sums.get(gram[:-1], 0) + count
    return sums
