"""Seeded synthetic corpus for a railway-timetable style dialogue domain.

Everything needed to exercise the pipeline at desk scale: a class lexicon
(city names dominate the vocabulary, as in real timetable tasks), labeled
utterances for three request groups plus Other, and a hand-written grammar
over the same phrase inventory.

The groups differ deliberately in expression variety: City and Date draw
from small template lists with skewed (Zipf-like) choice, so their distinct
NUs saturate early, while Time utterances are composed from a
part-of-day / specifier / hour-identifier cross product sampled with a flat
exponent, so new Time NUs keep appearing as the corpus grows. A small pool
of free-form "noise" utterances (outside the grammar) provides singleton
NUs and out-of-vocabulary material.

All randomness flows from one seed; the same size and seed always produce the
same corpus bytes. Every weight table is accumulated once per run, and each
weighted draw is one bisect of ``random() * total`` over the accumulated
weights, the computation ``choices(cum_weights=...)`` performs. It consumes
the same ``random()`` values and bisects the same float sums as passing
``weights=`` on each draw, so any seed gives the same bytes as that per-draw
form (kept in ``tests/oracle.py:naive_generate_world``).

Each template is filled from a plan built once per run: the fixed text
before each member slot, the slot's pool with its size ``n`` and bit length
``k``, and the trailing text. A row draws every slot as ``Random.choice``
does in CPython 3.10 to 3.13 (``r = getrandbits(k)``, drawn again while
``r >= n``) and concatenates the pieces, so it makes the same ``random()``
and ``getrandbits()`` calls in the same order as a ``choice(pool)`` per slot
and a join over the template's tokens. The oracle and seed-7 digest tests
hold it to that rule on every Python version the tests run on.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import NamedTuple

from .vocab import ClassLexicon

# -- lexicon ------------------------------------------------------------------

_CITY_ONSETS = (
    "bel", "mon", "ter", "val", "cor", "san", "pra", "lu", "ver", "tre",
    "por", "cas", "mar", "ros", "fio", "gra", "bre", "tor", "pe", "alba",
    "orvi", "cala", "forte", "bagna", "monte", "campo", "riva", "sesto",
    "lame", "vico",
)
_CITY_CODAS = (
    "ano", "ino", "etta", "ona", "aro", "ella", "orno", "ate", "isi", "ole",
    "enza", "ero", "ura", "emo", "aggio", "ucci", "olo", "ara", "iglia",
    "anto", "adia", "ghera", "vento", "asca", "erno", "ieri", "otto", "alda",
    "igo", "ecchia", "azzo", "andra", "ussi", "engo", "arda", "obbio",
    "irano", "eglia", "overe", "anico",
)
_MULTIWORD_CITIES = (
    "porta_nova", "villa_rosa", "monte_bianco", "castel_alto", "riva_del_sole",
    "borgo_vecchio", "santa_chiara", "piano_verde", "colle_duro", "ponte_lungo",
)

_WEEK_DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
_MONTHS = (
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
)
_HOURS = (
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
    "seventeen", "eighteen", "nineteen", "twenty", "twentyone", "twentytwo",
    "twentythree", "twentyfour",
)
_DAY_ORDINALS = (
    "first", "second", "third", "fourth", "fifth", "sixth", "seventh",
    "eighth", "ninth", "tenth", "eleventh", "twelfth", "thirteenth",
    "fourteenth", "fifteenth", "sixteenth", "seventeenth", "eighteenth",
    "nineteenth", "twentieth", "twentyfirst", "twentysecond", "twentythird",
    "twentyfourth", "twentyfifth", "twentysixth", "twentyseventh",
    "twentyeighth", "twentyninth", "thirtieth", "thirtyfirst",
)


def build_lexicon() -> ClassLexicon:
    # the city class dwarfs the rest of the vocabulary, like real timetable
    # tasks; ~3000 members keep word-level perplexity highest for City requests
    single = sorted(
        {onset + coda for onset in _CITY_ONSETS for coda in _CITY_CODAS}
        | {
            onset + mid + coda
            for onset in _CITY_ONSETS
            for mid in ("li", "ra", "no")
            for coda in _CITY_CODAS
        }
    )
    cities = sorted(set(single[:2990]) | set(_MULTIWORD_CITIES))
    return ClassLexicon(
        {
            "CITY-NAME": cities,
            "WEEK-DAY": _WEEK_DAYS,
            "MONTH-NAME": _MONTHS,
            "HOUR-NUMBER": _HOURS,
            "DAY-NUMBER": _DAY_ORDINALS,
        }
    )


# -- utterance templates (over NU tokens; tags are filled with members) -------

FILLERS = ("yes", "well", "ehm", "hello", "good morning")

CITY_TEMPLATES = (
    "from CITY-NAME to CITY-NAME",
    "i want to go from CITY-NAME to CITY-NAME",
    "i would like to leave from CITY-NAME to CITY-NAME",
    "a ticket from CITY-NAME to CITY-NAME please",
    "i leave from CITY-NAME",
    "i want to go to CITY-NAME",
    "from CITY-NAME",
    "to CITY-NAME",
    "departure from CITY-NAME arrival in CITY-NAME",
    "i need to travel from CITY-NAME to CITY-NAME",
    "from CITY-NAME to CITY-NAME WEEK-DAY",
    "from CITY-NAME to CITY-NAME WEEK-DAY in the morning",
    "i want to go from CITY-NAME to CITY-NAME the DAY-NUMBER of MONTH-NAME",
    "from CITY-NAME to CITY-NAME at HOUR-NUMBER",
    "i want to leave from CITY-NAME to CITY-NAME WEEK-DAY at HOUR-NUMBER",
    "the first train from CITY-NAME to CITY-NAME",
)

DATE_TEMPLATES = (
    "WEEK-DAY",
    "on WEEK-DAY",
    "next WEEK-DAY",
    "tomorrow",
    "tomorrow morning",
    "today",
    "this evening",
    "the DAY-NUMBER of MONTH-NAME",
    "on the DAY-NUMBER of MONTH-NAME",
    "WEEK-DAY the DAY-NUMBER of MONTH-NAME",
    "MONTH-NAME the DAY-NUMBER",
    "the DAY-NUMBER",
    "i leave on WEEK-DAY",
    "i want to leave tomorrow",
    "i want to leave on WEEK-DAY",
)

TIME_PARTS = ("in the morning", "in the afternoon", "in the evening", "at night")
TIME_SPECIFIERS = ("before", "after", "around", "not earlier than", "not later than")
TIME_IDENTIFIERS = (
    "HOUR-NUMBER",
    "HOUR-NUMBER o'clock",
    "half past HOUR-NUMBER",
    "a quarter past HOUR-NUMBER",
    "a quarter to HOUR-NUMBER",
    "twenty minutes past HOUR-NUMBER",
    "twenty minutes to HOUR-NUMBER",
    "HOUR-NUMBER thirty",
)
TIME_TAILS = (
    "at the latest",
    "more or less",
    "if possible",
    "or so",
)

# free-form material the grammar deliberately does not model
NOISE_UTTERANCES = (
    "can you repeat that please",
    "i did not understand",
    "what",
    "sorry",
    "sorry i was wrong",
    "i missed my train",
    "is there a restaurant car",
    "how much does it cost",
    "i am calling about my booking",
    "does it stop everywhere",
    "my phone is breaking up",
    "wait a moment",
    "one moment please",
    "i said that already",
    "no that is wrong",
    "can i speak with an operator",
    "which platform is it",
    "is a sleeping berth available",
    "do you have student discounts",
    "the connection is very bad",
    "i lost my suitcase on the train",
    "never mind",
    "that is all",
    "hold on my friend is asking something",
    "i am not sure yet",
    "let me check my calendar",
    "my wife is travelling with me",
    "we are four people and a dog",
    "is the train usually on time",
    "do i have to change trains",
    "can i take my bicycle",
    "i already have a reservation",
    "the last train was cancelled",
    "where do i pick up the tickets",
    "i am in a hurry",
    "it does not matter",
    "whichever is cheaper",
    "the fast one please",
    "i will call back later",
    "you already told me that",
)


def time_templates() -> tuple[str, ...]:
    """The compositional Time inventory, common shapes first.

    Time expressions vary far more than City or Date requests: part-of-day,
    specifier, hour identifier, and trailing hedge compose into well over a
    thousand distinct NU shapes.
    """
    base = list(TIME_IDENTIFIERS)
    base.extend(TIME_PARTS)
    for part in ("",) + TIME_PARTS:
        for specifier in ("",) + TIME_SPECIFIERS:
            if not part and not specifier:
                continue
            for ident in TIME_IDENTIFIERS:
                base.append(" ".join(p for p in (part, specifier, ident) if p))
    combos = list(base)
    for tail in TIME_TAILS:
        combos.extend(f"{shape} {tail}" for shape in base)
    return tuple(combos)


GROUP_TEMPLATES = {
    "City": CITY_TEMPLATES,
    "Date": DATE_TEMPLATES,
    "Time": time_templates(),
}


# -- grammar ------------------------------------------------------------------


def grammar_text() -> str:
    """Hand-style grammar covering the template inventory (noise excluded)."""

    def alts(templates) -> str:
        return " | ".join(f'"{t}"' for t in templates)

    lines = [
        "# railway-enquiry grammar over normalized-utterance tokens",
        "start Request;",
        "Request -> Filler Body | Body;",
        f"Filler -> {alts(FILLERS)};",
        "Body -> CityRequest | DateRequest | TimeRequest;",
        f"CityRequest -> {alts(CITY_TEMPLATES)};",
        f"DateRequest -> {alts(DATE_TEMPLATES)};",
        "TimeRequest -> TimeCore | TimeCore TimeTail;",
        "TimeCore -> TimeIdentifier | PartOfDay | PartOfDay TimeIdentifier",
        "  | TimeSpecifier TimeIdentifier | PartOfDay TimeSpecifier TimeIdentifier;",
        f"PartOfDay -> {alts(TIME_PARTS)};",
        f"TimeSpecifier -> {alts(TIME_SPECIFIERS)};",
        f"TimeIdentifier -> {alts(TIME_IDENTIFIERS)};",
        f"TimeTail -> {alts(TIME_TAILS)};",
    ]
    return "\n".join(lines) + "\n"


# -- corpus sampling -----------------------------------------------------------


TRAIN_FRAC = 0.8
TUNE_FRAC = 0.1
# group -> (sampling weight, Zipf exponent of its template choice); the order
# City, Date, Time is the order the seeded draws see. A smaller exponent means
# a flatter template choice, so higher NU variety.
GROUP_SAMPLING = {"City": (0.45, 1.45), "Date": (0.25, 1.8), "Time": (0.30, 0.8)}
FILLER_RATE = 0.06
FILLER_EXPONENT = 2.0
NOISE_RATE = 0.02


class SynthWorld(NamedTuple):
    lexicon: ClassLexicon
    labeled_rows: list[tuple[str, str]]
    grammar_text: str

    def splits(self) -> tuple[list, list, list]:
        """(train, tune, test) rows; prefixes preserve acquisition order."""
        n_train = int(len(self.labeled_rows) * TRAIN_FRAC)
        n_tune = int(len(self.labeled_rows) * TUNE_FRAC)
        return (
            self.labeled_rows[:n_train],
            self.labeled_rows[n_train : n_train + n_tune],
            self.labeled_rows[n_train + n_tune :],
        )


def _zipf_weights(count: int, exponent: float) -> list[float]:
    """Cumulative Zipf weights of ranks 1..count."""
    return list(accumulate(1.0 / (rank**exponent) for rank in range(1, count + 1)))


def _fill_plan(template: str, members: dict[str, list[str]]) -> tuple[list, str]:
    """A template as ([(text before, pool, len(pool), its bit length)] per
    member slot, trailing text); the fixed texts keep their joining spaces."""
    slots, text = [], ""
    for i, token in enumerate(template.split()):
        space = " " if i else ""
        pool = members.get(token)
        if pool is None:
            text += space + token
        else:
            slots.append((text + space, pool, len(pool), len(pool).bit_length()))
            text = ""
    return slots, text


def generate_world(size: int = 5000, seed: int = 7) -> SynthWorld:
    rng = random.Random(seed)
    lexicon = build_lexicon()
    # "_" spelled as a space up front; each draw still indexes the sorted list
    members = {
        tag: [member.replace("_", " ") for member in sorted(lexicon.classes[tag])]
        for tag in lexicon.classes
    }
    groups = list(GROUP_SAMPLING)
    g_weights = list(accumulate(weight for weight, _ in GROUP_SAMPLING.values()))
    t_weights = {
        g: _zipf_weights(len(GROUP_TEMPLATES[g]), exponent)
        for g, (_, exponent) in GROUP_SAMPLING.items()
    }
    f_weights = _zipf_weights(len(FILLERS), FILLER_EXPONENT)

    # a weighted draw is population[bisect(weights, rand() * total, 0, hi)],
    # the body of choices(cum_weights=...), with total and hi taken once
    g_total, g_hi = g_weights[-1] + 0.0, len(groups) - 1
    t_tables = {
        g: (
            [_fill_plan(template, members) for template in GROUP_TEMPLATES[g]],
            t_weights[g],
            t_weights[g][-1] + 0.0,
            len(GROUP_TEMPLATES[g]) - 1,
        )
        for g in groups
    }
    f_total, f_hi = f_weights[-1] + 0.0, len(FILLERS) - 1

    rand = rng.random
    getrandbits = rng.getrandbits
    rows = []
    for _ in range(size):
        group = groups[bisect(g_weights, rand() * g_total, 0, g_hi)]
        if rand() < NOISE_RATE:
            text = rng.choice(NOISE_UTTERANCES)
        else:
            plans, weights, total, hi = t_tables[group]
            slots, tail = plans[bisect(weights, rand() * total, 0, hi)]
            text = ""
            for before, pool, n, k in slots:
                # the member draw of Random.choice(pool)
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                text += before + pool[r]
            text += tail
            if rand() < FILLER_RATE:
                filler = FILLERS[bisect(f_weights, rand() * f_total, 0, f_hi)]
                text = f"{filler} {text}"
        rows.append((group, text))
    return SynthWorld(
        lexicon=lexicon,
        labeled_rows=rows,
        grammar_text=grammar_text(),
    )
