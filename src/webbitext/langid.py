"""Character n-gram language identification.

Used as the optional language-dependent filter behind the structural
evaluator: a modest amount of text known to be in each language of
interest trains one model per language, and a candidate side passes only
if its chunk text scores highest under the expected language's model.

Models are trigram by default with add-one smoothing over the observed
character alphabet plus a single unseen symbol, so each context's
distribution sums to one exactly.  Text is lowercased and whitespace runs
are collapsed before counting or scoring, and scoring starts from n-1
padding characters so the first real character is well defined.

Scoring reads log-probabilities from tables built once per model: for
each seen context, ``log((count + 1.0) / denom)`` per seen character and
one value ``log(1.0 / denom)`` for every other character, where
``denom`` is the context's total count plus the alphabet size plus one;
a context never seen in training scores ``log(1.0 / (len(alphabet) +
1))`` for any character.  These are the very floats that evaluating the
smoothed probability and its ``math.log`` per character would give, and
``log_prob_window`` adds them one by one in text order with ``+=`` (not
``sum()``, which on Python 3.12 compensates and rounds differently), so
each score is the same float as that direct evaluation, bit for bit.

Model files are JSON with a versioned header: ``format`` and ``version``
identify the layout, then ``language``, ``n``, ``alphabet`` (the observed
characters as one string), ``trained_chars``, and ``counts`` mapping each
(n-1)-character context to its next-character count table.  Counts are
integers, so a save/load round trip reproduces scores exactly.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

from .fetch import write_atomic

FORMAT_NAME = "webbitext-ngram"
FORMAT_VERSION = 1

PAD = "\n"  # never survives normalization, so it cannot collide with text

_WS_RE = re.compile(r"\s+")


def normalize(text):
    """Lowercase and collapse every whitespace run to a single space."""
    return _WS_RE.sub(" ", text.lower())


class NgramModel:
    """Per-language character n-gram model with add-one smoothing."""

    def __init__(self, language, n, counts, alphabet, trained_chars=0):
        self.language = language
        self.n = n
        self.counts = counts            # context -> Counter of next chars
        self.alphabet = set(alphabet)
        self.trained_chars = trained_chars
        denom_base = len(self.alphabet) + 1  # alphabet plus unseen symbol
        # context -> ({char: log P(char | context)}, log P of any other char)
        self._tables = {}
        for ctx, ctx_counts in counts.items():
            denom = sum(ctx_counts.values()) + denom_base
            self._tables[ctx] = (
                {ch: math.log((count + 1.0) / denom)
                 for ch, count in ctx_counts.items() if ch in self.alphabet},
                math.log(1.0 / denom))
        self._unseen_context = ({}, math.log(1.0 / denom_base))

    def log_prob_window(self, text, context):
        """Sum of log P over ``text`` continuing an explicit context.

        ``text`` is scored as-is (no normalization); ``context`` must be
        n-1 characters long.  Any char outside the alphabet is 'unseen'.
        """
        k = self.n - 1
        if len(context) != k:
            raise ValueError("context must be %d chars" % k)
        padded = context + text
        lookup = self._tables.get
        unseen_context = self._unseen_context
        total = 0.0
        for i, ch in enumerate(text):
            table, unseen = lookup(padded[i:i + k], unseen_context)
            total += table.get(ch, unseen)
        return total

    def log_prob(self, text):
        """Total log-likelihood of ``text`` after normalization."""
        return self.log_prob_window(normalize(text), PAD * (self.n - 1))

    def save(self, path):
        doc = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "language": self.language,
            "n": self.n,
            "alphabet": "".join(sorted(self.alphabet)),
            "trained_chars": self.trained_chars,
            "counts": {ctx: dict(sorted(c.items()))
                       for ctx, c in sorted(self.counts.items())},
        }
        write_atomic(path, json.dumps(doc, ensure_ascii=False,
                                      sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != FORMAT_NAME:
            raise ValueError("%s: not a %s model file" % (path, FORMAT_NAME))
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError("%s: unsupported model version %r"
                             % (path, doc.get("version")))
        counts = {ctx: Counter(c) for ctx, c in doc["counts"].items()}
        return cls(doc["language"], doc["n"], counts, set(doc["alphabet"]),
                   doc.get("trained_chars", 0))


def train(text, language, n=3):
    """Train an NgramModel of order ``n`` on a corpus of known language."""
    if n < 1:
        raise ValueError("n must be >= 1")
    normalized = normalize(text)
    if len(normalized) < n:
        raise ValueError("training text shorter than n=%d" % n)
    padded = PAD * (n - 1) + normalized
    counts = {}
    for i in range(n - 1, len(padded)):
        ctx = padded[i - n + 1:i]
        counts.setdefault(ctx, Counter())[padded[i]] += 1
    return NgramModel(language, n, counts, set(normalized), len(normalized))


def classify(text, models):
    """Best-scoring language for ``text`` plus all per-model scores.

    Ties break toward the earlier model in the list.
    """
    if not models:
        raise ValueError("need at least one model")
    if text == "":
        raise ValueError("cannot classify empty text")
    normalized = normalize(text)
    scores = {m.language: m.log_prob_window(normalized, PAD * (m.n - 1))
              for m in models}
    best = models[0].language
    for m in models[1:]:
        if scores[m.language] > scores[best]:
            best = m.language
    return best, scores


def language_filter(report, left_text, right_text, expected, models):
    """Confirm an accepted pair is actually in the expected languages.

    A side with no text cannot be confirmed and fails the filter.
    """
    if not report.accepted:
        raise ValueError("language filter applies to accepted pairs only")
    if not left_text.strip() or not right_text.strip():
        return False
    lang1, _ = classify(left_text, models)
    lang2, _ = classify(right_text, models)
    return (lang1, lang2) == tuple(expected)
