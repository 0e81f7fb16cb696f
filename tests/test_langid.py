"""Language identification: training, scoring, filtering, serialization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from webbitext import classify, evaluate_pair, language_filter, linearize, train
from webbitext.democorpus import sample_text
from webbitext.langid import PAD, NgramModel, normalize


class Oracle:
    """Reference scoring with no tables: one ``math.log`` of the smoothed
    probability per character.  ``NgramModel`` must match it bit for bit."""

    def __init__(self, model):
        self.n = model.n
        self.counts = model.counts
        self.alphabet = model.alphabet
        self._totals = {ctx: sum(c.values()) for ctx, c in model.counts.items()}
        self._denom_base = len(self.alphabet) + 1  # alphabet plus unseen symbol

    def prob(self, context, char):
        """P(char | context); any char outside the alphabet is 'unseen'."""
        ctx_counts = self.counts.get(context)
        total = self._totals.get(context, 0)
        denom = total + self._denom_base
        if char not in self.alphabet:
            return 1.0 / denom
        count = ctx_counts[char] if ctx_counts else 0
        return (count + 1.0) / denom

    def log_prob_window(self, text, context):
        """Sum of log P over ``text`` continuing an explicit context."""
        if len(context) != self.n - 1:
            raise ValueError("context must be %d chars" % (self.n - 1))
        total = 0.0
        window = context
        for ch in text:
            total += math.log(self.prob(window, ch))
            window = (window + ch)[-(self.n - 1):] if self.n > 1 else ""
        return total

    def log_prob(self, text):
        return self.log_prob_window(normalize(text), PAD * (self.n - 1))


@pytest.fixture(scope="module")
def en_model():
    return train(sample_text("en"), "en")


@pytest.fixture(scope="module")
def es_model():
    return train(sample_text("es"), "es")


def test_normalize_lowercases_and_collapses_whitespace():
    assert normalize("A  B\t\nC") == "a b c"


def test_single_symbol_corpus_maximizes_continuation():
    oracle = Oracle(train("aaaa", "L", n=2))
    candidates = {c: oracle.prob("a", c) for c in "abc xyz"}
    assert max(candidates, key=candidates.get) == "a"


def test_context_distributions_sum_to_one(en_model):
    oracle = Oracle(en_model)
    for ctx in list(en_model.counts)[:50]:
        total = sum(oracle.prob(ctx, c) for c in en_model.alphabet)
        total += oracle.prob(ctx, "☃")  # the unseen symbol
        assert total == pytest.approx(1.0, abs=1e-9)
    # unseen context is uniform and sums to one as well
    total = sum(oracle.prob("@@", c) for c in en_model.alphabet)
    total += oracle.prob("@@", "☃")
    assert total == pytest.approx(1.0, abs=1e-9)


def test_own_training_text_scores_higher_than_foreign_model(en_model, es_model):
    sample = sample_text("en")[:1000]
    assert en_model.log_prob(sample) > es_model.log_prob(sample)
    muestra = sample_text("es")[:1000]
    assert es_model.log_prob(muestra) > en_model.log_prob(muestra)


def test_classify_self(en_model, es_model):
    best, scores = classify(sample_text("en")[:400], [en_model, es_model])
    assert best == "en"
    assert scores["en"] > scores["es"]
    assert classify(sample_text("es")[:400], [en_model, es_model])[0] == "es"


def test_classify_errors():
    with pytest.raises(ValueError):
        classify("hello", [])
    model = train("some text here", "x")
    with pytest.raises(ValueError):
        classify("", [model])


def test_train_rejects_too_short_corpus():
    with pytest.raises(ValueError):
        train("ab", "x", n=3)


def test_held_out_snippet_accuracy(en_model, es_model):
    """At least 95% of 100 held-out 200-char snippets classify correctly."""
    correct = 0
    total = 0
    for lang, model_tag in (("en", "en"), ("es", "es")):
        text = normalize(sample_text(lang))
        held = text[len(text) // 2:]
        for k in range(50):
            start = (k * 131) % (len(held) - 200)
            snippet = held[start:start + 200]
            best, _ = classify(snippet, [en_model, es_model])
            correct += best == model_tag
            total += 1
    assert total == 100
    assert correct >= 95


def test_model_round_trip_is_lossless(tmp_path, en_model):
    path = tmp_path / "en.model"
    en_model.save(str(path))
    loaded = NgramModel.load(str(path))
    probe = "the children walked to the village in the morning"
    assert loaded.log_prob(probe) == en_model.log_prob(probe)
    both = sample_text("en") + sample_text("es")
    assert loaded.log_prob(both) == en_model.log_prob(both)
    assert loaded.language == "en" and loaded.n == 3
    assert loaded.alphabet == en_model.alphabet


def test_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        NgramModel.load(str(bad))


def test_score_additivity_with_window_overlap(en_model):
    s1 = normalize("the people of the village")
    s2 = normalize("kept a beautiful garden")
    pad = PAD * (en_model.n - 1)
    whole = en_model.log_prob_window(s1 + s2, pad)
    split = (en_model.log_prob_window(s1, pad)
             + en_model.log_prob_window(s2, (pad + s1)[-(en_model.n - 1):]))
    assert whole == pytest.approx(split, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdefgh ", min_size=0, max_size=40),
       st.text(alphabet="abcdefgh ", min_size=0, max_size=40))
def test_score_additivity_random_strings(en_model, s1, s2):
    pad = PAD * (en_model.n - 1)
    whole = en_model.log_prob_window(s1 + s2, pad)
    split = (en_model.log_prob_window(s1, pad)
             + en_model.log_prob_window(s2, (pad + s1)[-(en_model.n - 1):]))
    assert whole == pytest.approx(split, abs=1e-9)


def test_classify_deterministic_under_model_order(en_model, es_model):
    text = sample_text("en")[200:600]
    assert classify(text, [en_model, es_model])[0] == \
        classify(text, [es_model, en_model])[0]


def _accepted_report():
    left = linearize("<HTML>" + "".join(
        "<P>%s</P>" % ("w" * (20 + 11 * i)) for i in range(8)), "l")
    right = linearize("<HTML>" + "".join(
        "<P>%s</P>" % ("v" * (23 + 12 * i)) for i in range(8)), "r")
    report = evaluate_pair(left, right)
    assert report.accepted
    return report


def test_language_filter_pass_and_fail(en_model, es_model):
    report = _accepted_report()
    models = [en_model, es_model]
    en_text = "the children walked together to the village school"
    es_text = "los niños caminaban juntos hacia la escuela del pueblo"
    assert language_filter(report, en_text, es_text, ("en", "es"), models)
    assert not language_filter(report, en_text, en_text, ("en", "es"), models)
    assert not language_filter(report, "", es_text, ("en", "es"), models)
    assert not language_filter(report, en_text, "   ", ("en", "es"), models)


def test_language_filter_requires_accepted_report(en_model, es_model):
    report = evaluate_pair(linearize(""), linearize(""))
    with pytest.raises(ValueError):
        language_filter(report, "a", "b", ("en", "es"), [en_model, es_model])


def test_scores_equal_the_oracle_on_the_bundled_samples(en_model, es_model):
    models = [en_model, es_model]
    for lang in ("en", "es"):
        text = sample_text(lang)
        _, scores = classify(text, models)
        for model in models:
            assert scores[model.language] == Oracle(model).log_prob(text)
            assert model.log_prob(text) == Oracle(model).log_prob(text)


def test_scores_equal_the_oracle_outside_the_alphabet_and_context(en_model):
    oracle = Oracle(en_model)
    text = "naïve 日本語 ☃ qzx@@ \u00a0 café"
    assert "☃" not in en_model.alphabet
    assert "@@" not in en_model.counts and "☃☃" not in en_model.counts
    for context in ("\n\n", "@@", "☃☃", "th"):
        assert en_model.log_prob_window(text, context) == \
            oracle.log_prob_window(text, context)
    assert en_model.log_prob_window("", "@@") == 0.0
    assert en_model.log_prob(text) == oracle.log_prob(text)


@pytest.mark.parametrize("corpus, n", [
    (sample_text("es"), 1), (sample_text("es"), 2), (sample_text("es"), 3),
    (sample_text("es"), 4),
    ("abcdefbadcfe", 2),  # 7 = alphabet + 1, where -log(7) != log(1/7)
])
def test_every_table_entry_equals_the_oracle(corpus, n):
    model = train(corpus, "x", n=n)
    oracle = Oracle(model)
    chars = sorted(model.alphabet) + ["☃"]  # every seen char and an unseen one
    for context in list(model.counts) + ["☃" * (n - 1)]:
        for ch in chars:
            assert model.log_prob_window(ch, context) == \
                oracle.log_prob_window(ch, context)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_scores_equal_the_oracle_for_other_orders(n):
    model = train(sample_text("en")[:3000], "en", n=n)
    oracle = Oracle(model)
    for text in (sample_text("en")[3000:5000], sample_text("es")[:2000],
                 "日本語 ☃ x"):
        assert model.log_prob(text) == oracle.log_prob(text)
    with pytest.raises(ValueError):
        model.log_prob_window("abc", PAD * n)


@settings(max_examples=150, deadline=None)
@given(st.text(min_size=1, max_size=300)
       | st.text(alphabet="abcdeñóé hts\t\n☃", min_size=1, max_size=300))
def test_scores_equal_the_oracle_on_generated_text(en_model, es_model, text):
    _, scores = classify(text, [en_model, es_model])
    assert scores == {"en": Oracle(en_model).log_prob(text),
                      "es": Oracle(es_model).log_prob(text)}
