"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated: scorer percentages to
0.05 points at 3-decimal rounding, aligner costs to 1e-12 against an
exact-rational oracle, the t distribution to 1e-10 absolute and published
critical values to four decimals, throughput under 50 ms per pair, and
politeness gaps no smaller than the configured interval.
"""

import random
import time

import pytest

from webbitext import (FetchPolicy, Fetcher, GeneratorConfig, PageCache,
                       PipelineConfig, align, chunk_pairs, decide_lengths,
                       evaluate_pair, linearize, p_value,
                       pearson_r, run_pipeline, score, student_t_two_tailed)
from webbitext.align import GAP_LEFT, MATCH, PAIR
from webbitext.evaluate import (ACCEPT, REASON_MISMATCH,
                                REASON_NOT_SIGNIFICANT, REJECT)
from webbitext.linearize import KIND_CHUNK, LinearDocument, start_token

from conftest import StubServer, worked_example_docs
from test_align import doc, oracle_min_cost, random_tokens
from test_evaluate import (ACCEPT_P, ACCEPT_R, ACCEPT_X, ACCEPT_Y, REJECT_P,
                           REJECT_R, REJECT_X, REJECT_Y, pair_set)


def _report(criterion, message):
    print("\nACCEPTANCE %d: PASS - %s" % (criterion, message))


@pytest.fixture(scope="module")
def corpus_runs(demo_corpus, lang_models, tmp_path_factory):
    """Default and language-filtered pipeline runs over the bundled corpus."""
    hubs = [line.strip()
            for line in open(demo_corpus["hubs_file"], encoding="utf-8")
            if line.strip()]
    gen = GeneratorConfig(frozenset({"english"}),
                          frozenset({"spanish", "español"}))
    out1 = str(tmp_path_factory.mktemp("accept_default"))
    default = run_pipeline(PipelineConfig(generator=gen, out_dir=out1), hubs)
    out2 = str(tmp_path_factory.mktemp("accept_filtered"))
    filtered = run_pipeline(
        PipelineConfig(generator=gen, out_dir=out2, langid_filter=True,
                       langid_model_paths=tuple(lang_models),
                       expected_langs=("en", "es")), hubs)
    return default, filtered, out1


def test_criterion_1_scorer_reproduces_reported_arithmetic():
    records = [("p%02d" % i, i < 17) for i in range(90)]
    gold = {"p%02d" % i: (i < 15 or 17 <= i < 26) for i in range(90)}
    summary = score(records, gold)
    assert summary.true_positives == 15
    assert summary.accepted_count == 17
    assert summary.gold_positive_count == 24
    precision_pct = round(100 * summary.precision, 1)
    recall_pct = round(100 * summary.recall, 1)
    assert abs(precision_pct - 88.2) <= 0.05
    assert abs(recall_pct - 62.5) <= 0.05
    assert round(summary.precision, 3) == 0.882
    assert round(summary.recall, 3) == 0.625
    counterfactual = score([("p%02d" % i, i < 16) for i in range(90)], gold)
    assert counterfactual.true_positives == 15
    assert abs(round(100 * counterfactual.precision, 1) - 93.8) <= 0.05
    _report(1, "precision 15/17 = 88.2%, recall 15/24 = 62.5%, "
               "counterfactual 15/16 = 93.8%")


def test_criterion_2_worked_example_alignment_shape():
    en, fr = worked_example_docs()
    # Spanish-side title length is exactly 15; the English title gives 13
    # under the stated whitespace rule (the printed example said 12; the
    # rule wins and the deviation is documented).
    fr_title = [t for t in fr.tokens if t.kind == KIND_CHUNK][0]
    assert fr_title.length == 15
    en_title = [t for t in en.tokens if t.kind == KIND_CHUNK][0]
    assert en_title.length == 13
    alignment = align(en, fr)
    kinds = [op.kind for op in alignment.ops]
    assert kinds == [MATCH, MATCH, PAIR, MATCH, MATCH,
                     GAP_LEFT, GAP_LEFT, GAP_LEFT, PAIR]
    gapped = [en.tokens[op.left_index]
              for op in alignment.ops if op.kind == GAP_LEFT]
    assert [t.label or t.length for t in gapped] == ["H1", 13, "H1"]
    pairs = chunk_pairs(alignment, en, fr)
    assert pairs.xy() == [(13, 15), (112, 122)]
    _report(2, "H1 block gapped, title pair (13,15) [13 vs printed 12 "
               "documented], body pair (112,122)")


def test_criterion_3_decision_thresholds():
    # mismatch ratio 0.76 rejects before any correlation is computed
    shared = [start_token("Q%d" % i) for i in range(6)]
    left = LinearDocument(shared + [start_token("X%d" % i) for i in range(19)])
    right = LinearDocument(shared + [start_token("Y%d" % i) for i in range(19)])
    report = evaluate_pair(left, right)
    assert report.mismatch_ratio == pytest.approx(0.76)
    assert report.reject_reason == REASON_MISMATCH
    assert report.correlation is None

    verdict, _, corr = decide_lengths(pair_set(ACCEPT_X, ACCEPT_Y))
    assert verdict == ACCEPT
    assert corr.r == pytest.approx(ACCEPT_R, abs=1e-9)
    assert corr.p == pytest.approx(ACCEPT_P, abs=1e-10)
    assert corr.p < 0.001

    verdict, reason, corr = decide_lengths(pair_set(REJECT_X, REJECT_Y))
    assert (verdict, reason) == (REJECT, REASON_NOT_SIGNIFICANT)
    assert corr.r == pytest.approx(REJECT_R, abs=1e-9)
    assert corr.p == pytest.approx(REJECT_P, abs=1e-10)
    assert corr.p > 0.4
    _report(3, "0.76 mismatch rejected pre-correlation; r=.99,n=10 accepts "
               "(p<.001); r=.24,n=12 rejects (p>.4)")


def test_criterion_4_aligner_optimality_1000_random_pairs():
    rng = random.Random(424242)
    start = time.monotonic()
    agree = 0
    for _ in range(1000):
        left = random_tokens(rng, max_len=8, max_chunk=20)
        right = random_tokens(rng, max_len=8, max_chunk=20)
        got = align(doc(left), doc(right)).cost
        want = float(oracle_min_cost(left, right))
        assert got == pytest.approx(want, abs=1e-12)
        agree += 1
    elapsed = time.monotonic() - start
    assert agree == 1000
    assert elapsed < 30.0
    _report(4, "1000/1000 optimal vs exhaustive oracle in %.1fs" % elapsed)


def test_criterion_5_statistical_kernel():
    assert pearson_r([(1, 2), (2, 4), (3, 6)]) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r([(1, 6), (2, 4), (3, 2)]) == pytest.approx(-1.0, abs=1e-12)
    for n in (3, 10, 50, 100):
        assert p_value(0.0, n) == 1.0
    rs = [round(0.1 * k, 1) for k in range(1, 10)]
    violations = 0
    for n in range(4, 101):
        ps = [p_value(r, n) for r in rs]
        violations += sum(1 for a, b in zip(ps, ps[1:]) if b > a + 1e-12)
    for r in rs:
        ps = [p_value(r, n) for n in range(4, 101)]
        violations += sum(1 for a, b in zip(ps, ps[1:]) if b > a + 1e-12)
    assert violations == 0

    # published two-tailed p=.05 critical values, four decimal places
    published = {1: 12.7062, 2: 4.3027, 5: 2.5706, 10: 2.2281,
                 20: 2.0860, 30: 2.0423, 60: 2.0003, 120: 1.9799}
    for df, crit in published.items():
        lo, hi = 0.0, 1000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if student_t_two_tailed(mid, df) > 0.05:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - crit) < 5e-5
    _report(5, "exact-linear r = +/-1.0; p(0,n)=1; monotone grid clean; "
               "t criticals match tables to 4 decimals (df=10: 2.2281)")


def test_criterion_6_end_to_end_corpus(corpus_runs, demo_corpus):
    default, filtered, _ = corpus_runs
    counts = default["counts"]
    assert counts["generated"] == 30
    assert counts["accepted"] == 13
    accepted = {r["pair_id"] for r in default["pairs"]
                if r["disposition"] == "accepted"}
    assert accepted == set(demo_corpus["expected_accept_default"])

    fcounts = filtered["counts"]
    assert fcounts["accepted"] == 12
    assert fcounts["language_filtered"] == 1
    removed = [r["pair_id"] for r in filtered["pairs"]
               if r["disposition"] == "language_filtered"]
    assert removed == [demo_corpus["same_language_pair"]]
    still = {r["pair_id"] for r in filtered["pairs"]
             if r["disposition"] == "accepted"}
    assert still == accepted - {demo_corpus["same_language_pair"]}
    _report(6, "default run accepts exactly 12+1=13; language filter "
               "removes exactly the same-language false positive")


def test_criterion_7_throughput_under_50ms_per_pair(corpus_runs):
    default, _, out_dir = corpus_runs
    evaluated = [(r["url1"], r["url2"]) for r in default["pairs"]
                 if r["disposition"] in ("accepted", "rejected")]
    assert len(evaluated) == 24
    bodies = {}
    for url1, url2 in evaluated:
        for u in (url1, url2):
            if u not in bodies:
                with open(u, "rb") as fh:
                    bodies[u] = fh.read()
    start = time.perf_counter()
    for url1, url2 in evaluated:
        left = linearize(bodies[url1], url1)
        right = linearize(bodies[url2], url2)
        evaluate_pair(left, right)
    per_pair = (time.perf_counter() - start) / len(evaluated)
    assert per_pair < 0.050
    _report(7, "evaluation averaged %.1f ms/pair over %d pairs (< 50 ms)"
            % (per_pair * 1000, len(evaluated)))


def test_criterion_8_politeness_and_robots_compliance(tmp_path):
    server = StubServer()
    try:
        server.add_page("/robots.txt",
                        "User-agent: *\nDisallow: /private/\n", "text/plain")
        server.add_page("/private/secret.html", "<HTML><BODY>no</BODY></HTML>")
        for i in range(4):
            server.add_page("/page%d.html" % i,
                            "<HTML><BODY><P>p%d</P></BODY></HTML>" % i)
        base = server.base_url
        interval = 0.3
        fetcher = Fetcher(PageCache(str(tmp_path / "cache")),
                          FetchPolicy(min_interval=interval, timeout=5.0))
        denied = fetcher.fetch(base + "/private/secret.html")
        assert denied.status == "robots_denied"
        results = fetcher.fetch_many(
            [base + "/page%d.html" % i for i in range(4)], jobs=4)
        assert all(r.status == "ok" for r in results.values())

        requested = server.paths_requested()
        assert "/private/secret.html" not in requested
        assert requested.count("/robots.txt") == 1
        stamps = sorted(t for t, _ in server.request_log)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= interval for gap in gaps), gaps
        _report(8, "zero requests to robots-disallowed paths; %d inter-"
                   "request gaps all >= %.1fs" % (len(gaps), interval))
    finally:
        server.close()
