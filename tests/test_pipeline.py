"""Pipeline orchestration: formats, scoring, accounting, determinism."""

import hashlib
import json
import os
from dataclasses import dataclass, field

import pytest

from webbitext import (CandidatePair, EvaluatorConfig, FetchPolicy,
                       GeneratorConfig, PipelineConfig, evaluate_pair,
                       linearize, load_gold, run_pipeline, score,
                       write_segments)
from webbitext.pipeline import (ConservationError, check_conservation,
                                read_candidates_tsv, score_report_files,
                                write_candidates_tsv)

from conftest import text_with_length


def corpus_config(demo_corpus, out_dir, **kwargs):
    return PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}),
                                  frozenset({"spanish", "español"})),
        out_dir=str(out_dir), **kwargs)


def read_hubs(demo_corpus):
    with open(demo_corpus["hubs_file"], encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


@pytest.fixture(scope="session")
def default_run(demo_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_default")
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}),
                                  frozenset({"spanish", "español"})),
        out_dir=str(out))
    with open(demo_corpus["hubs_file"], encoding="utf-8") as fh:
        hubs = [line.strip() for line in fh if line.strip()]
    manifest = run_pipeline(cfg, hubs)
    return manifest, str(out)


def test_score_reproduces_reported_arithmetic():
    # 90 evaluated pairs, 24 genuine, 17 accepted of which 15 correct
    records = [("p%02d" % i, i < 17) for i in range(90)]
    gold = {"p%02d" % i: (i < 15 or 17 <= i < 26) for i in range(90)}
    summary = score(records, gold)
    assert summary.true_positives == 15
    assert summary.accepted_count == 17
    assert summary.gold_positive_count == 24
    assert round(100 * summary.precision, 1) == 88.2
    assert round(100 * summary.recall, 1) == 62.5
    # counterfactual: perfect language filtering removes one false positive
    counter = score([("p%02d" % i, i < 16) for i in range(90)], gold)
    assert counter.accepted_count == 16 and counter.true_positives == 15
    assert round(100 * counter.precision, 1) == 93.8


def test_score_requires_gold_for_every_record():
    with pytest.raises(KeyError):
        score([("known", True), ("unknown", False)], {"known": True})


def test_score_accepts_gold_label_records():
    from webbitext import GoldLabel

    labels = [GoldLabel("a b", True), GoldLabel("c d", False)]
    summary = score([("a b", True), ("c d", True)], labels)
    assert summary.true_positives == 1 and summary.false_positives == 1


def test_score_degenerate_denominators():
    summary = score([("a", False)], {"a": False})
    assert summary.precision is None and summary.recall is None


def test_gold_tsv_round_trip(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("# comment\nu1 u2\t1\nu3 u4\t0\n", encoding="utf-8")
    assert load_gold(str(path)) == {"u1 u2": True, "u3 u4": False}


def test_candidates_tsv_round_trip(tmp_path):
    pairs = [CandidatePair("http://a/1", "http://a/2", "http://hub", 3),
             CandidatePair("/x", "/y", "/hub.html", None)]
    path = tmp_path / "cands.tsv"
    write_candidates_tsv(pairs, str(path))
    back = read_candidates_tsv(str(path))
    assert [(p.url1, p.url2, p.source_hub, p.line_distance) for p in back] == \
        [("http://a/1", "http://a/2", "http://hub", 3),
         ("/x", "/y", "/hub.html", None)]


def _accepted_report(left_title="Emergency Exit", right_title="Sortie de Secours"):
    lengths = [(28, 31), (47, 52), (66, 74), (85, 93), (104, 115),
               (123, 136), (142, 158), (161, 179), (180, 200)]
    left_html = "<HTML><TITLE>%s</TITLE><BODY>" % left_title
    right_html = "<HTML><TITLE>%s</TITLE><BODY>" % right_title
    for lx, ly in lengths:
        left_html += "<P>%s</P>" % text_with_length("", lx).strip()
        right_html += "<P>%s</P>" % text_with_length("", ly).strip()
    report = evaluate_pair(linearize(left_html, "http://x/en.html"),
                           linearize(right_html, "http://x/es.html"))
    assert report.accepted
    return report


def test_write_segments_first_record_is_the_title_pair(tmp_path):
    report = _accepted_report()
    path = tmp_path / "segments.tsv"
    write_segments(report, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    first = lines[0].split("\t")
    assert first[0] == "http://x/en.html"
    assert first[1] == "http://x/es.html"
    assert first[4] == "Emergency Exit"
    assert first[5] == "Sortie de Secours"
    assert int(first[2]) == 13 and int(first[3]) == 13  # title offsets


def test_write_segments_escapes_control_characters(tmp_path):
    report = _accepted_report(left_title="has\ttab", right_title="has\nnewline")
    path = tmp_path / "segments.tsv"
    write_segments(report, str(path))
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert "has\\ttab" in first and "has\\nnewline" in first
    assert first.count("\t") == 5  # exactly six fields


def test_write_segments_refuses_rejected_reports(tmp_path):
    report = evaluate_pair(linearize(""), linearize(""))
    with pytest.raises(ValueError):
        write_segments(report, str(tmp_path / "nope.tsv"))


def test_corpus_run_counts_and_conservation(default_run, demo_corpus):
    manifest, out = default_run
    counts = manifest["counts"]
    assert counts["generated"] == 30
    assert counts["generated"] == (counts["identical"] + counts["unretrievable"]
                                   + counts["non_html"] + counts["evaluated"])
    assert counts["evaluated"] == (counts["accepted"] + counts["rejected"]
                                   + counts["language_filtered"])
    assert counts["identical"] == 2
    assert counts["unretrievable"] == 3
    assert counts["non_html"] == 1
    assert counts["accepted"] == 13
    assert counts["errors"] == 0 and counts["hub_errors"] == 0


def test_corpus_run_accepts_exactly_the_parallel_fixtures(default_run, demo_corpus):
    manifest, _ = default_run
    accepted = {r["pair_id"] for r in manifest["pairs"]
                if r["disposition"] == "accepted"}
    assert accepted == set(demo_corpus["expected_accept_default"])


def test_output_files_exist_and_agree(default_run):
    manifest, out = default_run
    assert os.path.exists(os.path.join(out, "candidates.tsv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "run_info.json"))
    with open(os.path.join(out, "reports.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 30
    by_disp = {}
    for rec in records:
        by_disp[rec["disposition"]] = by_disp.get(rec["disposition"], 0) + 1
    assert by_disp["accepted"] == 13
    for rec in records:
        if rec["disposition"] == "accepted":
            seg = os.path.join(out, rec["segments_file"])
            assert os.path.exists(seg)
            assert len(open(seg, encoding="utf-8").read().splitlines()) == 10


def test_scoring_the_run_against_gold(default_run, demo_corpus):
    _, out = default_run
    summary = score_report_files(os.path.join(out, "reports.jsonl"),
                                 demo_corpus["gold_file"])
    # 13 accepted, 12 genuine: the same-language distractor is the one FP
    assert summary.accepted_count == 13
    assert summary.true_positives == 12
    assert summary.gold_positive_count == 12
    assert summary.precision == pytest.approx(12 / 13)
    assert summary.recall == pytest.approx(1.0)


def test_language_filter_removes_exactly_the_same_language_pair(
        demo_corpus, lang_models, tmp_path):
    cfg = corpus_config(demo_corpus, tmp_path / "out",
                        langid_filter=True,
                        langid_model_paths=tuple(lang_models),
                        expected_langs=("en", "es"))
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    counts = manifest["counts"]
    assert counts["accepted"] == 12
    assert counts["language_filtered"] == 1
    filtered = [r["pair_id"] for r in manifest["pairs"]
                if r["disposition"] == "language_filtered"]
    assert filtered == [demo_corpus["same_language_pair"]]
    assert counts["evaluated"] == (counts["accepted"] + counts["rejected"]
                                   + counts["language_filtered"])


def test_manifests_are_deterministic(demo_corpus, tmp_path):
    hubs = read_hubs(demo_corpus)
    cfg1 = corpus_config(demo_corpus, tmp_path / "one", jobs=4)
    cfg2 = corpus_config(demo_corpus, tmp_path / "two", jobs=4)
    run_pipeline(cfg1, hubs)
    run_pipeline(cfg2, hubs)
    m1 = open(tmp_path / "one" / "manifest.json", "rb").read()
    m2 = open(tmp_path / "two" / "manifest.json", "rb").read()
    assert m1 == m2
    r1 = open(tmp_path / "one" / "reports.jsonl", "rb").read()
    r2 = open(tmp_path / "two" / "reports.jsonl", "rb").read()
    assert r1 == r2


def test_unreadable_hub_is_recorded_not_fatal(tmp_path):
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}), frozenset({"spanish"})),
        out_dir=str(tmp_path / "out"))
    manifest = run_pipeline(cfg, [str(tmp_path / "no-such-hub.html")])
    assert manifest["counts"]["hub_errors"] == 1
    assert manifest["counts"]["generated"] == 0
    assert manifest["hub_errors"][0]["hub"].endswith("no-such-hub.html")


def test_empty_hub_list_gives_empty_manifest(tmp_path):
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}), frozenset({"spanish"})),
        out_dir=str(tmp_path / "empty_out"))
    manifest = run_pipeline(cfg, [])
    assert manifest["counts"]["generated"] == 0
    assert manifest["pairs"] == []


def test_score_is_a_recount_of_the_raw_files(default_run, demo_corpus):
    _, out = default_run
    summary = score_report_files(os.path.join(out, "reports.jsonl"),
                                 demo_corpus["gold_file"])
    gold = load_gold(demo_corpus["gold_file"])
    with open(os.path.join(out, "reports.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    evaluated = [r for r in records if r["disposition"] in
                 ("accepted", "rejected", "language_filtered")]
    tp = sum(1 for r in evaluated
             if r["disposition"] == "accepted" and gold[r["pair_id"]])
    accepted = sum(1 for r in evaluated if r["disposition"] == "accepted")
    positives = sum(1 for r in evaluated if gold[r["pair_id"]])
    assert (summary.true_positives, summary.accepted_count,
            summary.gold_positive_count) == (tp, accepted, positives)


def test_pipeline_config_validation(tmp_path):
    with pytest.raises(ValueError):
        PipelineConfig(
            generator=GeneratorConfig(frozenset({"a"}), frozenset({"b"})),
            out_dir=str(tmp_path), langid_filter=True)
    with pytest.raises(ValueError):
        PipelineConfig(
            generator=GeneratorConfig(frozenset({"a"}), frozenset({"b"})),
            out_dir=str(tmp_path), langid_filter=True,
            langid_model_paths=(str(tmp_path / "missing.model"),),
            expected_langs=("en", "es"))


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_worker_processes_write_the_same_outputs_as_one_process(
        demo_corpus, tmp_path):
    hubs = read_hubs(demo_corpus)
    manifests = {}
    for jobs in (1, 2):
        out = tmp_path / ("jobs%d" % jobs)
        manifests[jobs] = run_pipeline(
            corpus_config(demo_corpus, out, jobs=jobs), hubs)
    one, two = tmp_path / "jobs1", tmp_path / "jobs2"
    assert (one / "reports.jsonl").read_bytes() == \
        (two / "reports.jsonl").read_bytes()
    segments = _tree_bytes(one / "segments")
    assert len(segments) == 13
    assert segments == _tree_bytes(two / "segments")
    assert manifests[1]["config"].pop("jobs") == 1
    assert manifests[2]["config"].pop("jobs") == 2
    assert manifests[1] == manifests[2]


def test_exception_in_a_worker_fails_only_that_pair(default_run, demo_corpus,
                                                    tmp_path):
    baseline, _ = default_run
    url1 = demo_corpus["expected_accept_default"][0].split(" ")[0]
    with open(url1, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    # A directory where the page's cached body belongs: the fetch stores
    # nothing over it, and the worker that opens it raises.
    os.makedirs(tmp_path / "cache" / "objects" / digest[:2] / digest)
    cfg = corpus_config(demo_corpus, tmp_path / "out", jobs=2,
                        cache_dir=str(tmp_path / "cache"))
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    broken = [r for r in manifest["pairs"] if url1 in (r["url1"], r["url2"])]
    assert broken and all(r["disposition"] == "error" for r in broken)
    assert [e["pair_id"] for e in manifest["pair_errors"]] == \
        [r["pair_id"] for r in broken]
    assert "Is a directory" in manifest["pair_errors"][0]["error"]
    assert manifest["counts"]["errors"] == len(broken)
    unaffected = [r for r in baseline["pairs"]
                  if url1 not in (r["url1"], r["url2"])]
    assert [r for r in manifest["pairs"] if r not in broken] == unaffected


@dataclass
class _ExitInWorker(EvaluatorConfig):
    """Thresholds whose first read in any other process ends that process.

    The pool pickles the config into every job, so this reaches the
    workers whatever start method the pool uses.
    """

    owner_pid: int = field(default_factory=os.getpid)

    def __getattribute__(self, name):
        if name == "k" and os.getpid() != object.__getattribute__(self, "owner_pid"):
            os._exit(3)
        return object.__getattribute__(self, name)


def test_worker_that_dies_leaves_error_dispositions(default_run, demo_corpus,
                                                    tmp_path, capfd):
    baseline, _ = default_run
    cfg = corpus_config(demo_corpus, tmp_path / "out", jobs=2,
                        evaluator=_ExitInWorker())
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    assert "Traceback" not in capfd.readouterr().err
    counts = manifest["counts"]
    assert counts["errors"] == baseline["counts"]["evaluated"] == 24
    assert counts["evaluated"] == 0
    for before, after in zip(baseline["pairs"], manifest["pairs"]):
        if before["disposition"] in ("accepted", "rejected"):
            assert after["disposition"] == "error"
            assert after["reject_reason"].startswith("evaluation worker died")
        else:
            assert after == before
    assert len(manifest["pair_errors"]) == counts["errors"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_header_charset_reaches_the_decoder(stub_server, tmp_path, jobs):
    phrase = "日本語のテキストです"
    hubs = []
    for i in (1, 2):
        en = "<HTML><TITLE>Page %d</TITLE><BODY>" % i
        ja = "<HTML><TITLE>ページ %d</TITLE><BODY>" % i
        for k in range(1, 7):
            en += "<P>%s</P>" % text_with_length("", 11 * k + i)
            ja += "<P>%s</P>" % (phrase * k)
        stub_server.add_page("/en%d.html" % i, en)
        # The charset is in the header only; the page declares none.
        stub_server.add_page("/ja%d.html" % i, ja.encode("shift_jis"),
                             "text/html; charset=Shift_JIS")
        stub_server.add_page("/hub%d.html" % i,
                             '<A HREF="/en%d.html">English</A> '
                             '<A HREF="/ja%d.html">Japanese</A>' % (i, i))
        hubs.append(stub_server.base_url + "/hub%d.html" % i)
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}),
                                  frozenset({"japanese"})),
        fetch=FetchPolicy(min_interval=0.0, timeout=5.0),
        out_dir=str(tmp_path / "out"), jobs=jobs)
    manifest = run_pipeline(cfg, hubs)
    assert manifest["counts"]["accepted"] == 2
    for record in manifest["pairs"]:
        with open(tmp_path / "out" / record["segments_file"],
                  encoding="utf-8") as fh:
            first_paragraph = fh.read().splitlines()[1].split("\t")
        assert first_paragraph[5] == phrase and len(phrase) == 10


def test_conservation_check_raises_on_counts_that_do_not_add_up():
    counts = {"generated": 10, "identical": 1, "unretrievable": 2,
              "non_html": 1, "evaluated": 5, "errors": 1, "accepted": 3,
              "rejected": 1, "language_filtered": 1}
    check_conservation(counts)
    with pytest.raises(ConservationError, match="generated 11 != 10"):
        check_conservation(dict(counts, generated=11))
    with pytest.raises(ConservationError, match="evaluated 5 != 6"):
        check_conservation(dict(counts, accepted=4))
