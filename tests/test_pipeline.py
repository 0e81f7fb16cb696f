"""Pipeline orchestration: formats, scoring, accounting, determinism."""

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import pytest

import webbitext
from webbitext import (CandidatePair, EvaluatorConfig, FetchPolicy, Fetcher,
                       GeneratorConfig, PageCache, PipelineConfig, candidates,
                       evaluate_pair, extract_candidates, fetch, linearize,
                       load_gold, pipeline, run_pipeline, score, segments_text)
from webbitext.democorpus import build_corpus
from webbitext.pipeline import (EVALUATED, ConservationError,
                                check_conservation, generate_candidates,
                                read_candidates_tsv, score_report_files,
                                write_candidates_tsv)

from conftest import (EN_JA, JA_PHRASE, serve_english_japanese,
                      serve_shift_jis_hub, text_with_length, tree_bytes)


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


def test_candidates_tsv_reader_skips_comments_and_one_column_lines(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text("# url1\turl2\n/only-one\n\n/a\t/b\n", encoding="utf-8")
    assert read_candidates_tsv(str(path)) == [CandidatePair("/a", "/b", "", None)]


def test_hrefs_with_tabs_and_line_breaks_round_trip_through_candidates_tsv(
        tmp_path):
    hub = ('<A HREF=" http://h/en&#9;x.html ">English</A>\n'
           '<A HREF="http://h/es\r\nx.html">Spanish</A>\n'
           '<A HREF=" &#13;&#10; ">Spanish</A>\n')
    pairs = extract_candidates(hub, "http://h/hub.html", GeneratorConfig(
        frozenset({"english"}), frozenset({"spanish"})))
    assert [(p.url1, p.url2) for p in pairs] == \
        [("http://h/enx.html", "http://h/esx.html")]
    path = tmp_path / "cands.tsv"
    write_candidates_tsv(pairs, str(path))
    assert read_candidates_tsv(str(path)) == pairs


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


def test_write_segments_first_record_is_the_title_pair():
    report = _accepted_report()
    lines = segments_text(report).splitlines()
    assert len(lines) == 10
    first = lines[0].split("\t")
    assert first[0] == "http://x/en.html"
    assert first[1] == "http://x/es.html"
    assert first[4] == "Emergency Exit"
    assert first[5] == "Sortie de Secours"
    assert int(first[2]) == 13 and int(first[3]) == 13  # title offsets


def test_write_segments_escapes_control_characters():
    report = _accepted_report(left_title="has\ttab", right_title="has\nnewline")
    first = segments_text(report).splitlines()[0]
    assert "has\\ttab" in first and "has\\nnewline" in first
    assert first.count("\t") == 5  # exactly six fields


def test_write_segments_refuses_rejected_reports():
    report = evaluate_pair(linearize(""), linearize(""))
    with pytest.raises(ValueError):
        segments_text(report)


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
            assert len(pathlib.Path(seg).read_text(encoding="utf-8").splitlines()) == 10


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


def test_language_filter_in_worker_processes_writes_the_same_outputs(
        demo_corpus, lang_models, tmp_path):
    hubs = read_hubs(demo_corpus)
    manifests = {}
    for jobs in (1, 2):
        manifests[jobs] = run_pipeline(corpus_config(
            demo_corpus, tmp_path / ("jobs%d" % jobs), jobs=jobs,
            langid_filter=True, langid_model_paths=tuple(lang_models),
            expected_langs=("en", "es")), hubs)
        assert manifests[jobs]["counts"]["language_filtered"] == 1
    one, two = tmp_path / "jobs1", tmp_path / "jobs2"
    assert (one / "reports.jsonl").read_bytes() == \
        (two / "reports.jsonl").read_bytes()
    assert tree_bytes(one / "segments") == tree_bytes(two / "segments")
    written = [json.loads((out / "manifest.json").read_text(encoding="utf-8"))
               for out in (one, two)]
    assert [m["config"].pop("jobs") for m in written] == [1, 2]
    assert written[0] == written[1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_language_model_raises_before_any_pair_is_evaluated(
        demo_corpus, lang_models, tmp_path, monkeypatch, jobs):
    bad = tmp_path / "v2.model"
    doc = json.loads(pathlib.Path(lang_models[0]).read_text(encoding="utf-8"))
    doc["version"] = 2
    bad.write_text(json.dumps(doc), encoding="utf-8")
    calls = []

    def spy(*args):
        calls.append(args)
        return evaluate_all(*args)

    evaluate_all = pipeline._evaluate_all
    monkeypatch.setattr(pipeline, "_evaluate_all", spy)
    cfg = corpus_config(demo_corpus, tmp_path / "out", jobs=jobs,
                        langid_filter=True,
                        langid_model_paths=(str(bad), lang_models[1]),
                        expected_langs=("en", "es"))
    with pytest.raises(ValueError, match="unsupported model version 2"):
        run_pipeline(cfg, read_hubs(demo_corpus))
    assert calls == []
    assert not (tmp_path / "out" / "reports.jsonl").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_manifests_are_deterministic(demo_corpus, tmp_path):
    hubs = read_hubs(demo_corpus)
    cfg1 = corpus_config(demo_corpus, tmp_path / "one", jobs=4)
    cfg2 = corpus_config(demo_corpus, tmp_path / "two", jobs=4)
    run_pipeline(cfg1, hubs)
    run_pipeline(cfg2, hubs)
    m1 = (tmp_path / "one" / "manifest.json").read_bytes()
    m2 = (tmp_path / "two" / "manifest.json").read_bytes()
    assert m1 == m2
    r1 = (tmp_path / "one" / "reports.jsonl").read_bytes()
    r2 = (tmp_path / "two" / "reports.jsonl").read_bytes()
    assert r1 == r2


def test_unreadable_hub_is_recorded_not_fatal(tmp_path):
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}), frozenset({"spanish"})),
        out_dir=str(tmp_path / "out"))
    manifest = run_pipeline(cfg, [str(tmp_path / "no-such-hub.html")])
    assert manifest["counts"]["hub_errors"] == 1
    assert manifest["counts"]["generated"] == 0
    assert manifest["hub_errors"][0]["hub"].endswith("no-such-hub.html")


def test_failed_http_hub_is_a_hub_error_naming_its_status(stub_server,
                                                         tmp_path):
    hub = stub_server.base_url + "/no-hub.html"
    fetcher = Fetcher(PageCache(str(tmp_path / "cache")),
                      FetchPolicy(min_interval=0.0, timeout=5.0))
    pairs, listed, hub_errors = generate_candidates(
        fetcher, [hub], GeneratorConfig(frozenset({"english"}),
                                        frozenset({"spanish"})))
    assert (pairs, listed) == ([], 0)
    assert hub_errors == [{"hub": hub, "type": "OSError",
                           "error": "hub %s: not_found" % hub}]


def test_hub_reader_defect_is_a_hub_error_and_other_hubs_keep_their_pairs(
        tmp_path, monkeypatch):
    hubs = []
    for name in ("one", "bad", "two"):
        hub = tmp_path / ("%s.html" % name)
        hub.write_text('<A HREF="%s-en.html">English</A>\n'
                       '<A HREF="%s-es.html">Spanish</A>\n' % (name, name),
                       encoding="utf-8")
        hubs.append(str(hub))
    parse = candidates.parse_anchors

    def defective(text):
        if "bad-en" in text:
            raise AttributeError("reader defect")
        return parse(text)

    monkeypatch.setattr(candidates, "parse_anchors", defective)
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}), frozenset({"spanish"})),
        out_dir=str(tmp_path / "out"), jobs=1)
    manifest = run_pipeline(cfg, hubs)
    assert manifest["hub_errors"] == [{"hub": hubs[1], "type": "AttributeError",
                                       "error": "reader defect"}]
    assert manifest["counts"]["hub_errors"] == 1
    assert [(os.path.basename(r["url1"]), os.path.basename(r["url2"]))
            for r in manifest["pairs"]] == [("one-en.html", "one-es.html"),
                                            ("two-en.html", "two-es.html")]


def test_identical_pages_and_repeated_pairs_are_not_evaluated(tmp_path):
    body = "<HTML><BODY><P>hello from a page</P></BODY></HTML>"
    a, b, c = (str(tmp_path / name) for name in ("a.html", "b.html", "c.html"))
    for path, text in ((a, body), (b, body), (c, body + "  !")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    listed = [(a, b),   # byte-identical copy
              (a, c),   # evaluated
              (a, c),   # the same pair again
              (a, a)]   # one page twice
    hub = tmp_path / "hub.html"
    # Twelve lines between listings, so anchors pair only within one.
    hub.write_text("".join('<A HREF="%s">English</A>\n<A HREF="%s">Spanish</A>'
                           % pair + "\n" * 12 for pair in listed),
                   encoding="utf-8")
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}), frozenset({"spanish"})),
        out_dir=str(tmp_path / "out"), jobs=1)
    manifest = run_pipeline(cfg, [str(hub)])
    assert [(r["url1"], r["url2"], r["disposition"]) for r in manifest["pairs"]] \
        == [(a, b, "identical"), (a, c, "rejected"), (a, a, "identical")]
    counts = manifest["counts"]
    assert (counts["candidates_raw"], counts["duplicate_entries"],
            counts["generated"], counts["identical"], counts["evaluated"]) \
        == (4, 1, 3, 2, 1)


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


def test_pipeline_config_validation(tmp_path, lang_models):
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
    for tags in (("en",), ("en", "es", "fr")):  # one tag per page of a pair
        with pytest.raises(ValueError, match="two tags"):
            PipelineConfig(
                generator=GeneratorConfig(frozenset({"a"}), frozenset({"b"})),
                out_dir=str(tmp_path), langid_filter=True,
                langid_model_paths=tuple(lang_models), expected_langs=tags)


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
    segments = tree_bytes(one / "segments")
    assert len(segments) == 13
    assert segments == tree_bytes(two / "segments")
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_segments_file_that_cannot_be_written_is_that_pairs_error(
        default_run, demo_corpus, tmp_path, jobs):
    baseline, _ = default_run
    first = next(r for r in baseline["pairs"] if r["disposition"] == "accepted")
    out = tmp_path / "out"
    os.makedirs(out / first["segments_file"])  # a directory in the file's place
    manifest = run_pipeline(corpus_config(demo_corpus, out, jobs=jobs),
                            read_hubs(demo_corpus))
    record = next(r for r in manifest["pairs"]
                  if r["pair_id"] == first["pair_id"])
    assert record["disposition"] == "error"
    assert record["segments_file"] is None
    assert "Is a directory" in record["reject_reason"]
    assert manifest["pair_errors"] == [{"pair_id": first["pair_id"],
                                        "error": record["reject_reason"]}]
    assert (manifest["counts"]["errors"], manifest["counts"]["accepted"]) == \
        (1, baseline["counts"]["accepted"] - 1)
    assert [r for r in manifest["pairs"] if r is not record] == \
        [r for r in baseline["pairs"] if r["pair_id"] != first["pair_id"]]
    assert (out / "manifest.json").exists()
    assert len(tree_bytes(out / "segments")) == baseline["counts"]["accepted"] - 1


# Runs the demo corpus at jobs=1 and SIGKILLs itself at the start of
# evaluate_pair call number argv[1]; argv[2] is the output dir, argv[3]
# the hub list.
_KILLED_RUN = r"""
import os, signal, sys
from webbitext import GeneratorConfig, PipelineConfig, pipeline, run_pipeline

evaluate_pair, calls = pipeline.evaluate_pair, []

def evaluate_or_die(*args):
    calls.append(None)
    if len(calls) == int(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    return evaluate_pair(*args)

pipeline.evaluate_pair = evaluate_or_die
with open(sys.argv[3], encoding="utf-8") as fh:
    hubs = [line.strip() for line in fh if line.strip()]
run_pipeline(PipelineConfig(
    generator=GeneratorConfig(frozenset({"english"}),
                              frozenset({"spanish", "español"})),
    out_dir=sys.argv[2], jobs=1), hubs)
"""


def _killed_run(demo_corpus, out, kill_at):
    """Run _KILLED_RUN into ``out``, killed as evaluation call ``kill_at`` starts."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(webbitext.__file__)))
    proc = subprocess.run([sys.executable, "-c", _KILLED_RUN, str(kill_at),
                           str(out), demo_corpus["hubs_file"]],
                          env=env, timeout=120)
    assert proc.returncode == -signal.SIGKILL


def _kill_point(baseline):
    """The evaluated records, and a call number just after the first accept."""
    evaluated = [r for r in baseline["pairs"]
                 if r["disposition"] in ("accepted", "rejected")]
    return evaluated, 2 + next(i for i, r in enumerate(evaluated)
                               if r["disposition"] == "accepted")


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_run_killed_during_evaluation_leaves_no_torn_file(default_run,
                                                          demo_corpus,
                                                          tmp_path):
    baseline, complete = default_run
    evaluated, kill_at = _kill_point(baseline)
    out = tmp_path / "out"
    _killed_run(demo_corpus, out, kill_at)
    left = tree_bytes(out)
    assert not [name for name in left if ".tmp." in name]
    assert {"reports.jsonl", "manifest.json", "run_info.json"}.isdisjoint(left)
    finished = evaluated[:kill_at - 1]
    segments = {name: data for name, data in left.items()
                if name.startswith("segments" + os.sep)}
    assert sorted(segments) == sorted(
        os.path.normpath(r["segments_file"]) for r in finished
        if r["disposition"] == "accepted")
    expected = tree_bytes(complete)
    assert segments == {name: expected[name] for name in segments}
    assert left["candidates.tsv"] == expected["candidates.tsv"]


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_rerun_after_a_kill_reuses_the_finished_pairs(default_run, demo_corpus,
                                                      tmp_path):
    baseline, complete = default_run
    evaluated, kill_at = _kill_point(baseline)
    out = tmp_path / "out"
    _killed_run(demo_corpus, out, kill_at)
    run_pipeline(corpus_config(demo_corpus, out, jobs=1), read_hubs(demo_corpus))
    files, manifest, verdicts = _run_files(out, "cache")
    assert verdicts == {"reused": kill_at - 1,
                        "evaluated": len(evaluated) - (kill_at - 1)}
    assert (files, manifest) == _run_files(complete, "cache")[:2]


@dataclass
class _ExitInWorker(EvaluatorConfig):
    """Thresholds whose first read in any other process ends that process.

    The pool's initializer hands the config to every worker, so this
    reaches the workers whatever start method the pool uses.
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
    hubs = serve_english_japanese(stub_server)
    cfg = PipelineConfig(
        generator=EN_JA, fetch=FetchPolicy(min_interval=0.0, timeout=5.0),
        out_dir=str(tmp_path / "out"), jobs=jobs)
    manifest = run_pipeline(cfg, hubs)
    assert manifest["counts"]["accepted"] == 2
    for record in manifest["pairs"]:
        with open(tmp_path / "out" / record["segments_file"],
                  encoding="utf-8") as fh:
            first_paragraph = fh.read().splitlines()[1].split("\t")
        assert first_paragraph[5] == JA_PHRASE and len(JA_PHRASE) == 10


def test_hub_header_charset_reaches_candidate_extraction(stub_server,
                                                         tmp_path):
    cfg = PipelineConfig(
        generator=GeneratorConfig(frozenset({"english"}),
                                  frozenset({"日本語"})),
        fetch=FetchPolicy(min_interval=0.0, timeout=5.0),
        out_dir=str(tmp_path / "out"))
    manifest = run_pipeline(cfg, [serve_shift_jis_hub(stub_server)])
    assert manifest["counts"]["generated"] == 1
    with open(tmp_path / "out" / "candidates.tsv", encoding="utf-8") as fh:
        assert fh.read().split("\t")[:2] == [stub_server.base_url + "/en.html",
                                             stub_server.base_url + "/ja.html"]


def test_conservation_check_raises_on_counts_that_do_not_add_up():
    counts = {"generated": 10, "identical": 1, "unretrievable": 2,
              "non_html": 1, "evaluated": 5, "errors": 1, "accepted": 3,
              "rejected": 1, "language_filtered": 1}
    check_conservation(counts)
    with pytest.raises(ConservationError, match="generated 11 != 10"):
        check_conservation(dict(counts, generated=11))
    with pytest.raises(ConservationError, match="evaluated 5 != 6"):
        check_conservation(dict(counts, accepted=4))


def _run_files(out, *skip):
    """What a run wrote to ``out``: (files, manifest, verdict counts).

    ``files`` maps every other file's relative path to its bytes, leaving
    out run_info.json and the top-level entries named in ``skip``; the
    manifest is parsed, without config.jobs.
    """
    files = {name: data for name, data in tree_bytes(out).items()
             if name.split(os.sep)[0] not in skip}
    verdicts = json.loads(files.pop("run_info.json"))["verdicts"]
    manifest = json.loads(files.pop("manifest.json"))
    manifest["config"].pop("jobs")
    return files, manifest, verdicts


def _langid(models, expected=("en", "es")):
    return dict(langid_filter=True, langid_model_paths=tuple(models),
                expected_langs=expected)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("langid_filter", [False, True])
def test_reruns_over_a_shared_cache_reuse_every_verdict(
        demo_corpus, lang_models, tmp_path, jobs, langid_filter):
    langid = _langid(lang_models) if langid_filter else {}
    runs = []
    for name in ("one", "two", "three"):
        run_pipeline(corpus_config(demo_corpus, tmp_path / name, jobs=jobs,
                                   cache_dir=str(tmp_path / "cache"), **langid),
                     read_hubs(demo_corpus))
        runs.append(_run_files(tmp_path / name))
    assert [verdicts for _, _, verdicts in runs] == \
        [{"reused": 0, "evaluated": 24}] + [{"reused": 24, "evaluated": 0}] * 2
    files, manifest, _ = runs[0]
    assert len([name for name in files if name.startswith("segments")]) == \
        (12 if langid_filter else 13)
    for other in runs[1:]:
        assert other[:2] == (files, manifest)


_KEY_PARTS = ["k", "p_threshold", "min_pairs", "model_bytes", "expected_langs",
              "langid_filter", "page_body", "header_charset"]


@pytest.mark.parametrize("part", _KEY_PARTS)
def test_a_changed_key_part_reevaluates_the_pairs_it_decides(
        part, demo_corpus, lang_models, stub_server, tmp_path):
    models = [shutil.copy(path, tmp_path) for path in lang_models]
    generator = corpus_config(demo_corpus, tmp_path).generator
    hubs = read_hubs(demo_corpus)
    before, after = {}, {}
    if part in ("k", "p_threshold", "min_pairs"):
        value = {"k": 0.3, "p_threshold": 0.01, "min_pairs": 4}[part]
        after = {"evaluator": EvaluatorConfig(**{part: value})}
    elif part == "model_bytes":
        before = after = _langid(models)
    elif part == "expected_langs":
        before, after = _langid(models), _langid(models, ("es", "en"))
    elif part == "langid_filter":
        after = _langid(models)
    elif part == "page_body":
        corpus = build_corpus(str(tmp_path / "corpus"))
        hubs = read_hubs(corpus)
        changed = corpus["expected_accept_default"][0].split(" ")[0]
    else:
        generator, hubs = EN_JA, serve_english_japanese(stub_server)
        changed = stub_server.base_url + "/ja1.html"

    def run(name, cache, settings):
        run_pipeline(PipelineConfig(
            generator=generator, fetch=FetchPolicy(min_interval=0.0, timeout=5.0),
            out_dir=str(tmp_path / name), cache_dir=str(tmp_path / cache),
            jobs=2, **settings), hubs)
        return _run_files(tmp_path / name)

    run("first", "cache", before)
    if part == "model_bytes":  # the same model, written with other bytes
        with open(models[0], encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(models[0], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    elif part == "page_body":
        with open(changed, "ab") as fh:
            fh.write(b"\n<!-- edited -->\n")
    elif part == "header_charset":  # served, and refetched, without one
        _, _, body = stub_server.routes["/ja1.html"]
        stub_server.add_page("/ja1.html", body, "text/html")
        cache = PageCache(str(tmp_path / "cache"))
        cache.record(dataclasses.replace(cache.lookup(changed), charset=""))
    rerun = run("rerun", "cache", after)
    fresh = run("fresh", "fresh-cache", after)
    assert rerun[:2] == fresh[:2]
    evaluated = fresh[2]["evaluated"]
    affected = evaluated
    if part in ("page_body", "header_charset"):
        affected = sum(1 for r in fresh[1]["pairs"] if r["disposition"] in EVALUATED
                       and changed in (r["url1"], r["url2"]))
    assert 0 < affected and evaluated > 1
    assert rerun[2] == {"reused": evaluated - affected, "evaluated": affected}


def test_an_error_is_not_reused_and_the_rerun_evaluates_that_pair(
        default_run, demo_corpus, tmp_path):
    baseline, _ = default_run
    url1 = demo_corpus["expected_accept_default"][0].split(" ")[0]
    with open(url1, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    blocker = tmp_path / "cache" / "objects" / digest[:2] / digest
    os.makedirs(blocker)  # a directory where the page's cached body belongs
    cfg = corpus_config(demo_corpus, tmp_path / "out", jobs=1,
                        cache_dir=str(tmp_path / "cache"))
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    broken = [e["pair_id"] for e in manifest["pair_errors"]]
    assert broken == [r["pair_id"] for r in manifest["pairs"]
                      if url1 in (r["url1"], r["url2"])]
    os.rmdir(blocker)
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    assert manifest["pairs"] == baseline["pairs"]
    assert _run_files(tmp_path / "out")[2] == \
        {"reused": 24 - len(broken), "evaluated": len(broken)}


def test_a_segments_file_that_cannot_be_written_keeps_its_verdict(
        default_run, demo_corpus, tmp_path):
    baseline, _ = default_run
    first = next(r for r in baseline["pairs"] if r["disposition"] == "accepted")
    out = tmp_path / "out"
    os.makedirs(out / first["segments_file"])  # a directory in the file's place
    cfg = corpus_config(demo_corpus, out, jobs=1, cache_dir=str(tmp_path / "cache"))
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    assert [e["pair_id"] for e in manifest["pair_errors"]] == [first["pair_id"]]
    os.rmdir(out / first["segments_file"])
    manifest = run_pipeline(cfg, read_hubs(demo_corpus))
    assert manifest["pairs"] == baseline["pairs"]
    assert _run_files(out)[2] == {"reused": 24, "evaluated": 0}


def test_a_torn_cached_body_is_an_error_and_stores_no_verdict(
        default_run, demo_corpus, tmp_path):
    baseline, _ = default_run
    url1 = demo_corpus["expected_accept_default"][0].split(" ")[0]
    with open(url1, "rb") as fh:
        body = fh.read()
    digest = hashlib.sha256(body).hexdigest()
    # A lost write left a third of the page under its digest, and a fetch
    # does not overwrite an object that exists.
    torn = tmp_path / "cache" / "objects" / digest[:2] / digest
    torn.parent.mkdir(parents=True)
    torn.write_bytes(body[:len(body) // 3])
    manifest = run_pipeline(corpus_config(demo_corpus, tmp_path / "out", jobs=1,
                                          cache_dir=str(tmp_path / "cache")),
                            read_hubs(demo_corpus))
    broken = [r for r in manifest["pairs"] if url1 in (r["url1"], r["url2"])]
    assert broken
    assert {(r["disposition"], r["reject_reason"]) for r in broken} == \
        {("error", "cached body %s does not match its digest" % digest)}
    assert [r for r in manifest["pairs"] if r not in broken] == \
        [r for r in baseline["pairs"] if url1 not in (r["url1"], r["url2"])]
    scope, = os.listdir(tmp_path / "cache" / "verdicts")
    assert len(os.listdir(tmp_path / "cache" / "verdicts" / scope)) == \
        baseline["counts"]["evaluated"] - len(broken)


def _planted_entry(shape, entry):
    """An accepted pair's stored ``entry`` replaced by one of another shape."""
    fields = entry["fields"]
    return {"empty": {},
            "no_disposition": {"fields": {}, "segments": None},
            "injected_field": dict(entry, fields=dict(fields, pair_id="INJECTED")),
            "not_an_object": [entry],
            "fields_not_an_object": dict(entry, fields=list(fields)),
            "not_evaluated": dict(entry, fields=dict(fields, disposition="error"),
                                  segments=None),
            "accepted_without_segments": dict(entry, segments=None),
            "rejected_with_segments": dict(
                entry, fields=dict(fields, disposition="rejected"))}[shape]


@pytest.mark.parametrize("shape", [
    "empty", "no_disposition", "injected_field", "not_an_object",
    "fields_not_an_object", "not_evaluated", "accepted_without_segments",
    "rejected_with_segments"])
def test_a_verdict_entry_of_another_shape_is_a_miss(demo_corpus, tmp_path, shape):
    cfg = corpus_config(demo_corpus, tmp_path / "out", jobs=1,
                        cache_dir=str(tmp_path / "cache"))
    run_pipeline(cfg, read_hubs(demo_corpus))
    first = _run_files(tmp_path / "out")
    scope, = (tmp_path / "cache" / "verdicts").iterdir()
    for path in sorted(scope.iterdir()):
        entry = json.loads(path.read_text(encoding="utf-8"))
        if entry["fields"]["disposition"] == "accepted":
            break
    path.write_text(json.dumps(_planted_entry(shape, entry)), encoding="utf-8")
    run_pipeline(cfg, read_hubs(demo_corpus))
    files, manifest, verdicts = _run_files(tmp_path / "out")
    assert verdicts == {"reused": 23, "evaluated": 1}
    assert (files, manifest) == first[:2]
    assert json.loads(path.read_text(encoding="utf-8")) == entry


@pytest.mark.parametrize("jobs", [1, 2])
def test_verdict_entry_that_cannot_be_written_is_that_pairs_error(
        default_run, demo_corpus, tmp_path, jobs):
    baseline, _ = default_run
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "verdicts").write_bytes(b"")  # a file in the way
    out = tmp_path / "out"
    manifest = run_pipeline(corpus_config(demo_corpus, out, jobs=jobs,
                                          cache_dir=str(tmp_path / "cache")),
                            read_hubs(demo_corpus))
    counts = manifest["counts"]
    assert (counts["errors"], counts["evaluated"]) == \
        (baseline["counts"]["evaluated"], 0)
    assert "verdicts" in manifest["pair_errors"][0]["error"]
    assert not (out / "segments").exists() or not os.listdir(out / "segments")
    assert (out / "manifest.json").exists()


def test_a_run_prunes_only_the_verdict_scopes_idle_past_the_limit(
        demo_corpus, tmp_path):
    verdicts = tmp_path / "cache" / "verdicts"

    def run(k):
        run_pipeline(corpus_config(demo_corpus, tmp_path / "out", jobs=1,
                                   cache_dir=str(tmp_path / "cache"),
                                   evaluator=EvaluatorConfig(k=k)),
                     read_hubs(demo_corpus))
        return _run_files(tmp_path / "out")[2]

    scopes = {}
    for k in (0.20, 0.25, 0.30):
        before = set(os.listdir(verdicts)) if verdicts.exists() else set()
        assert run(k) == {"reused": 0, "evaluated": 24}
        scopes[k], = set(os.listdir(verdicts)) - before
    now = time.time()
    idle = now - fetch.IDLE_S - 60
    os.utime(verdicts / scopes[0.25], (idle, idle))
    within = now - fetch.IDLE_S + 3600
    os.utime(verdicts / scopes[0.30], (within, within))
    assert run(0.20) == {"reused": 24, "evaluated": 0}
    assert sorted(os.listdir(verdicts)) == sorted([scopes[0.20], scopes[0.30]])
    assert len(os.listdir(verdicts / scopes[0.30])) == 24
