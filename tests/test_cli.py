"""Command-line interface tests (in-process, via main(argv))."""

import json

import pytest

from webbitext import (EvaluatorConfig, FetchPolicy, Fetcher, GeneratorConfig,
                       PipelineConfig, align, candidates, linearize)
from webbitext.cli import build_parser, main, render_alignment

from conftest import serve_shift_jis_hub, text_with_length


@pytest.fixture
def worked_files(tmp_path):
    en = tmp_path / "en.html"
    fr = tmp_path / "fr.html"
    en.write_text("<HTML><TITLE>Emergency Exit</TITLE><BODY>"
                  "<H1>Emergency Exit</H1>"
                  + text_with_length("If seated at an exit and", 112),
                  encoding="utf-8")
    fr.write_text("<HTML><TITLE>Sortie de Secours</TITLE><BODY>"
                  + text_with_length("Si vous êtes assis", 122),
                  encoding="utf-8")
    return str(en), str(fr)


def test_query_prints_exact_string(capsys):
    assert main(["query", "--lang1", "english", "--lang2", "french"]) == 0
    assert capsys.readouterr().out == 'anchor:"english" AND anchor:"french"\n'


def test_linearize_golden_output(capsys, worked_files):
    en, _ = worked_files
    assert main(["linearize", en]) == 0
    out = capsys.readouterr().out
    assert out == ("[START:HTML]\n[START:TITLE]\n[Chunk:13]\n[END:TITLE]\n"
                   "[START:BODY]\n[START:H1]\n[Chunk:13]\n[END:H1]\n"
                   "[Chunk:112]\n")


def test_align_renders_two_columns_with_sdiff_marks(capsys, worked_files):
    en, fr = worked_files
    assert main(["align", en, fr]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "[START:HTML]    [START:HTML]"
    assert lines[2] == "[Chunk:13]    | [Chunk:15]"
    assert lines[5] == "[START:H1]    <"
    assert lines[8] == "[Chunk:112]   | [Chunk:122]"
    assert "mismatched tokens: 3 of 15 (ratio 0.2000)" in out


def test_align_marks_a_right_token_with_no_counterpart():
    left = linearize("<HTML><BODY><P>some words here</P></BODY></HTML>")
    right = linearize("<HTML><BODY><H1>Title</H1>"
                      "<P>otra palabras aqui</P></BODY></HTML>")
    lines = render_alignment(align(left, right), left, right).splitlines()
    assert lines[2:5] == ["             > [START:H1]",
                          "             > [Chunk:5]",
                          "             > [END:H1]"]


def test_evaluate_exit_codes(capsys, tmp_path, worked_files):
    en, fr = worked_files
    # the bare fragment has too few unequal chunk pairs: reject, exit 1
    assert main(["evaluate", en, fr]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "reject"
    assert report["reject_reason"] == "insufficient_pairs"

    # a ten-section parallel pair: accept, exit 0
    left = tmp_path / "l.html"
    right = tmp_path / "r.html"
    lx = [30 + 13 * i for i in range(10)]
    left.write_text("<HTML>" + "".join(
        "<P>%s</P>" % text_with_length("", v) for v in lx), encoding="utf-8")
    right.write_text("<HTML>" + "".join(
        "<P>%s</P>" % text_with_length("", round(1.1 * v) + 1) for v in lx),
        encoding="utf-8")
    assert main(["evaluate", str(left), str(right)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "accept"

    # config errors exit 2
    assert main(["evaluate", str(left), str(right), "--k", "7"]) == 2
    assert main(["evaluate", str(left), "/nonexistent/file.html"]) == 2


def test_generate_writes_candidates_tsv(capsys, tmp_path):
    hub = tmp_path / "hub.html"
    hub.write_text('<A HREF="en.html">English</A>\n'
                   '<A HREF="es.html">Spanish</A>\n', encoding="utf-8")
    hubs = tmp_path / "hubs.txt"
    hubs.write_text(str(hub) + "\n", encoding="utf-8")
    assert main(["generate", "--lang1", "english",
                 "--lang2", "spanish,español", "--hubs", str(hubs)]) == 0
    out = capsys.readouterr().out.strip().split("\t")
    assert out[0] == str(tmp_path / "en.html")
    assert out[1] == str(tmp_path / "es.html")
    assert out[3] == "1"


def test_generate_decodes_hub_with_header_charset(capsys, stub_server,
                                                   tmp_path):
    hubs = tmp_path / "hubs.txt"
    hubs.write_text(serve_shift_jis_hub(stub_server) + "\n", encoding="utf-8")
    assert main(["generate", "--lang1", "english", "--lang2", "日本語",
                 "--hubs", str(hubs)]) == 0
    out = capsys.readouterr().out.strip().split("\t")
    assert out[:2] == [stub_server.base_url + "/en.html",
                       stub_server.base_url + "/ja.html"]


def test_generate_and_run_keep_the_first_listing_of_a_pair(tmp_path):
    # Two hubs list the same pair, 1 line apart in the first, 4 in the second.
    hub1 = tmp_path / "hub1.html"
    hub1.write_text('<A HREF="en.html">English</A>\n'
                    '<A HREF="es.html">Spanish</A>\n', encoding="utf-8")
    hub2 = tmp_path / "hub2.html"
    hub2.write_text('<A HREF="en.html">English</A>\n\n\n\n'
                    '<A HREF="es.html">Spanish</A>\n', encoding="utf-8")
    hubs = tmp_path / "hubs.txt"
    hubs.write_text("%s\n%s\n" % (hub1, hub2), encoding="utf-8")
    common = ["--lang1", "english", "--lang2", "spanish", "--hubs", str(hubs)]
    assert main(["generate", *common, "--out", str(tmp_path / "gen.tsv")]) == 0
    assert main(["run", *common, "--out", str(tmp_path / "out"),
                 "--jobs", "1"]) == 0
    generated = (tmp_path / "gen.tsv").read_bytes()
    assert generated == (tmp_path / "out" / "candidates.tsv").read_bytes()
    assert generated.decode("utf-8") == "%s\t%s\t%s\t1\n" % (
        tmp_path / "en.html", tmp_path / "es.html", hub1)


def test_generate_and_run_exit_1_when_a_hub_cannot_be_read(capsys, tmp_path):
    hubs = tmp_path / "hubs.txt"
    missing = [tmp_path / "gone1.html", tmp_path / "gone2.html"]
    hubs.write_text("%s\n%s\n" % tuple(missing), encoding="utf-8")
    common = ["--lang1", "english", "--lang2", "spanish", "--hubs", str(hubs)]
    assert main(["generate", *common]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(str(path) in captured.err for path in missing)
    assert main(["run", *common, "--out", str(tmp_path / "out"),
                 "--jobs", "1"]) == 1


def test_generate_names_the_hub_on_every_error_line(capsys, tmp_path,
                                                   monkeypatch):
    hub = tmp_path / "hub.html"
    hub.write_text('<A HREF="en.html">English</A>\n'
                   '<A HREF="es.html">Spanish</A>\n', encoding="utf-8")
    hubs = tmp_path / "hubs.txt"
    hubs.write_text("%s\n" % hub, encoding="utf-8")

    def defective(text):
        raise AttributeError("'NoneType' object has no attribute 'group'")

    monkeypatch.setattr(candidates, "parse_anchors", defective)
    assert main(["generate", "--lang1", "english", "--lang2", "spanish",
                 "--hubs", str(hubs)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "%s: AttributeError: 'NoneType' object has no attribute 'group'" % hub]


_EVALUATOR = EvaluatorConfig()
_GENERATOR = GeneratorConfig(frozenset({"en"}), frozenset({"es"}))
_THRESHOLDS = {"k": _EVALUATOR.k, "p_threshold": _EVALUATOR.p_threshold,
               "min_pairs": _EVALUATOR.min_pairs}
_HUB_FLAGS = {"max_hits": _GENERATOR.max_hits,
              "max_line_distance": _GENERATOR.max_line_distance}
_FETCH_FLAGS = {"min_interval": FetchPolicy().min_interval,
                "jobs": PipelineConfig.jobs}


@pytest.mark.parametrize("argv, defaults", [
    pytest.param(["evaluate", "a.html", "b.html"], _THRESHOLDS, id="evaluate"),
    pytest.param(["generate", "--lang1", "en", "--lang2", "es", "--hubs", "h"],
                 _HUB_FLAGS, id="generate"),
    pytest.param(["fetch", "--pairs", "p.tsv"], _FETCH_FLAGS, id="fetch"),
    pytest.param(["run", "--lang1", "en", "--lang2", "es", "--hubs", "h",
                  "--out", "o"], dict(_THRESHOLDS, **_HUB_FLAGS, **_FETCH_FLAGS),
                 id="run"),
])
def test_flag_defaults_are_the_config_defaults(argv, defaults):
    args = build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in defaults} == defaults


@pytest.mark.parametrize("argv", [
    ["evaluate", "a.html", "b.html", "--langid-filter"],
    ["evaluate", "a.html", "b.html", "--jobs", "2"],
    ["generate", "--lang1", "en", "--lang2", "es", "--hubs", "h", "--k", "0.3"],
    ["fetch", "--pairs", "p.tsv", "--max-line-distance", "3"],
    ["run", "--lang1", "en", "--lang2", "es", "--hubs", "h", "--out", "o",
     "--langid-filter"],
], ids=["evaluate-langid-filter", "evaluate-jobs", "generate-k",
        "fetch-max-line-distance", "run-langid-filter"])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_langid_train_and_classify(capsys, tmp_path):
    from webbitext.democorpus import sample_text

    en_txt = tmp_path / "en.txt"
    en_txt.write_text(sample_text("en"), encoding="utf-8")
    es_txt = tmp_path / "es.txt"
    es_txt.write_text(sample_text("es"), encoding="utf-8")
    en_model = tmp_path / "en.model"
    es_model = tmp_path / "es.model"
    assert main(["langid", "train", "--lang", "en", "--in", str(en_txt),
                 "--out", str(en_model)]) == 0
    assert main(["langid", "train", "--lang", "es", "--in", str(es_txt),
                 "--out", str(es_model)]) == 0
    capsys.readouterr()
    assert main(["langid", "classify",
                 "--models", "%s,%s" % (en_model, es_model),
                 "--text", "the children walked to the village school"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["language"] == "en"
    assert result["scores"]["en"] > result["scores"]["es"]


def test_langid_classify_reads_its_text_from_a_file(capsys, tmp_path,
                                                    lang_models):
    text = tmp_path / "text.txt"
    text.write_text("la casa de los niños está en el pueblo", encoding="utf-8")
    assert main(["langid", "classify", "--models", ",".join(lang_models),
                 "--in", str(text)]) == 0
    assert json.loads(capsys.readouterr().out)["language"] == "es"


@pytest.mark.parametrize("source", [[], ["--text", "la casa", "--in", "t.txt"]],
                         ids=["neither", "both"])
def test_langid_classify_takes_exactly_one_text_source(capsys, lang_models,
                                                        source):
    with pytest.raises(SystemExit) as exc:
        main(["langid", "classify", "--models", ",".join(lang_models)] + source)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--in" in err and "--text" in err


def test_run_and_score_roundtrip(capsys, tmp_path, demo_corpus, lang_models):
    out_dir = tmp_path / "out"
    code = main(["run", "--lang1", "english", "--lang2", "spanish,español",
                 "--hubs", demo_corpus["hubs_file"], "--out", str(out_dir),
                 "--jobs", "2"])
    assert code == 0
    run_out = capsys.readouterr().out
    assert "accepted: 13" in run_out
    assert main(["score", "--reports", str(out_dir / "reports.jsonl"),
                 "--gold", demo_corpus["gold_file"]]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["accepted_count"] == 13
    assert summary["true_positives"] == 12
    assert summary["precision_pct"] == 92.3

    filtered_dir = tmp_path / "out_filtered"
    code = main(["run", "--lang1", "english", "--lang2", "spanish,español",
                 "--hubs", demo_corpus["hubs_file"], "--out", str(filtered_dir),
                 "--langid-models", ",".join(lang_models),
                 "--expected-langs", "en,es"])
    assert code == 0
    assert "accepted: 12" in capsys.readouterr().out


@pytest.mark.parametrize("langid", ["models", "tags"])
def test_run_takes_language_models_and_tags_together_or_not_at_all(
        capsys, tmp_path, demo_corpus, lang_models, langid):
    flag = (["--langid-models", ",".join(lang_models)] if langid == "models"
            else ["--expected-langs", "en,es"])
    assert main(["run", "--lang1", "english", "--lang2", "spanish",
                 "--hubs", demo_corpus["hubs_file"],
                 "--out", str(tmp_path / "out"), *flag]) == 2
    assert "error: language" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fetch_and_run_size_their_pools_alike_at_jobs_0(tmp_path, monkeypatch):
    (tmp_path / "en.html").write_text("<HTML>one page</HTML>", encoding="utf-8")
    (tmp_path / "es.html").write_text("<HTML>two pages</HTML>", encoding="utf-8")
    hub = tmp_path / "hub.html"
    hub.write_text('<A HREF="en.html">English</A>\n'
                   '<A HREF="es.html">Spanish</A>\n', encoding="utf-8")
    (tmp_path / "hubs.txt").write_text("%s\n" % hub, encoding="utf-8")
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    sizes = []

    def spy(fetcher, urls, jobs):
        sizes.append(jobs)
        return fetch_many(fetcher, urls, jobs)

    fetch_many = Fetcher.fetch_many
    monkeypatch.setattr(Fetcher, "fetch_many", spy)
    assert main(["run", "--lang1", "english", "--lang2", "spanish",
                 "--hubs", str(tmp_path / "hubs.txt"),
                 "--out", str(tmp_path / "out"), "--jobs", "0"]) == 0
    assert main(["fetch", "--pairs", str(tmp_path / "out" / "candidates.tsv"),
                 "--cache", str(tmp_path / "cache"), "--jobs", "0",
                 "--out", str(tmp_path / "fetched.jsonl")]) == 0
    assert sizes == [3, 3]


def test_score_exits_2_on_a_malformed_gold_file(capsys, tmp_path):
    reports = tmp_path / "reports.jsonl"
    reports.write_text(json.dumps({"pair_id": "a b", "disposition": "accepted"})
                       + "\n", encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("a b\tyes\n", encoding="utf-8")
    assert main(["score", "--reports", str(reports), "--gold", str(gold)]) == 2
    assert "%s:1: " % gold in capsys.readouterr().err


def test_fetch_command_reports_statuses(capsys, tmp_path):
    page = tmp_path / "a.html"
    page.write_text("<HTML><BODY>x</BODY></HTML>", encoding="utf-8")
    cands = tmp_path / "c.tsv"
    cands.write_text("%s\t%s\t\t\n" % (page, tmp_path / "missing.html"),
                     encoding="utf-8")
    assert main(["fetch", "--pairs", str(cands),
                 "--cache", str(tmp_path / "cache")]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    by_url = {rec["url"]: rec["status"] for rec in lines}
    assert by_url[str(page)] == "ok"
    assert by_url[str(tmp_path / "missing.html")] == "not_found"


def test_run_with_empty_hub_list_exits_zero(capsys, tmp_path):
    hubs = tmp_path / "hubs.txt"
    hubs.write_text("", encoding="utf-8")
    assert main(["run", "--lang1", "english", "--lang2", "spanish",
                 "--hubs", str(hubs), "--out", str(tmp_path / "out")]) == 0
    assert "generated: 0" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
