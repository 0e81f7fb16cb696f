"""Command-line interface.

Subcommands mirror the pipeline stages so each one is usable on its own:
``query``, ``generate``, ``fetch``, ``linearize``, ``align``, ``evaluate``,
``langid``, ``run``, and ``score``.  Each subcommand takes only the flags
it reads.  Threshold flags default to the fields of ``EvaluatorConfig``,
``GeneratorConfig`` and ``FetchPolicy``: the frozen values the method was
evaluated with (K=0.20, p<0.05, 10-line anchor distance, 3 pair minimum).
The language filter runs exactly when ``--langid-models`` is given, and
then needs ``--expected-langs``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from . import __version__
from .align import GAP_LEFT, GAP_RIGHT, MATCH, align, mismatch_ratio
from .candidates import GeneratorConfig, build_query, read_hub_list
from .evaluate import EvaluatorConfig, evaluate_pair
from .fetch import FetchPolicy, Fetcher, PageCache
from .langid import NgramModel, classify, train
from .linearize import linearize, render_token
from .pipeline import (PipelineConfig, candidates_tsv, generate_candidates,
                       read_candidates_tsv, run_pipeline, score_report_files,
                       worker_count, write_candidates_tsv)


def _add_thresholds(parser):
    parser.add_argument("--k", type=float, default=EvaluatorConfig.k,
                        help="mismatch-ratio threshold (default %(default)s)")
    parser.add_argument("--p-threshold", type=float,
                        default=EvaluatorConfig.p_threshold,
                        help="significance level (default %(default)s)")
    parser.add_argument("--min-pairs", type=int,
                        default=EvaluatorConfig.min_pairs,
                        help="minimum aligned unequal chunk pairs "
                             "(default %(default)s)")


def _add_hub_flags(parser):
    parser.add_argument("--lang1", required=True, help="comma-separated names")
    parser.add_argument("--lang2", required=True, help="comma-separated names")
    parser.add_argument("--hubs", required=True,
                        help="file of hub locators, one per line")
    parser.add_argument("--max-hits", type=int,
                        default=GeneratorConfig.max_hits,
                        help="hubs read from the top of the list "
                             "(default %(default)s)")
    parser.add_argument("--max-line-distance", type=int,
                        default=GeneratorConfig.max_line_distance,
                        help="max anchor distance in hub source lines "
                             "(default %(default)s)")


def _add_fetch_flags(parser):
    parser.add_argument("--min-interval", type=float,
                        default=FetchPolicy.min_interval,
                        help="per-host politeness interval, seconds "
                             "(default %(default)s)")
    parser.add_argument("--jobs", type=int, default=PipelineConfig.jobs,
                        help="parallel workers; 0 or less is one per CPU "
                             "(default %(default)s)")


def _evaluator_config(args):
    return EvaluatorConfig(k=args.k, p_threshold=args.p_threshold,
                           min_pairs=args.min_pairs)


def _generator_config(args):
    return GeneratorConfig(
        lang1_names=frozenset(args.lang1.split(",")),
        lang2_names=frozenset(args.lang2.split(",")),
        max_line_distance=args.max_line_distance,
        max_hits=args.max_hits)


def _read_doc(path):
    with open(path, "rb") as fh:
        return linearize(fh.read(), source_id=path)


def _out_stream(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def cmd_query(args):
    print(build_query(args.lang1, args.lang2))
    return 0


def cmd_linearize(args):
    doc = _read_doc(args.file)
    for tok in doc.tokens:
        print(render_token(tok))
    return 0


def render_alignment(alignment, left, right):
    """Two-column rendering of an alignment, one op per line."""
    width = max([len(render_token(t)) for t in left.tokens] or [12])
    lines = []
    for op in alignment.ops:
        lt = render_token(left.tokens[op.left_index]) \
            if op.left_index is not None else ""
        rt = render_token(right.tokens[op.right_index]) \
            if op.right_index is not None else ""
        if op.kind == MATCH:
            mark = " "
        elif op.kind == GAP_LEFT:
            mark = "<"
        elif op.kind == GAP_RIGHT:
            mark = ">"
        else:
            mark = "|"
        lines.append("%-*s %s %s" % (width, lt, mark, rt))
    return "\n".join(line.rstrip() for line in lines)


def cmd_align(args):
    left = _read_doc(args.file1)
    right = _read_doc(args.file2)
    alignment = align(left, right)
    print(render_alignment(alignment, left, right))
    print()
    print("left tokens: %d   right tokens: %d" % (len(left), len(right)))
    print("mismatched tokens: %d of %d (ratio %.4f)"
          % (alignment.mismatch_count, alignment.total_tokens,
             mismatch_ratio(alignment)))
    return 0


def cmd_evaluate(args):
    report = evaluate_pair(_read_doc(args.file1), _read_doc(args.file2),
                           _evaluator_config(args))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.accepted else 1


def cmd_generate(args):
    cfg = _generator_config(args)
    hubs = read_hub_list(args.hubs)
    with tempfile.TemporaryDirectory() as tmp:
        fetcher = Fetcher(PageCache(args.cache or tmp), FetchPolicy())
        pairs, _, hub_errors = generate_candidates(fetcher, hubs, cfg)
    for error in hub_errors:
        print("%(hub)s: %(type)s: %(error)s" % error, file=sys.stderr)
    if args.out:
        write_candidates_tsv(pairs, args.out)
    else:
        sys.stdout.write(candidates_tsv(pairs))
    return 1 if hub_errors else 0


def cmd_fetch(args):
    pairs = read_candidates_tsv(args.pairs)
    cache_dir = args.cache or "webbitext_cache"
    fetcher = Fetcher(PageCache(cache_dir),
                      FetchPolicy(min_interval=args.min_interval))
    results = fetcher.fetch_many([u for p in pairs for u in (p.url1, p.url2)],
                                 jobs=worker_count(args.jobs))
    stream = _out_stream(args.out)
    for url, r in results.items():
        stream.write(json.dumps({
            "url": url, "status": r.status, "final_url": r.final_url,
            "content_type": r.content_type, "digest": r.digest,
        }, sort_keys=True) + "\n")
    if stream is not sys.stdout:
        stream.close()
    return 0


def cmd_langid_train(args):
    with open(args.infile, encoding="utf-8") as fh:
        text = fh.read()
    model = train(text, args.lang, n=args.n)
    model.save(args.out)
    print("trained %r order-%d model on %d chars -> %s"
          % (args.lang, args.n, model.trained_chars, args.out))
    return 0


def cmd_langid_classify(args):
    models = [NgramModel.load(p) for p in args.models.split(",")]
    if args.text is not None:
        text = args.text
    else:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    best, scores = classify(text, models)
    print(json.dumps({"language": best, "scores": scores}, sort_keys=True))
    return 0


def cmd_run(args):
    cfg = PipelineConfig(
        generator=_generator_config(args),
        evaluator=_evaluator_config(args),
        fetch=FetchPolicy(min_interval=args.min_interval),
        out_dir=args.out,
        cache_dir=args.cache,
        langid_filter=args.langid_models is not None,
        langid_model_paths=tuple(args.langid_models.split(","))
        if args.langid_models else (),
        expected_langs=tuple(args.expected_langs.split(","))
        if args.expected_langs else None,
        jobs=args.jobs)
    manifest = run_pipeline(cfg, read_hub_list(args.hubs))
    counts = manifest["counts"]
    for key in ("generated", "identical", "unretrievable", "non_html",
                "evaluated", "accepted", "rejected", "language_filtered"):
        print("%s: %d" % (key, counts[key]))
    return 1 if counts["errors"] or counts["hub_errors"] else 0


def cmd_score(args):
    summary = score_report_files(args.reports, args.gold)
    out = summary.to_dict()
    if summary.precision is not None:
        out["precision_pct"] = round(100.0 * summary.precision, 1)
    if summary.recall is not None:
        out["recall_pct"] = round(100.0 * summary.recall, 1)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="webbitext",
        description="Find pairs of web pages that are parallel translations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="print the hub search query")
    p.add_argument("--lang1", required=True)
    p.add_argument("--lang2", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("linearize", help="print a document's token stream")
    p.add_argument("file")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("align", help="align two documents, sdiff style")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("evaluate", help="decide whether two pages are translations")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_thresholds(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="extract candidate pairs from hub pages")
    _add_hub_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--cache", default=None,
                   help="cache directory for hubs fetched over HTTP")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fetch",
                       help="retrieve candidate pages, web pages into the cache")
    p.add_argument("--pairs", required=True, help="candidates TSV")
    p.add_argument("--out", default=None)
    p.add_argument("--cache", default=None,
                   help="page cache directory (default webbitext_cache)")
    _add_fetch_flags(p)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("langid", help="train or apply language models")
    lsub = p.add_subparsers(dest="langid_command", required=True)
    pt = lsub.add_parser("train")
    pt.add_argument("--lang", required=True)
    pt.add_argument("--in", dest="infile", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--n", type=int, default=3)
    pt.set_defaults(func=cmd_langid_train)
    pc = lsub.add_parser("classify")
    pc.add_argument("--models", required=True, help="comma-separated model files")
    source = pc.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile")
    source.add_argument("--text")
    pc.set_defaults(func=cmd_langid_classify)

    p = sub.add_parser("run", help="run the whole pipeline over a hub list")
    _add_hub_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--cache", default=None,
                   help="page cache directory (default OUT/cache)")
    _add_fetch_flags(p)
    _add_thresholds(p)
    p.add_argument("--langid-models", default=None,
                   help="comma-separated model files; turns the language "
                        "filter on and needs --expected-langs")
    p.add_argument("--expected-langs", default=None,
                   help="the left and right pages' tags, e.g. en,es")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", help="precision/recall against gold labels")
    p.add_argument("--reports", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(func=cmd_score)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, KeyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
