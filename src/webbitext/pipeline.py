"""End-to-end orchestration: generate, fetch, dedup, evaluate, filter.

Stages write plain files under one output directory:

  candidates.tsv   url1 <TAB> url2 <TAB> source_hub <TAB> line_distance
  reports.jsonl    one JSON record per candidate pair, every disposition
  segments/        one TSV per accepted pair with aligned segment texts
  manifest.json    per-disposition counts and per-pair outcomes
  run_info.json    wall-clock timestamps (kept out of the manifest so two
                   runs over the same corpus produce byte-identical
                   manifests)

Dispositions conserve: generated = identical + unretrievable + non_html
+ evaluated, and evaluated = accepted + rejected (+ language_filtered
when the optional language filter is enabled; it is off by default).
Gold labels are a two-column TSV of pair id and 0/1, where a pair id is
the two locators joined by a single space.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field

from .candidates import GeneratorConfig, extract_candidates
from .evaluate import EvaluatorConfig, evaluate_pair
from .fetch import FetchPolicy, Fetcher, PageCache, is_local, local_path
from .langid import NgramModel, language_filter
from .linearize import linearize

DISP_IDENTICAL = "identical"
DISP_UNRETRIEVABLE = "unretrievable"
DISP_NON_HTML = "non_html"
DISP_ACCEPTED = "accepted"
DISP_REJECTED = "rejected"
DISP_LANG_FILTERED = "language_filtered"
DISP_ERROR = "error"

_HARD_FAILURES = {"not_found", "empty", "unreachable", "robots_denied"}


@dataclass
class PipelineConfig:
    generator: GeneratorConfig
    evaluator: EvaluatorConfig = field(default_factory=EvaluatorConfig)
    fetch: FetchPolicy = field(default_factory=FetchPolicy)
    out_dir: str = "webbitext_out"
    cache_dir: str | None = None
    langid_filter: bool = False
    langid_model_paths: tuple = ()
    expected_langs: tuple | None = None
    jobs: int = 0

    def __post_init__(self):
        if self.jobs <= 0:
            self.jobs = os.cpu_count() or 1
        if self.langid_filter:
            if not self.langid_model_paths or not self.expected_langs:
                raise ValueError("language filter needs model paths and "
                                 "expected language tags")
            for path in self.langid_model_paths:
                if not os.path.exists(path):
                    raise ValueError("missing language model: %s" % path)


@dataclass(frozen=True)
class GoldLabel:
    pair_id: str
    positive: bool


@dataclass
class ScoreSummary:
    true_positives: int
    false_positives: int
    false_negatives: int
    accepted_count: int
    gold_positive_count: int
    precision: float | None
    recall: float | None

    def to_dict(self):
        return dict(self.__dict__)


def pair_id(url1, url2):
    return "%s %s" % (url1, url2)


def score(records, gold):
    """Precision/recall of accept decisions against gold judgments.

    ``records`` is an iterable of (pair_id, accepted); ``gold`` maps pair
    ids to booleans (or is an iterable of GoldLabel) and must cover every
    record.
    """
    if not isinstance(gold, dict):
        gold = {label.pair_id: label.positive for label in gold}
    tp = fp = fn = gold_pos = 0
    for pid, accepted in records:
        if pid not in gold:
            raise KeyError("no gold label for pair: %s" % pid)
        positive = gold[pid]
        gold_pos += 1 if positive else 0
        if accepted and positive:
            tp += 1
        elif accepted:
            fp += 1
        elif positive:
            fn += 1
    accepted_count = tp + fp
    return ScoreSummary(
        true_positives=tp, false_positives=fp, false_negatives=fn,
        accepted_count=accepted_count, gold_positive_count=gold_pos,
        precision=tp / accepted_count if accepted_count else None,
        recall=tp / gold_pos if gold_pos else None)


def load_gold(path):
    """Read a gold TSV (pair id, 0/1) into a dict."""
    gold = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            pid, _, judgment = line.rpartition("\t")
            gold[pid] = judgment.strip() == "1"
    return gold


def _escape_field(text):
    return (text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


def write_segments(report, path):
    """Write one accepted pair's aligned segments as a TSV file."""
    if not report.accepted:
        raise ValueError("segments are only written for accepted pairs")
    lines = []
    for seg in report.segments:
        lines.append("\t".join([
            _escape_field(report.pair.url1),
            _escape_field(report.pair.url2),
            str(seg.left_offset),
            str(seg.right_offset),
            _escape_field(seg.left_text),
            _escape_field(seg.right_text),
        ]))
    _write_atomic(path, "".join(line + "\n" for line in lines))


def write_candidates_tsv(pairs, path):
    lines = []
    for p in pairs:
        dist = "" if p.line_distance is None else str(p.line_distance)
        lines.append("%s\t%s\t%s\t%s" % (p.url1, p.url2, p.source_hub, dist))
    _write_atomic(path, "".join(line + "\n" for line in lines))


def read_candidates_tsv(path):
    from .candidates import CandidatePair

    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                continue
            url1, url2 = parts[0], parts[1]
            hub = parts[2] if len(parts) > 2 else ""
            dist = int(parts[3]) if len(parts) > 3 and parts[3] else None
            pairs.append(CandidatePair(url1, url2, hub, dist))
    return pairs


def _write_atomic(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _read_body(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_hub(fetcher, locator):
    if is_local(locator):
        return _read_body(local_path(locator))
    result = fetcher.fetch(locator)
    if not result.retrieved:
        raise IOError("hub %s: %s" % (locator, result.status))
    return fetcher.body(result)


def _evaluate_job(left, right, evaluator):
    """Linearize and evaluate one pair from its cached bodies.

    ``left`` and ``right`` are (locator, cache path, header charset), so a
    job sent to a worker process carries paths, never page bodies.
    Returns (EvaluationReport, None), or (None, error message) when
    reading, linearizing or evaluating raised.
    """
    try:
        docs = [linearize(_read_body(path), source_id=url, encoding=charset)
                for url, path, charset in (left, right)]
        return evaluate_pair(docs[0], docs[1], evaluator), None
    except Exception as err:
        return None, str(err)


def _evaluate_all(lefts, rights, evaluator, jobs):
    """(report, error) per pair, in input order.

    Linearize, align and the statistics are CPU-bound Python, so more than
    one pair is spread over ``jobs`` worker processes.  A worker that dies
    (killed for memory, say) breaks the pool: the outcomes collected so
    far, in order, stand, and every later pair gets an error naming that.
    """
    evaluators = itertools.repeat(evaluator)
    workers = min(jobs, len(lefts))
    if workers <= 1:
        return list(map(_evaluate_job, lefts, rights, evaluators))
    # Imported here: only a run that starts a pool needs multiprocessing.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    outcomes = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes.extend(pool.map(_evaluate_job, lefts, rights, evaluators))
    except BrokenProcessPool as err:
        error = "evaluation worker died: %s" % err
        outcomes.extend((None, error) for _ in range(len(lefts) - len(outcomes)))
    return outcomes


class ConservationError(RuntimeError):
    """Disposition counts that do not add up: a bug in the accounting."""


def check_conservation(counts):
    """Raise ConservationError unless the disposition counts conserve.

    generated = identical + unretrievable + non_html + evaluated + errors,
    and evaluated = accepted + rejected + language_filtered.
    """
    parts = (counts["identical"] + counts["unretrievable"] + counts["non_html"]
             + counts["evaluated"] + counts["errors"])
    if counts["generated"] != parts:
        raise ConservationError("generated %d != %d identical + unretrievable "
                                "+ non_html + evaluated + errors"
                                % (counts["generated"], parts))
    verdicts = counts["accepted"] + counts["rejected"] + counts["language_filtered"]
    if counts["evaluated"] != verdicts:
        raise ConservationError("evaluated %d != %d accepted + rejected "
                                "+ language_filtered"
                                % (counts["evaluated"], verdicts))


def run_pipeline(cfg, hubs):
    """Run the full pipeline over a list of hub locators.

    Returns the manifest dict; all stage outputs land under cfg.out_dir.
    """
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    started_at = time.time()
    cache = PageCache(cfg.cache_dir or os.path.join(out_dir, "cache"))
    fetcher = Fetcher(cache, cfg.fetch)

    # Stage 1: candidate generation.
    candidates_raw = []
    hub_errors = []
    for hub in hubs:
        try:
            source = _read_hub(fetcher, hub)
        except Exception as err:
            hub_errors.append({"hub": hub, "error": str(err)})
            continue
        candidates_raw.extend(extract_candidates(source, hub, cfg.generator))
    seen = set()
    generated = []
    for pair in candidates_raw:
        key = (pair.url1, pair.url2)
        if key in seen:
            continue
        seen.add(key)
        generated.append(pair)
    duplicate_entries = len(candidates_raw) - len(generated)
    write_candidates_tsv(generated, os.path.join(out_dir, "candidates.tsv"))

    # Stage 2: retrieval.
    urls = [u for pair in generated for u in (pair.url1, pair.url2)]
    results = fetcher.fetch_many(urls, cfg.jobs)

    # Stage 3: dedup identical pages, sort out failures, evaluate the rest.
    records = []
    to_evaluate = []  # record index per pair sent to evaluation
    lefts = []
    rights = []
    for idx, pair in enumerate(generated):
        r1 = results[pair.url1]
        r2 = results[pair.url2]
        record = {
            "pair_id": pair.key(),
            "url1": pair.url1,
            "url2": pair.url2,
            "source_hub": pair.source_hub,
            "line_distance": pair.line_distance,
            "fetch_status_1": r1.status,
            "fetch_status_2": r2.status,
            "disposition": None,
            "reject_reason": None,
            "mismatch_ratio": None,
            "r": None,
            "n": None,
            "p": None,
            "segments_file": None,
        }
        records.append(record)
        if r1.status in _HARD_FAILURES or r2.status in _HARD_FAILURES:
            record["disposition"] = DISP_UNRETRIEVABLE
        elif r1.status == "non_html" or r2.status == "non_html":
            record["disposition"] = DISP_NON_HTML
        elif r1.digest == r2.digest:
            record["disposition"] = DISP_IDENTICAL
        else:
            to_evaluate.append(idx)
            lefts.append((pair.url1, r1.cache_path, r1.charset))
            rights.append((pair.url2, r2.cache_path, r2.charset))
    outcomes = _evaluate_all(lefts, rights, cfg.evaluator, cfg.jobs)

    # Stage 4: optional language-dependent filtering.
    models = None
    if cfg.langid_filter:
        models = [NgramModel.load(p) for p in cfg.langid_model_paths]

    segments_dir = os.path.join(out_dir, "segments")
    pair_errors = []
    seg_counter = 0
    for idx, (report, error) in zip(to_evaluate, outcomes):
        record = records[idx]
        if error is not None:
            record["disposition"] = DISP_ERROR
            record["reject_reason"] = error
            pair_errors.append({"pair_id": record["pair_id"], "error": error})
            continue
        record["mismatch_ratio"] = report.mismatch_ratio
        record["reject_reason"] = report.reject_reason
        if report.correlation is not None:
            record["r"] = report.correlation.r
            record["n"] = report.correlation.n
            record["p"] = report.correlation.p
        if not report.accepted:
            record["disposition"] = DISP_REJECTED
            continue
        if models is not None:
            left_text = " ".join(s.left_text for s in report.segments)
            right_text = " ".join(s.right_text for s in report.segments)
            if not language_filter(report, left_text, right_text,
                                   cfg.expected_langs, models):
                record["disposition"] = DISP_LANG_FILTERED
                continue
        record["disposition"] = DISP_ACCEPTED
        seg_counter += 1
        seg_name = "pair%04d.tsv" % idx
        write_segments(report, os.path.join(segments_dir, seg_name))
        record["segments_file"] = "segments/" + seg_name

    counts = {
        "candidates_raw": len(candidates_raw),
        "duplicate_entries": duplicate_entries,
        "generated": len(generated),
        "identical": 0,
        "unretrievable": 0,
        "non_html": 0,
        "evaluated": 0,
        "accepted": 0,
        "rejected": 0,
        "language_filtered": 0,
        "errors": len(pair_errors),
        "hub_errors": len(hub_errors),
        "segment_files": seg_counter,
    }
    for record in records:
        disp = record["disposition"]
        if disp == DISP_IDENTICAL:
            counts["identical"] += 1
        elif disp == DISP_UNRETRIEVABLE:
            counts["unretrievable"] += 1
        elif disp == DISP_NON_HTML:
            counts["non_html"] += 1
        elif disp == DISP_ACCEPTED:
            counts["evaluated"] += 1
            counts["accepted"] += 1
        elif disp == DISP_REJECTED:
            counts["evaluated"] += 1
            counts["rejected"] += 1
        elif disp == DISP_LANG_FILTERED:
            counts["evaluated"] += 1
            counts["language_filtered"] += 1

    check_conservation(counts)

    manifest = {
        "config": _config_echo(cfg),
        "counts": counts,
        "hub_errors": hub_errors,
        "pair_errors": pair_errors,
        "pairs": records,
    }
    _write_atomic(os.path.join(out_dir, "reports.jsonl"),
                  "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n"
                          for r in records))
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True,
                             ensure_ascii=False) + "\n")
    _write_atomic(os.path.join(out_dir, "run_info.json"),
                  json.dumps({"started_at": started_at,
                              "finished_at": time.time()}, indent=2) + "\n")
    return manifest


def _config_echo(cfg):
    return {
        "lang1_names": sorted(cfg.generator.lang1_names),
        "lang2_names": sorted(cfg.generator.lang2_names),
        "max_line_distance": cfg.generator.max_line_distance,
        "max_hits": cfg.generator.max_hits,
        "k": cfg.evaluator.k,
        "p_threshold": cfg.evaluator.p_threshold,
        "min_pairs": cfg.evaluator.min_pairs,
        "langid_filter": cfg.langid_filter,
        "expected_langs": list(cfg.expected_langs) if cfg.expected_langs else None,
        "jobs": cfg.jobs,
    }


def score_report_files(reports_path, gold_path):
    """Score a reports.jsonl file against a gold TSV."""
    gold = load_gold(gold_path)
    records = []
    with open(reports_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["disposition"] in (DISP_ACCEPTED, DISP_REJECTED,
                                      DISP_LANG_FILTERED):
                records.append((rec["pair_id"],
                                rec["disposition"] == DISP_ACCEPTED))
    return score(records, gold)
