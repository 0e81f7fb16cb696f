"""End-to-end orchestration: generate, fetch, triage, evaluate, filter, write.

``run_pipeline`` is a short sequence of stage calls, and the CLI's
``generate`` and ``fetch`` subcommands call the same stages.  Stages
write plain files under one output directory:

  candidates.tsv   url1 <TAB> url2 <TAB> source_hub <TAB> line_distance
  reports.jsonl    one JSON record per candidate pair, every disposition
  segments/        one TSV per accepted pair with aligned segment texts,
                   written by the run as each pair's outcome arrives (a
                   failed write makes that pair an error)
  manifest.json    per-disposition counts and per-pair outcomes
  run_info.json    wall-clock timestamps and how many verdicts were reused
                   from the page cache or evaluated (kept out of the
                   manifest so two runs over the same corpus produce
                   byte-identical manifests)

Each evaluated pair's verdict is kept in the page cache as one entry: its
record fields and, when accepted, its segments text.  A run's scope is
one digest of what decides all its verdicts (this package's source with
the Python and numpy versions, the evaluator's thresholds, the language
filter's model bytes and expected tags), and a pair's key hashes both
locators, body digests and header charsets.  A later run with the same
scope reuses the entry instead of evaluating the pair again, so a rerun
over a filled cache evaluates nothing; an error is never kept.  A pair
that is evaluated reads its bodies by locator and digest: a local page in
place, an HTTP page from the cache's objects, and a body that no longer
matches its digest makes the pair an error.

A hub is fetched like any page, and one not retrieved is a hub error.
Dispositions conserve: generated = identical + unretrievable + non_html
+ evaluated + errors, and evaluated = accepted + rejected (+
language_filtered when language models are given, which turns the
optional language filter on).  A pair listed twice, by one hub or
several, is generated once, from its first listing.  Gold labels are a
two-column TSV of pair id and 0/1, where a pair id is the two locators
joined by a single space.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

from .candidates import CandidatePair, GeneratorConfig, extract_candidates
from .evaluate import EvaluatorConfig, evaluate_pair
from .fetch import STATUS_NON_HTML, FetchPolicy, Fetcher, PageCache, write_atomic
from .langid import NgramModel, language_filter
from .linearize import linearize

DISP_IDENTICAL = "identical"
DISP_UNRETRIEVABLE = "unretrievable"
DISP_NON_HTML = "non_html"
DISP_ACCEPTED = "accepted"
DISP_REJECTED = "rejected"
DISP_LANG_FILTERED = "language_filtered"
DISP_ERROR = "error"
# The verdicts of an evaluated pair; each is also its manifest count key.
EVALUATED = (DISP_ACCEPTED, DISP_REJECTED, DISP_LANG_FILTERED)


def worker_count(jobs):
    """How many workers ``jobs`` asks for: itself, or one per CPU when <= 0."""
    return jobs if jobs > 0 else os.cpu_count() or 1


@dataclass
class PipelineConfig:
    generator: GeneratorConfig
    evaluator: EvaluatorConfig = field(default_factory=EvaluatorConfig)
    fetch: FetchPolicy = field(default_factory=FetchPolicy)
    out_dir: str = "webbitext_out"
    cache_dir: str | None = None
    langid_filter: bool = False  # on exactly when model paths are given
    langid_model_paths: tuple = ()
    expected_langs: tuple | None = None
    jobs: int = 0

    def __post_init__(self):
        self.jobs = worker_count(self.jobs)
        if self.expected_langs is not None and len(self.expected_langs) != 2:
            raise ValueError("expected languages must be two tags, the left "
                             "and the right page's: %r" % (self.expected_langs,))
        if not self.langid_filter:
            if self.langid_model_paths or self.expected_langs is not None:
                raise ValueError("language models or expected language tags "
                                 "are given, but the language filter is off")
        elif not self.langid_model_paths or not self.expected_langs:
            raise ValueError("language filter needs model paths and "
                             "expected language tags")
        for path in self.langid_model_paths:
            if not os.path.exists(path):
                raise ValueError("missing language model: %s" % path)


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


def score(records, gold):
    """Precision/recall of accept decisions against gold judgments.

    ``records`` is an iterable of (pair_id, accepted); ``gold`` maps pair
    ids to booleans and must cover every record.
    """
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
    """A gold TSV (pair id <TAB> 0 or 1, ``#`` comments) as a dict of
    booleans.  A line with no pair id, a judgment other than 0 or 1, or a
    pair id seen before raises ValueError naming ``path:line``."""
    gold = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            pid, _, judgment = line.rpartition("\t")
            judgment = judgment.strip()
            if not pid or judgment not in ("0", "1") or pid in gold:
                raise ValueError("%s:%d: not a new pair id, a tab and 0 or 1: "
                                 "%r" % (path, number, line))
            gold[pid] = judgment == "1"
    return gold


def _escape_field(text):
    return (text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


def segments_text(report):
    """One accepted pair's aligned segments as TSV text."""
    if not report.accepted:
        raise ValueError("segments are only made for accepted pairs")
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
    return "".join(line + "\n" for line in lines)


def candidates_tsv(pairs):
    """The candidates.tsv text: url1, url2, source hub, line distance."""
    return "".join("%s\t%s\t%s\t%s\n" % (
        p.url1, p.url2, p.source_hub,
        "" if p.line_distance is None else p.line_distance) for p in pairs)


def write_candidates_tsv(pairs, path):
    write_atomic(path, candidates_tsv(pairs).encode("utf-8"))


def read_candidates_tsv(path):
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


def read_hub(fetcher, locator):
    """(body bytes, header charset) of one hub, fetched like any page: a
    local hub is read in place, and its charset is "".  A hub that is not
    retrieved raises OSError "hub <locator>: <status>[: <detail>]"."""
    result = fetcher.fetch(locator)
    if not result.retrieved:
        detail = ": " + result.detail if result.detail else ""
        raise OSError("hub %s: %s%s" % (locator, result.status, detail))
    return fetcher.body(result), result.charset


# The record fields an evaluation report fills in, besides the disposition.
_REPORT_FIELDS = ("reject_reason", "mismatch_ratio", "r", "n", "p")


def _number_in(value, low, high):
    """True for an int or float (a bool is neither) in [low, high]."""
    return type(value) in (int, float) and low <= value <= high


def _reusable(entry):
    """True when a stored verdict entry has the shape and value types
    ``_evaluate_job`` gives it: a disposition in EVALUATED plus exactly
    _REPORT_FIELDS, segments text exactly when the pair is accepted, a
    mismatch ratio in [0, 1], r in [-1, 1], p in [0, 1] and n an int of at
    least 0 (each of those three may be None), and a reject reason that is
    None or a str."""
    fields = entry["fields"]
    if not (isinstance(fields, dict)
            and fields.keys() == {"disposition", *_REPORT_FIELDS}
            and fields["disposition"] in EVALUATED
            and isinstance(entry["segments"], str)
            == (fields["disposition"] == DISP_ACCEPTED)):
        return False
    r, n, p = fields["r"], fields["n"], fields["p"]
    return (_number_in(fields["mismatch_ratio"], 0, 1)
            and (r is None or _number_in(r, -1, 1))
            and (p is None or _number_in(p, 0, 1))
            and (n is None or type(n) is int and n >= 0)
            and (fields["reject_reason"] is None
                 or isinstance(fields["reject_reason"], str)))


def _error_entry(reason):
    """The entry of a pair that could not be evaluated, which is never stored."""
    return {"fields": {"disposition": DISP_ERROR, "reject_reason": reason},
            "segments": None}


def _evaluate_job(job, cache, evaluator, langid):
    """One pair's verdict entry, computed from its bodies.

    ``job`` is (left, right), a side being (locator, body digest, header
    charset), so a job sent to a worker process carries no page body: it
    reads each through ``cache.body``, a local page in place and an HTTP
    page from the cache, and a body that does not match its digest raises.
    ``langid`` is None, or (models, expected language tags) to run the
    language filter over an accepted pair's segment texts.  The entry is
    {"fields": the record fields, "segments": an accepted pair's segments
    text, else None}.  The job writes nothing.  When anything raises, the
    entry is an error with the exception's message as its reason.
    """
    try:
        docs = [linearize(cache.body(url, digest), source_id=url, encoding=charset)
                for url, digest, charset in job]
        report = evaluate_pair(docs[0], docs[1], evaluator)
        disposition = DISP_ACCEPTED if report.accepted else DISP_REJECTED
        if report.accepted and langid is not None:
            models, expected = langid
            if not language_filter(
                    report, " ".join(s.left_text for s in report.segments),
                    " ".join(s.right_text for s in report.segments),
                    expected, models):
                disposition = DISP_LANG_FILTERED
        fields = report.to_dict()
        fields = dict({name: fields[name] for name in _REPORT_FIELDS},
                      disposition=disposition)
        segments = segments_text(report) if disposition == DISP_ACCEPTED else None
        return {"fields": fields, "segments": segments}
    except Exception as err:
        return _error_entry(str(err))


# What every job of a run shares, (cache, evaluator, langid), set once
# per worker process by the pool's initializer.
_worker_context = None


def _init_worker(*context):
    global _worker_context
    _worker_context = context


def _worker_job(job):
    return _evaluate_job(job, *_worker_context)


def _evaluate_all(jobs, context, workers):
    """Yield each job's entry, in input order, as it arrives.

    Linearize, align, the statistics and the language filter are CPU-bound
    Python, so more than one job is spread over up to ``workers`` worker
    processes.  Each worker gets ``context``, the rest of ``_evaluate_job``'s
    arguments, once from the pool's initializer.  A worker that dies
    (killed for memory, say) breaks the pool: the entries yielded so far
    stand, and every later pair is an error naming that.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from (_evaluate_job(job, *context) for job in jobs)
        return
    # Imported here: only a run that starts a pool needs multiprocessing.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    done = 0
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=context) as pool:
            for entry in pool.map(_worker_job, jobs):
                done += 1
                yield entry
    except BrokenProcessPool as err:
        error = _error_entry("evaluation worker died: %s" % err)
        yield from [error] * (len(jobs) - done)


def _sha256_json(doc):
    """The SHA-256 hex digest of ``doc`` as canonical JSON."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


@functools.cache
def _code_fingerprint():
    """This package's source and the runtime that runs it, for verdict scopes.

    The SHA-256 over every ``*.py`` module of the package in name order,
    with the Python and numpy versions: any code change gives a new scope.
    Computed once per process, on first use, never at import.
    """
    import numpy  # loaded already: align and stats use it

    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0"
                      + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest(), sys.version, numpy.__version__


def _verdict_scope(cfg):
    """The digest of what decides every pair's verdict in this run, besides
    the pair: the code, the evaluator and the language filter."""
    langid = None
    if cfg.langid_filter:
        langid = {"models": [hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
                             for p in cfg.langid_model_paths],
                  "expected_langs": list(cfg.expected_langs)}
    return _sha256_json({"code": _code_fingerprint(),
                         "evaluator": asdict(cfg.evaluator),
                         "evaluator_class": type(cfg.evaluator).__name__,
                         "langid": langid})


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
    verdicts = sum(counts[d] for d in EVALUATED)
    if counts["evaluated"] != verdicts:
        raise ConservationError("evaluated %d != %d %s"
                                % (counts["evaluated"], verdicts,
                                   " + ".join(EVALUATED)))


def generate_candidates(fetcher, hubs, generator):
    """Candidate pairs from the first ``generator.max_hits`` hubs, each once.

    The first listing of a pair wins, so its source hub and line distance
    are those of the earliest hub that lists it.  Returns (pairs, number
    of listings before the dedup, hub errors); a hub that cannot be read
    (see ``read_hub``) or parsed is a {"hub", "type", "error"} entry, not
    a failure, where "type" names the exception's class.
    """
    pairs = {}
    listed = 0
    hub_errors = []
    for hub in hubs[:generator.max_hits]:
        try:
            source, charset = read_hub(fetcher, hub)
            found = extract_candidates(source, hub, generator,
                                       encoding=charset)
        except Exception as err:
            hub_errors.append({"hub": hub, "type": type(err).__name__,
                               "error": str(err)})
            continue
        listed += len(found)
        for pair in found:
            pairs.setdefault((pair.url1, pair.url2), pair)
    return list(pairs.values()), listed, hub_errors


def triage(pair, results):
    """The report record of one pair, with what fetching alone decides.

    The disposition is unretrievable, non_html or identical, or None when
    both pages arrived as different HTML bodies, which leaves the pair to
    evaluation.
    """
    r1, r2 = results[pair.url1], results[pair.url2]
    failures = {r.status for r in (r1, r2) if not r.retrieved}
    if failures - {STATUS_NON_HTML}:
        disposition = DISP_UNRETRIEVABLE
    elif failures:
        disposition = DISP_NON_HTML
    elif r1.digest == r2.digest:
        disposition = DISP_IDENTICAL
    else:
        disposition = None
    return {
        "pair_id": pair.key(),
        "url1": pair.url1,
        "url2": pair.url2,
        "source_hub": pair.source_hub,
        "line_distance": pair.line_distance,
        "fetch_status_1": r1.status,
        "fetch_status_2": r2.status,
        "disposition": disposition,
        **dict.fromkeys(_REPORT_FIELDS),
        "segments_file": None,
    }


def evaluate_records(records, results, cache, cfg):
    """Settle every record triage left open, each pair once.

    First the run's verdict scope is marked in use in ``cache``, which
    removes what is long idle there.  A pair whose verdict is in that
    scope, in the shape a job gives it, takes its entry from there; every
    other pair is evaluated in its own job, which reads the bodies by
    locator and digest through ``cache`` and returns the entry.
    The language models are loaded before any pair is evaluated, so a bad
    model file raises first, and only when some pair has no entry.  Each
    outcome is settled as it arrives.  Returns the number of verdicts
    reused and evaluated.
    """
    def side(url):
        return url, results[url].digest, results[url].charset

    def settle(record, idx, key, entry):
        """Fill ``record`` from ``entry``, a new verdict's under ``key`` or
        a reused one's (``key`` None).  A new verdict is stored before the
        segments file is written, so neither write is ever undone; an
        OSError from either makes the pair an error."""
        fields = entry["fields"]
        try:
            if key is not None and fields["disposition"] in EVALUATED:
                cache.store_verdict(scope, key, entry)
            if fields["disposition"] == DISP_ACCEPTED:
                name = "segments/pair%04d.tsv" % idx
                write_atomic(os.path.join(cfg.out_dir, name),
                             entry["segments"].encode("utf-8"))
                record["segments_file"] = name
        except OSError as err:
            fields = _error_entry(str(err))["fields"]
        record.update(fields)

    scope = _verdict_scope(cfg)
    cache.use_scope(scope)
    reused, misses = 0, []
    for idx, record in enumerate(records):
        if record["disposition"] is not None:
            continue
        job = (side(record["url1"]), side(record["url2"]))
        key = _sha256_json(job)
        entry = cache.verdict(scope, key)
        if entry is None or not _reusable(entry):
            misses.append((record, idx, key, job))
        else:
            settle(record, idx, None, entry)
            reused += 1
    langid = None
    if cfg.langid_filter and misses:
        langid = ([NgramModel.load(p) for p in cfg.langid_model_paths],
                  cfg.expected_langs)
    entries = _evaluate_all([job for *_, job in misses],
                            (cache, cfg.evaluator, langid), cfg.jobs)
    for (record, idx, key, _), entry in zip(misses, entries):
        settle(record, idx, key, entry)
    return {"reused": reused, "evaluated": len(misses)}


def count_dispositions(records, listed, hub_errors):
    """The manifest counts, tallied from the records' dispositions."""
    tally = Counter(record["disposition"] for record in records)
    return {
        "candidates_raw": listed,
        "duplicate_entries": listed - len(records),
        "generated": len(records),
        "identical": tally[DISP_IDENTICAL],
        "unretrievable": tally[DISP_UNRETRIEVABLE],
        "non_html": tally[DISP_NON_HTML],
        "evaluated": sum(tally[d] for d in EVALUATED),
        "accepted": tally[DISP_ACCEPTED],
        "rejected": tally[DISP_REJECTED],
        "language_filtered": tally[DISP_LANG_FILTERED],
        "errors": tally[DISP_ERROR],
        "hub_errors": len(hub_errors),
        "segment_files": tally[DISP_ACCEPTED],
    }


def write_outputs(out_dir, manifest, started_at, verdicts):
    """reports.jsonl, manifest.json and run_info.json."""
    reports = "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n"
                      for r in manifest["pairs"])
    write_atomic(os.path.join(out_dir, "reports.jsonl"), reports.encode("utf-8"))
    text = json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False)
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 (text + "\n").encode("utf-8"))
    text = json.dumps({"started_at": started_at, "finished_at": time.time(),
                       "verdicts": verdicts}, indent=2)
    write_atomic(os.path.join(out_dir, "run_info.json"),
                 (text + "\n").encode("utf-8"))


def run_pipeline(cfg, hubs):
    """Run the full pipeline over a list of hub locators.

    Returns the manifest dict; all stage outputs land under cfg.out_dir.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    started_at = time.time()
    cache = PageCache(cfg.cache_dir or os.path.join(cfg.out_dir, "cache"))
    fetcher = Fetcher(cache, cfg.fetch)
    pairs, listed, hub_errors = generate_candidates(fetcher, hubs, cfg.generator)
    write_candidates_tsv(pairs, os.path.join(cfg.out_dir, "candidates.tsv"))
    results = fetcher.fetch_many([u for p in pairs for u in (p.url1, p.url2)],
                                 cfg.jobs)
    records = [triage(pair, results) for pair in pairs]
    verdicts = evaluate_records(records, results, cache, cfg)
    counts = count_dispositions(records, listed, hub_errors)
    check_conservation(counts)
    manifest = {
        "config": _config_echo(cfg),
        "counts": counts,
        "hub_errors": hub_errors,
        "pair_errors": [{"pair_id": r["pair_id"], "error": r["reject_reason"]}
                        for r in records if r["disposition"] == DISP_ERROR],
        "pairs": records,
    }
    write_outputs(cfg.out_dir, manifest, started_at, verdicts)
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
            if rec["disposition"] in EVALUATED:
                records.append((rec["pair_id"],
                                rec["disposition"] == DISP_ACCEPTED))
    return score(records, gold)
