"""Spans around webbitext's public functions, recorded from outside.

``install`` replaces each function at the name its caller looks it up
through (``webbitext.pipeline.linearize``, ``webbitext.evaluate.align``,
``PageCache.record``, ...) with a wrapper that records one span: id,
layer name, start, end, parent span and a few counts.  Spans stay in
memory until ``write`` saves them; ``layer_metrics`` turns them into the
per-layer figures.  A span opened on a thread with no open span (the
evaluation pool's worker) takes the running ``run_pipeline`` span as its
parent.

The scanner is a generator, so its span covers the generator's lifetime
while ``busy`` sums only the time spent inside it producing events.
"""

import functools
import json
import os
import statistics
import threading
import time

_now = time.perf_counter

# Percentiles need at least this many samples beyond them to be reported.
_TAIL_SAMPLES = 10


class Tracer:
    def __init__(self):
        self.spans = []
        self.origin = _now()
        self._local = threading.local()
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = {"id": len(self.spans), "name": name,
                "parent": stack[-1]["id"] if stack else self._root,
                "start": 0.0, "end": 0.0}
        self.spans.append(span)
        return span, stack

    def wrap(self, name, fn, note=None):
        """Wrapper recording a span per call; ``note(args, result)`` adds counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, stack = self._open(name)
            stack.append(span)
            is_root = name == "pipeline"
            if is_root:
                self._root = span["id"]
            span["start"] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = _now()
                stack.pop()
                if is_root:
                    self._root = None
            if note is not None:
                span.update(note(args, result))
            return result
        return wrapper

    def wrap_generator(self, name, fn):
        """Wrapper for a generator function: busy time and items produced."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, _ = self._open(name)
            busy = 0.0
            items = 0
            gen = fn(*args, **kwargs)
            span["start"] = _now()
            try:
                while True:
                    t0 = _now()
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += _now() - t0
                        return
                    busy += _now() - t0
                    items += 1
                    yield item
            finally:
                span["end"] = _now()
                span["busy"] = busy
                span["items"] = items
        return wrapper

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - self.origin,
                           end=span["end"] - self.origin)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def install(tracer):
    """Wrap the layer boundaries of the imported webbitext package."""
    from webbitext import evaluate, fetch, htmlscan, pipeline

    htmlscan.scan = tracer.wrap_generator("htmlscan", htmlscan.scan)
    pipeline.run_pipeline = tracer.wrap("pipeline", pipeline.run_pipeline)
    pipeline.extract_candidates = tracer.wrap(
        "candidates", pipeline.extract_candidates,
        lambda a, r: {"pairs": len(r)})
    pipeline.linearize = tracer.wrap(
        "linearize", pipeline.linearize, lambda a, r: {"tokens": len(r.tokens)})
    pipeline.evaluate_pair = tracer.wrap(
        "evaluate", pipeline.evaluate_pair,
        lambda a, r: {"mismatch_reject": r.reject_reason == "mismatch"})
    pipeline.language_filter = tracer.wrap(
        "langid", pipeline.language_filter,
        lambda a, r: {"chars": len(a[1]) + len(a[2])})
    evaluate.align = tracer.wrap(
        "align", evaluate.align,
        lambda a, r: {"cells": (len(a[0].tokens) + 1) * (len(a[1].tokens) + 1)})
    evaluate.pearson_r = tracer.wrap("stats", evaluate.pearson_r)
    evaluate.p_value = tracer.wrap("stats", evaluate.p_value)
    fetch.Fetcher.fetch = tracer.wrap("fetch", fetch.Fetcher.fetch)
    fetch.PageCache.lookup = tracer.wrap(
        "fetch.lookup", fetch.PageCache.lookup, lambda a, r: {"hit": r is not None})
    fetch.PageCache.record = tracer.wrap(
        "fetch.record", fetch.PageCache.record,
        lambda a, r: {"index_bytes": os.path.getsize(a[0].index_path)})
    return pipeline.run_pipeline


def _tail(samples_ms, q):
    """Percentile ``q`` of ``samples_ms``, or 0 when too few lie beyond it."""
    if len(samples_ms) * (100 - q) / 100 < _TAIL_SAMPLES:
        return 0.0
    return statistics.quantiles(samples_ms, n=100)[q - 1]


def _union(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layer_metrics(spans):
    """Per-layer totals and counts from one traced process's spans."""
    by_name = {}
    children = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def dur(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def child_time(name, child_names):
        return sum(dur(c) for s in by_name.get(name, [])
                   for c in children.get(s["id"], []) if c["name"] in child_names)

    scans = by_name.get("htmlscan", [])
    aligns = by_name.get("align", [])
    evals = by_name.get("evaluate", [])
    align_ms = [dur(s) * 1e3 for s in aligns]
    eval_ms = [dur(s) * 1e3 for s in evals]
    lookups = by_name.get("fetch.lookup", [])
    pipeline_self = sum(
        dur(s) - _union([(c["start"], c["end"]) for c in children.get(s["id"], [])])
        for s in by_name.get("pipeline", []))
    return {
        "htmlscan.calls": len(scans),
        "htmlscan.scan_s": sum(s["busy"] for s in scans),
        "htmlscan.events": sum(s["items"] for s in scans),
        "linearize.calls": calls("linearize"),
        "linearize.s": total("linearize"),
        "linearize.tokens": sum(s["tokens"] for s in by_name.get("linearize", [])),
        "align.calls": len(aligns),
        "align.s": total("align"),
        "align.ms.p50": statistics.median(align_ms) if align_ms else 0.0,
        "align.ms.p90": _tail(align_ms, 90),
        "align.cells": sum(s["cells"] for s in aligns),
        "align.max_table_mb": max((s["cells"] for s in aligns), default=0) * 8 / 1e6,
        "evaluate.calls": len(evals),
        "evaluate.s": total("evaluate"),
        "evaluate.self_s": total("evaluate") - child_time("evaluate", ("align", "stats")),
        "evaluate.pair_ms.p50": statistics.median(eval_ms) if eval_ms else 0.0,
        "evaluate.pair_ms.p90": _tail(eval_ms, 90),
        "evaluate.mismatch_rejects": sum(s["mismatch_reject"] for s in evals),
        "stats.calls": calls("stats"),
        "stats.s": total("stats"),
        "langid.calls": calls("langid"),
        "langid.s": total("langid"),
        "langid.chars": sum(s["chars"] for s in by_name.get("langid", [])),
        "candidates.calls": calls("candidates"),
        "candidates.extract_s": total("candidates"),
        "candidates.pairs": sum(s["pairs"] for s in by_name.get("candidates", [])),
        "fetch.calls": calls("fetch"),
        "fetch.fetch_s": total("fetch") - child_time("fetch", ("fetch.lookup", "fetch.record")),
        "fetch.records": calls("fetch.record"),
        "fetch.record_s": total("fetch.record"),
        "fetch.index_bytes_written": sum(
            s["index_bytes"] for s in by_name.get("fetch.record", [])),
        "fetch.lookup_s": total("fetch.lookup"),
        "fetch.cache_hits": sum(1 for s in lookups if s["hit"]),
        "fetch.cache_misses": sum(1 for s in lookups if not s["hit"]),
        "pipeline.calls": calls("pipeline"),
        "pipeline.self_s": pipeline_self,
    }
