"""One timed process: run_pipeline over prepared inputs, then report.

Usage: python3 bench_pass.py CONFIG_JSON

CONFIG_JSON holds ``dir`` (the set-up directory with expect.json and the
models), ``passes`` (a list of ``{"out", "cache", "jobs"}``, run in order
in this one process; jobs 0 means the program's default) and ``spans``
(a path to write spans to, or null for an untraced pass).
Prints one JSON line: each pass's run_pipeline seconds and the byte range
of the server log it produced (crawl-http), this process's peak resident
memory, and with tracing on, the per-layer figures of the whole process
and of each pass.
"""

import json
import os
import sys
import time


def peak_rss_mb():
    """This process's peak resident memory since its exec.

    getrusage's ru_maxrss is not used: Linux carries it across exec, so a
    child would report its parent's size at fork time when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    cfg = json.loads(sys.argv[1])
    with open(os.path.join(cfg["dir"], "expect.json"), encoding="utf-8") as fh:
        expect = json.load(fh)

    from webbitext import (FetchPolicy, GeneratorConfig, PipelineConfig,
                           pipeline)

    import workloads

    tracer = None
    if cfg["spans"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    langid = {}
    if expect["langid_filter"]:
        langid = dict(langid_filter=True,
                      langid_model_paths=tuple(cfg["models"]),
                      expected_langs=("en", "es"))
    log = os.path.join(cfg["dir"], "server.log")
    seconds = []
    log_offsets = []
    span_ranges = []
    for p in cfg["passes"]:
        config = PipelineConfig(
            generator=GeneratorConfig(frozenset(workloads.LANG1_NAMES),
                                      frozenset(workloads.LANG2_NAMES)),
            fetch=FetchPolicy(min_interval=0.0),
            out_dir=p["out"], cache_dir=p["cache"], jobs=p["jobs"], **langid)
        before = os.path.getsize(log) if expect["ports"] else None
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        pipeline.run_pipeline(config, expect["hubs"])
        seconds.append(time.perf_counter() - t0)
        span_ranges.append((first_span, len(tracer.spans) if tracer else 0))
        log_offsets.append([before, os.path.getsize(log)] if expect["ports"] else None)
    result = {"seconds": seconds, "log_offsets": log_offsets,
              "maxrss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["pass_layers"] = [tracing.layer_metrics(tracer.spans[a:b])
                                 for a, b in span_ranges]
        tracer.write(cfg["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
