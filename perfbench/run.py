"""Benchmark for webbitext: seeded workloads through the public run_pipeline.

Run from the repository root:

  python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all        # the three workloads in turn

A run sets up SETUPS times in fresh processes (the last set-up stays up
and serves the passes), then repeats whole rounds until ``--seconds``
have passed.  Each pass is its own fresh process, timed around
run_pipeline only.  With ``--trace 0`` a round is three passes:

  wall    default jobs, empty cache
  serial  jobs=1, its own empty cache; its process gives peak_rss_mb
  rerun   default jobs, over the cache the wall pass filled (three times
          on crawl-http, where the round reports their median)

With ``--trace 1`` a round is an untraced jobs=1 process and a traced one
(each a cold pass, plus a warm pass over the same cache on crawl-http),
and the figures are per layer.  Every pass's outputs are checked
(checks.py); the last stdout line is the JSON result.  Spans of the last
traced round go to .perfbench_work/spans/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
PASS_TIMEOUT = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "serial_s": "s", "rerun_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "htmlscan.calls": "count", "htmlscan.scan_s": "s", "htmlscan.events": "count",
    "linearize.calls": "count", "linearize.s": "s", "linearize.tokens": "count",
    "align.calls": "count", "align.s": "s", "align.ms.p50": "ms",
    "align.ms.p90": "ms", "align.cells": "count", "align.max_table_mb": "MB",
    "evaluate.calls": "count", "evaluate.s": "s", "evaluate.self_s": "s",
    "evaluate.pair_ms.p50": "ms", "evaluate.pair_ms.p90": "ms",
    "evaluate.mismatch_rejects": "count",
    "stats.calls": "count", "stats.s": "s",
    "langid.calls": "count", "langid.s": "s", "langid.chars": "count",
    "candidates.calls": "count", "candidates.extract_s": "s",
    "candidates.pairs": "count",
    "fetch.calls": "count", "fetch.fetch_s": "s", "fetch.requests": "count",
    "fetch.bytes": "bytes", "fetch.records": "count", "fetch.record_s": "s",
    "fetch.index_bytes_written": "bytes", "fetch.lookup_s": "s",
    "fetch.cache_hits": "count", "fetch.cache_misses": "count",
    "pipeline.calls": "count", "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}

# Time metrics compared to name the largest layers of a traced pass.
LAYER_TIMES = ("htmlscan.scan_s", "align.s", "evaluate.self_s", "stats.s",
               "langid.s", "candidates.extract_s", "fetch.fetch_s",
               "fetch.record_s", "fetch.lookup_s", "pipeline.self_s")


class Run:
    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = os.path.join(root, ".perfbench_work",
                                 "%s-%d-%d" % (workload, seed, os.getpid()))
        pythonpath = [os.path.join(root, "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.live = None
        self.reference = None
        self.attempted = 0
        self.notes = []

    # -- set-up ----------------------------------------------------------

    def _stop(self, proc):
        proc.stdin.close()
        proc.wait()

    def setup(self):
        """Time SETUPS set-ups (median in ``setup_s``); the last stays up."""
        times = []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "bench_setup.py"), self.workload,
                 str(self.seed), os.path.join(self.work, "setup%d" % k)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True)
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            if not line:
                proc.stdin.close()
                raise RuntimeError("set-up exited with code %s" % proc.wait())
            ready = json.loads(line)["ready"]
            if k < SETUPS - 1:
                self._stop(proc)
                shutil.rmtree(ready["dir"])
            else:
                self.live = proc
                self.dir, self.models = ready["dir"], ready["models"]
        self.setup_s = statistics.median(times)
        with open(os.path.join(self.dir, "expect.json"), encoding="utf-8") as fh:
            self.expect = json.load(fh)
        self.expected = checks.expected_dispositions(self.expect)

    def close(self):
        if self.live is not None:
            self._stop(self.live)
            self.live = None
        shutil.rmtree(self.work, ignore_errors=True)

    # -- passes ------------------------------------------------------------

    def run_process(self, passes, spans=None):
        """One fresh process running ``passes``; checks each pass's outputs."""
        cfg = {"dir": self.dir, "models": self.models, "passes": passes,
               "spans": spans}
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_pass.py"), json.dumps(cfg)],
            capture_output=True, text=True, env=self.env, timeout=PASS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("pass process failed:\n" + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["requests"] = []
        for p, offsets in zip(passes, result["log_offsets"]):
            if offsets is not None:
                rows = checks.read_requests(os.path.join(self.dir, "server.log"),
                                            *offsets)
                checks.check_requests(self.expect, rows, p["cold"])
                result["requests"].extend(rows)
            self.check(p["out"])
        return result

    def check(self, out_dir):
        outputs = checks.load_outputs(out_dir)
        attempted, notes = checks.count_operations(
            self.expect, self.expected, outputs)
        self.attempted += attempted
        self.notes.extend(notes)
        checks.check_conservation(outputs)
        if self.reference is None:
            self.reference = outputs
        else:
            checks.check_same(self.reference, outputs)

    def rounds(self, seconds, one_round):
        """Whole rounds while the next one is expected to end within ``seconds``."""
        results = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            rd = os.path.join(self.work, "round%d" % len(results))
            results.append(one_round(rd))
            shutil.rmtree(rd)
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - start + longest > seconds:
                return results

    def timed_round(self, rd):
        def p(name, cache, jobs, cold):
            return {"out": os.path.join(rd, name), "cache": os.path.join(rd, cache),
                    "jobs": jobs, "cold": cold}
        wall = self.run_process([p("wall", "cache-a", 0, True)])
        serial = self.run_process([p("serial", "cache-b", 1, True)])
        reruns = [self.run_process([p("rerun%d" % k, "cache-a", 0, False)])["seconds"][0]
                  for k in range(workloads.RERUNS[self.workload])]
        return {"setup_s": self.setup_s,
                "wall_s": wall["seconds"][0], "serial_s": serial["seconds"][0],
                "rerun_s": statistics.median(reruns), "peak_rss_mb": serial["maxrss_mb"]}

    def traced_round(self, rd):
        def passes(tag):
            cache = os.path.join(rd, "cache-" + tag)
            out = [{"out": os.path.join(rd, tag + "-cold"), "cache": cache,
                    "jobs": 1, "cold": True}]
            if self.expect["ports"]:
                out.append({"out": os.path.join(rd, tag + "-warm"), "cache": cache,
                            "jobs": 1, "cold": False})
            return out
        plain = self.run_process(passes("plain"))
        spans = os.path.join(self.root, ".perfbench_work", "spans",
                             "%s-seed%d.jsonl" % (self.workload, self.seed))
        traced = self.run_process(passes("traced"), spans=spans)
        layers = traced["layers"]
        layers["fetch.requests"] = len(traced["requests"])
        layers["fetch.bytes"] = sum(r[3] for r in traced["requests"])
        layers["trace.overhead_s"] = sum(traced["seconds"]) - sum(plain["seconds"])
        self.pass_layers = traced["pass_layers"]
        return layers


def run_workload(workload, seed, seconds, trace, root):
    run = Run(workload, seed, root)
    units = PER_LAYER if trace else END_TO_END
    correct = True
    try:
        run.setup()
        rounds = run.rounds(seconds, run.traced_round if trace else run.timed_round)
        checks.check_deep(run.expect, run.reference)
    except checks.CheckError as err:
        print("%s: output check failed: %s" % (workload, err), file=sys.stderr)
        correct = False
    finally:
        run.close()
    for note in run.notes[:20]:
        print("%s: failed operation: %s" % (workload, note), file=sys.stderr)
    metrics = {}
    if correct:
        for name, unit in units.items():
            metrics[name] = {"value": statistics.median(r[name] for r in rounds),
                             "unit": unit}
        print("%s seed %d: %d round(s), %d operations, %d failed"
              % (workload, seed, len(rounds), run.attempted, len(run.notes)))
        for name, m in metrics.items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
        for tag, layers in zip(("cold", "warm"), run.pass_layers if trace else ()):
            top = sorted((v, k) for k, v in layers.items() if k in LAYER_TIMES)[::-1]
            print("  %s pass, largest layers: %s" % (tag, ", ".join(
                "%s %.3f s" % (k, v) for v, k in top[:3])))
    return {"correct": correct, "attempted": run.attempted,
            "failed": len(run.notes), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "webbitext", "__init__.py")):
        print("run from the repository root: no src/webbitext under %s" % root,
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, root)
        print(json.dumps(result))
        if not result["correct"] or result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
