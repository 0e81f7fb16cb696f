"""Output checks computed apart from the program.

Expected dispositions come from how each pair was built (workloads.py):
fixed for identical, missing, empty, non-HTML, robots-denied, 404 and
alien pairs, and from scipy's Pearson r and p over the generated lengths
for pairs whose two pages share one skeleton.  Nothing here imports
webbitext.

A pair or hub whose outcome differs from its construction is a failed
operation.  Everything else that disagrees (r, n or p against scipy, the
alien mismatch bound, disposition conservation, byte-identity between
passes, the server's request log) raises CheckError.
"""

import json
import os
import re

from scipy import stats as sps

import workloads

K = 0.20
P_THRESHOLD = 0.05
MIN_PAIRS = 3
_R_TOL = 1e-9
_P_ABS_TOL = 1e-9
_P_REL_TOL = 1e-6


class CheckError(Exception):
    pass


def _require(cond, message, *args):
    if not cond:
        raise CheckError(message % args)


def pair_key(entry):
    return "%s %s" % (entry["url1"], entry["url2"])


def length_test(xs, ys):
    """(n, r, p) over the unequal-length pairs, by scipy; r, p None if undefined."""
    pts = [(x, y) for x, y in zip(xs, ys) if x != y]
    n = len(pts)
    if n < MIN_PAIRS or len({x for x, _ in pts}) < 2 or len({y for _, y in pts}) < 2:
        return n, None, None
    res = sps.pearsonr([x for x, _ in pts], [y for _, y in pts])
    return n, float(res.statistic), float(res.pvalue)


def expected_dispositions(expect):
    """pair id -> disposition implied by the pair's construction."""
    out = {}
    for entry in expect["pairs"]:
        kind = entry["kind"]
        if kind in workloads.FIXED_DISPOSITION:
            disp = workloads.FIXED_DISPOSITION[kind]
        else:
            _, r, p = length_test(entry["x"], entry["y"])
            accepted = r is not None and r > 0 and p < P_THRESHOLD
            if not accepted:
                disp = "rejected"
            elif kind == "same_language" and expect["langid_filter"]:
                disp = "language_filtered"
            else:
                disp = "accepted"
        out[pair_key(entry)] = disp
    return out


def load_outputs(out_dir):
    with open(os.path.join(out_dir, "reports.jsonl"), "rb") as fh:
        reports = fh.read()
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seg_dir = os.path.join(out_dir, "segments")
    segments = {}
    if os.path.isdir(seg_dir):
        for name in sorted(os.listdir(seg_dir)):
            with open(os.path.join(seg_dir, name), "rb") as fh:
                segments[name] = fh.read()
    records = [json.loads(line) for line in reports.decode("utf-8").splitlines()]
    return {"dir": out_dir, "reports": reports, "manifest": manifest,
            "segments": segments, "records": records}


def count_operations(expect, expected, outputs):
    """(attempted, one note per failed operation) for one pass: hubs plus pairs."""
    notes = []
    hub_errors = outputs["manifest"]["hub_errors"]
    notes.extend("hub error: %s" % e for e in hub_errors)
    by_id = {rec["pair_id"]: rec for rec in outputs["records"]}
    for pid, disp in expected.items():
        rec = by_id.get(pid)
        got = rec["disposition"] if rec else "missing from reports"
        if got != disp:
            notes.append("%s: expected %s, got %s" % (pid, disp, got))
    extra = set(by_id) - set(expected)
    notes.extend("unexpected pair %s" % pid for pid in sorted(extra))
    return len(expect["hubs"]) + len(expected), notes


def check_conservation(outputs):
    counts = outputs["manifest"]["counts"]
    tally = {}
    for rec in outputs["records"]:
        tally[rec["disposition"]] = tally.get(rec["disposition"], 0) + 1
    evaluated = sum(tally.get(d, 0) for d in ("accepted", "rejected", "language_filtered"))
    _require(len(outputs["records"]) == counts["generated"],
             "%d report lines but %d generated", len(outputs["records"]), counts["generated"])
    _require(counts["generated"] == counts["identical"] + counts["unretrievable"]
             + counts["non_html"] + counts["evaluated"] + counts["errors"],
             "generated does not conserve: %s", counts)
    _require(counts["evaluated"] == counts["accepted"] + counts["rejected"]
             + counts["language_filtered"], "evaluated does not conserve: %s", counts)
    for name in ("identical", "unretrievable", "non_html", "accepted", "rejected",
                 "language_filtered"):
        _require(counts[name] == tally.get(name, 0), "manifest %s=%d, reports %d",
                 name, counts[name], tally.get(name, 0))
    _require(counts["evaluated"] == evaluated, "manifest evaluated=%d, reports %d",
             counts["evaluated"], evaluated)


def check_same(ref, other):
    """Byte-identical reports and segments; manifests equal but for config.jobs."""
    _require(ref["reports"] == other["reports"],
             "reports.jsonl differs between %s and %s", ref["dir"], other["dir"])
    _require(ref["segments"] == other["segments"],
             "segments differ between %s and %s", ref["dir"], other["dir"])
    a = json.loads(json.dumps(ref["manifest"]))
    b = json.loads(json.dumps(other["manifest"]))
    a["config"].pop("jobs")
    b["config"].pop("jobs")
    _require(a == b, "manifest.json differs between %s and %s beyond config.jobs",
             ref["dir"], other["dir"])


def _close(a, b, abs_tol, rel_tol=0.0):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def _unescape(field):
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m.group(1), m.group(1)), field)


def _text_length(text):
    return len("".join(text.split()))


def segment_lengths(data):
    """(left, right) non-whitespace lengths of each line of a segments file."""
    out = []
    for line in data.decode("utf-8").splitlines():
        fields = line.split("\t")
        _require(len(fields) == 6, "segments line has %d fields", len(fields))
        out.append((_text_length(_unescape(fields[4])),
                    _text_length(_unescape(fields[5]))))
    return out


def check_deep(expect, outputs):
    """r, n, p and mismatch bounds against values computed here."""
    by_id = {rec["pair_id"]: rec for rec in outputs["records"]}
    for entry in expect["pairs"]:
        rec = by_id.get(pair_key(entry))
        if rec is None:
            continue  # already a failed operation
        if "x" in entry and rec["disposition"] in ("accepted", "rejected",
                                                   "language_filtered"):
            n, r, p = length_test(entry["x"], entry["y"])
            _require(rec["mismatch_ratio"] == 0.0,
                     "%s: same skeletons but mismatch ratio %s",
                     rec["pair_id"], rec["mismatch_ratio"])
            _require(rec["n"] == n and _close(rec["r"], r, _R_TOL)
                     and _close(rec["p"], p, _P_ABS_TOL, _P_REL_TOL),
                     "%s: reported r=%s n=%s p=%s, scipy r=%s n=%s p=%s",
                     rec["pair_id"], rec["r"], rec["n"], rec["p"], r, n, p)
        if entry["kind"] == "alien":
            (tags1, chunks1), (tags2, chunks2) = entry["skeleton1"], entry["skeleton2"]
            labels = set(tags1) | set(tags2)
            unmatched = (2 * sum(abs(tags1.get(t, 0) - tags2.get(t, 0)) for t in labels)
                         + abs(chunks1 - chunks2))
            total = (workloads.skeleton_tokens(tags1, chunks1)
                     + workloads.skeleton_tokens(tags2, chunks2))
            bound = unmatched / total
            _require(bound > K, "%s: alien pair built with bound %.3f <= K",
                     rec["pair_id"], bound)
            _require(bound <= rec["mismatch_ratio"] + 1e-12
                     and rec["reject_reason"] == "mismatch",
                     "%s: mismatch bound %.4f, reported ratio %s, reason %s",
                     rec["pair_id"], bound, rec["mismatch_ratio"], rec["reject_reason"])
        if rec["disposition"] == "accepted":
            name = os.path.basename(rec["segments_file"])
            lengths = segment_lengths(outputs["segments"][name])
            n, r, p = length_test([a for a, _ in lengths], [b for _, b in lengths])
            _require(rec["n"] == n and _close(rec["r"], r, _R_TOL)
                     and _close(rec["p"], p, _P_ABS_TOL, _P_REL_TOL),
                     "%s: segments give r=%s n=%s p=%s, report r=%s n=%s p=%s",
                     rec["pair_id"], r, n, p, rec["r"], rec["n"], rec["p"])
            _require("x" not in entry or lengths == list(zip(entry["x"], entry["y"])),
                     "%s: segment lengths differ from the generated lengths",
                     rec["pair_id"])


def read_requests(log_path, start, end):
    """Server log lines between two byte offsets."""
    with open(log_path, "rb") as fh:
        fh.seek(start)
        data = fh.read(end - start)
    rows = []
    for line in data.decode("utf-8").splitlines():
        port, path, code, size = line.split("\t")
        rows.append((int(port), path, int(code), int(size)))
    return rows


def check_requests(expect, rows, cold):
    """Robots honoured, one robots.txt per host per cold pass, none when warm."""
    if not cold:
        _require(not rows, "%d requests reached the server on a warm pass", len(rows))
        return
    denied = [r for r in rows if r[1].startswith(workloads.DISALLOWED_PREFIX)]
    _require(not denied, "requests to disallowed paths: %s", denied[:3])
    for port in expect["ports"]:
        n = sum(1 for r in rows if r[0] == port and r[1] == "/robots.txt")
        _require(n == 1, "%d robots.txt requests to port %d in one cold pass", n, port)
