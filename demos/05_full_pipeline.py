"""
The whole pipeline on a synthetic offline corpus
================================================

Builds a deterministic corpus of 20 hub pages and 30 candidate pairs (12
genuine English/Spanish translations plus 18 distractors), then runs
generate -> fetch -> dedup -> evaluate twice: once with the default
configuration and once with the language filter enabled.  No network is
involved; every locator is a local file.
"""

import json
import os
import tempfile

from webbitext import GeneratorConfig, PipelineConfig, run_pipeline
from webbitext.democorpus import build_corpus, train_models
from webbitext.pipeline import score_report_files

workdir = tempfile.mkdtemp(prefix="webbitext_demo_")
corpus = build_corpus(os.path.join(workdir, "corpus"))
models = train_models(os.path.join(workdir, "models"))
hubs = [line.strip() for line in open(corpus["hubs_file"]) if line.strip()]
print("Corpus at %s: %d hubs, %d candidate pairs"
      % (corpus["root"], len(corpus["hub_paths"]), corpus["total_pairs"]))
print()

generator = GeneratorConfig(frozenset({"english"}),
                            frozenset({"spanish", "español"}))

print("Run 1: frozen defaults (K=0.20, p<0.05, language filter off)")
manifest = run_pipeline(
    PipelineConfig(generator=generator, out_dir=os.path.join(workdir, "out")),
    hubs)
counts = manifest["counts"]
print("  generated %(generated)d = identical %(identical)d + unretrievable "
      "%(unretrievable)d + non_html %(non_html)d + evaluated %(evaluated)d"
      % counts)
print("  evaluated %(evaluated)d = accepted %(accepted)d + rejected "
      "%(rejected)d" % counts)
reasons = {}
for rec in manifest["pairs"]:
    if rec["disposition"] == "rejected":
        reasons[rec["reject_reason"]] = reasons.get(rec["reject_reason"], 0) + 1
print("  rejection reasons:", json.dumps(reasons, sort_keys=True))
summary = score_report_files(os.path.join(workdir, "out", "reports.jsonl"),
                             corpus["gold_file"])
print("  precision %.1f%%  recall %.1f%%  (the one false positive is an"
      % (100 * summary.precision, 100 * summary.recall))
print("  English/English pair with perfectly parallel structure)")
print()

print("Run 2: same corpus with --langid-models (the language filter on)")
manifest2 = run_pipeline(
    PipelineConfig(generator=generator, out_dir=os.path.join(workdir, "out2"),
                   langid_filter=True, langid_model_paths=tuple(models),
                   expected_langs=("en", "es")),
    hubs)
counts2 = manifest2["counts"]
print("  accepted %d, language_filtered %d"
      % (counts2["accepted"], counts2["language_filtered"]))
summary2 = score_report_files(os.path.join(workdir, "out2", "reports.jsonl"),
                              corpus["gold_file"])
print("  precision %.1f%%  recall %.1f%%"
      % (100 * summary2.precision, 100 * summary2.recall))
print()

seg_dir = os.path.join(workdir, "out", "segments")
sample = sorted(os.listdir(seg_dir))[0]
print("Aligned segments are a by-product; first records of %s:" % sample)
with open(os.path.join(seg_dir, sample), encoding="utf-8") as fh:
    for line in list(fh)[:3]:
        url1, url2, off1, off2, left, right = line.rstrip("\n").split("\t")
        print("  %-44s | %s" % (left[:44], right[:44]))
print()
print("Outputs kept under", workdir)
