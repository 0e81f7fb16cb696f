"""Smoke test of the benchmark's tracer against the package as it is now.

``perfbench/tracer.py`` wraps webbitext functions by the names their
callers look them up through.  A renamed or deleted name breaks
``perfbench/run.py --trace 1`` and fails no other test, so this runs one
traced jobs=1 pass over the demo corpus, language filter on, and requires
calls in every layer.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = ("htmlscan", "candidates", "linearize", "evaluate", "align",
          "stats", "langid", "fetch", "pipeline")

_SCRIPT = r"""
import json
import sys

import tracer
from webbitext import GeneratorConfig, PipelineConfig, pipeline, read_hub_list

hubs_file, out_dir, *models = sys.argv[1:]
spans = tracer.Tracer()
tracer.install(spans)
cfg = PipelineConfig(
    generator=GeneratorConfig(frozenset({"english"}),
                              frozenset({"spanish", "español"})),
    out_dir=out_dir, jobs=1, langid_filter=True,
    langid_model_paths=tuple(models), expected_langs=("en", "es"))
pipeline.run_pipeline(cfg, read_hub_list(hubs_file))
print(json.dumps(tracer.layer_metrics(spans.spans)))
"""


def test_traced_run_records_every_layer(demo_corpus, lang_models, tmp_path):
    path = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, demo_corpus["hubs_file"],
         str(tmp_path / "out"), *lang_models],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    silent = [layer for layer in LAYERS if not metrics[layer + ".calls"]]
    assert silent == [], metrics
