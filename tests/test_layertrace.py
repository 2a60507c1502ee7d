"""The benchmark's outside-in tracer still covers every layer of the program.

``bench/layertrace.py`` wraps the public functions of the modules it lists in
``MODULES`` and files each one's time under its module's layer.  A public
function in another module makes ``metrics()`` raise ``KeyError``, and two
public functions with one name make ``install()`` raise; this smoke run finds
either before a benchmark run does.
"""

import importlib.util
import json
import os
import time

from tomosense import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# derived by bench/run.py from a traced and an untraced pass, not by metrics()
RUN_LEVEL = {"trace.overhead_frac"}


def _load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(ROOT, "bench", "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_reproduce_reports_every_per_layer_metric(tmp_path):
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = cli.run("reproduce", {"outdir": str(tmp_path), "steps": 2, "theta_count": 16,
                                     "grid_points": 256, "empirical": 0})
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert code == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        names = {metric["name"] for metric in json.load(fh)["per_layer"]}
    assert names - RUN_LEVEL <= set(tracer.metrics(wall))
