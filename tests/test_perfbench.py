"""The benchmark's interface to the package, checked from the test suite.

`perfbench/probes.py` reports a kernel it can no longer call as absent and
drops its metric; `perfbench/tracer.py` skips a traced function it cannot
find.  Either one shows up only as a per-layer result line short of the
metrics `BENCHMARK.json` lists.  These tests load both modules from the
repository root, unchanged, and fail instead.
"""
import importlib.util
import json
import pathlib
import sys

import pytest

import execfees.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
# per-layer metrics that run.py sets itself, beside the tracer's and the probes'
RUN_METRICS = ("cli.bytes_written", "hjb.warnings", "trace.overhead_s")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def restore_execfees():
    """Undo the tracer's rebinding of functions in every execfees module."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "execfees" or n.startswith("execfees.")]
    saved = [(m, dict(vars(m))) for m in modules]
    yield
    for module, attrs in saved:
        for name, value in attrs.items():
            if vars(module).get(name) is not value:
                setattr(module, name, value)


def test_probes_find_every_kernel_and_cover_the_per_layer_metrics():
    results, absent = _load("probes").run()
    assert absent == {}
    run_source = (ROOT / "perfbench" / "run.py").read_text()
    assert all(f'metrics["{name}"]' in run_source for name in RUN_METRICS)
    produced = set(_load("tracer").layer_metrics([])[0]) | set(results) | set(RUN_METRICS)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in listed} <= produced


def test_tracer_wraps_every_traced_function(tmp_path, restore_execfees):
    tracer_module = _load("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    # solve_fee_surface took over the TWAP solve; the tracer still lists it
    assert tracer.absent == ["hjb.solve_twap"]
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 40, J: 40, n_steps: 400}\ncontracts: [linear_cash]\n"
                   "sim: {n_paths: 2, n_steps: 400, seed: 1}\n")
    assert execfees.cli.main(["paths", "--config", str(cfg),
                              "--out", str(tmp_path / "out")]) == 0
    metrics, detail = tracer_module.layer_metrics(tracer.spans)
    assert detail["counts_errors"] == []
    assert {"main", "load_config", "run_paths", "solve_fee_surface",
            "extract_control", "common_noise_batch", "simulate_path"} <= set(detail["calls"])
    assert metrics["simulate.simulate_path_calls"][0] == 1
