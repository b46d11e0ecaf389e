"""Spans around the public functions of `execfees`, recorded from outside it.

`Tracer.install` replaces each traced function, in every loaded `execfees`
module that holds it, by a wrapper that records a span (name, layer, start,
end, parent id) plus the counts the per-layer metrics need.  Spans stay in
memory; the caller writes them out when the run ends.  `layer_metrics` turns
a span list into the per-layer metrics.

The inner-loop kernels (`explicit_nonlinear`, `step_backward`) are not
wrapped: one span per time step would cost more than the step.  The probes
in `probes.py` time them instead.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, public function); the layer of a span is its module
TRACED = (
    ("cli", "main"), ("cli", "run_fees"), ("cli", "run_sweep"),
    ("cli", "run_regulatory"), ("cli", "run_twap"), ("cli", "run_statarb"),
    ("cli", "run_paths"),
    ("config", "load_config"),
    ("hjb", "solve_fee_surface"), ("hjb", "solve_twap"),
    ("hjb", "solve_regulatory"), ("hjb", "extract_control"),
    ("simulate", "common_noise_batch"), ("simulate", "expected_payoff_metric"),
    ("simulate", "simulate_path"),
)
SOLVES = ("solve_fee_surface", "solve_twap", "solve_regulatory")


def _sweep(surface, terminal) -> dict:
    """Reuse key and work of one backward sweep, read from its returned surface.

    The key is (kind, terminal layer, params, grid, n range): two sweeps with
    equal keys compute the same layers.
    """
    n_hi = surface.n0 + surface.n_layers - 1
    key = repr((surface.kind, terminal, surface.params, surface.grid,
                surface.n0, n_hi))
    return {"key": key, "steps": surface.n_layers - 1,
            "bytes": surface.values.nbytes}


def _solve_counts(args, result) -> dict:
    if hasattr(result, "pre"):   # regulatory: two post-decision branches + mixture
        mix = ("mix", args["reg"].p, result.n_tau)
        parts = [_sweep(result.post_physical, result.post_physical.contract),
                 _sweep(result.post_cash, result.post_cash.contract),
                 _sweep(result.pre, mix)]
    else:
        parts = [_sweep(result, result.contract)]
    return {"sweeps": parts}


def _noise_counts(args, result) -> dict:
    return {"seed": int(args["cfg"].seed), "start": int(args["start"]),
            "rows": int(result.shape[0]), "n_steps": int(result.shape[1]),
            "T": float(args["params"].T)}


COUNTERS = {
    "solve_fee_surface": _solve_counts,
    "solve_twap": _solve_counts,
    "solve_regulatory": _solve_counts,
    "common_noise_batch": _noise_counts,
    "expected_payoff_metric":
        lambda args, res: {"path_steps": res.n_paths * args["cfg"].n_steps},
    "simulate_path": lambda args, res: {"path_steps": len(res.times) - 1},
}


class Tracer:
    """Single-threaded span recorder; the benchmark never passes --threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        import execfees  # noqa: F401  (loads every submodule)
        import execfees.cli  # noqa: F401
        modules = [m for n, m in list(sys.modules.items())
                   if n == "execfees" or n.startswith("execfees.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules.get(f"execfees.{mod_name}"), fn_name, None)
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, fn_name, mod_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "layer": layer,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counter(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    span["counts_error"] = repr(exc)
            return result

        return wrapper


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and a detail breakdown from one traced run's spans."""
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += _dur(s)
    self_s = {s["id"]: _dur(s) - child_s[s["id"]] for s in spans}
    layer_self = Counter()
    for s in spans:
        layer_self[s["layer"]] += self_s[s["id"]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(*names):
        return sum(_dur(s) for n in names for s in by_name[n])

    sweeps = [sw for n in SOLVES for s in by_name[n]
              for sw in s.get("counts", {}).get("sweeps", [])]
    steps = sum(sw["steps"] for sw in sweeps)
    solve_s = total(*SOLVES)
    distinct = len({sw["key"] for sw in sweeps})

    noise = [s["counts"] for s in by_name["common_noise_batch"] if "counts" in s]
    noise_rows = sum(c["rows"] for c in noise)
    streams = defaultdict(set)     # one counter-based stream per (seed, path)
    for c in noise:
        streams[(c["seed"], c["n_steps"], c["T"])].update(
            range(c["start"], c["start"] + c["rows"]))
    noise_distinct = sum(len(v) for v in streams.values())

    euler_spans = by_name["expected_payoff_metric"] + by_name["simulate_path"]
    euler_s = sum(self_s[s["id"]] for s in euler_spans)
    path_steps = sum(s.get("counts", {}).get("path_steps", 0) for s in euler_spans)

    main = by_name["main"][0] if by_name["main"] else None
    metrics = {
        "cli.stages_s": (total("run_fees", "run_sweep", "run_regulatory",
                               "run_twap", "run_statarb", "run_paths"), "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "config.load_config_s": (total("load_config"), "s"),
        "hjb.solve_calls": (len(sweeps), "count"),
        "hjb.solve_distinct": (distinct, "count"),
        "hjb.solve_useful_ratio": (distinct / len(sweeps) if sweeps else 1.0, "ratio"),
        "hjb.steps": (steps, "count"),
        "hjb.solve_s": (solve_s, "s"),
        "hjb.step_us": (1e6 * solve_s / steps if steps else 0.0, "us"),
        "hjb.surface_mb": (sum(sw["bytes"] for sw in sweeps) / 1e6, "MB"),
        "hjb.extract_control_calls": (len(by_name["extract_control"]), "count"),
        "hjb.extract_control_s": (total("extract_control"), "s"),
        "simulate.noise_s": (total("common_noise_batch"), "s"),
        "simulate.noise_rows": (noise_rows, "count"),
        "simulate.noise_rows_distinct": (noise_distinct, "count"),
        "simulate.noise_useful_ratio":
            (noise_distinct / noise_rows if noise_rows else 1.0, "ratio"),
        "simulate.euler_s": (euler_s, "s"),
        "simulate.path_steps": (path_steps, "count"),
        "simulate.euler_ns_per_path_step":
            (1e9 * euler_s / path_steps if path_steps else 0.0, "ns"),
        "simulate.simulate_path_calls": (len(by_name["simulate_path"]), "count"),
    }
    detail = {
        "main_s": _dur(main) if main else 0.0,
        "layer_self_s": dict(layer_self),
        "calls": {n: len(v) for n, v in sorted(by_name.items())},
        "span_s": {n: total(n) for n in sorted(by_name)},
        "simulate_path_s": total("simulate_path"),
        "simulate_path_median_ms":
            1e3 * statistics.median(_dur(s) for s in by_name["simulate_path"])
            if by_name["simulate_path"] else None,
        "counts_errors": sorted({s["counts_error"] for s in spans
                                 if "counts_error" in s}),
    }
    return metrics, detail
