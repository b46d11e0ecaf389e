#!/usr/bin/env python3
"""Benchmark of the execfees batch pipeline.

    python3 perfbench/run.py --workload tables|statarb|paths --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Every measured run of a workload is a fresh,
single-threaded process calling `execfees.cli.main` on a config generated
from the seed (see workloads.py); its outputs are checked before it counts.

--trace 0 prints the end-to-end metrics: the median wall time of the
workload command over the runs that fit in --seconds (at least one), the
median of several set-up probes (`import execfees.cli` plus config load),
the median peak RSS, the largest distance of a written linear fee from the
closed form, and the share of runs that passed the output check.

--trace 1 prints the per-layer metrics: one untraced and one traced run of
the workload (spans around the public functions, see tracer.py), plus the
kernel probes of probes.py.

The last line of standard output is the result object; the line before it
holds the details (machine facts, CFL ratio, warnings, artifact digests).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, cfl_ratio, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0       # a run must end within 180 s
BLAS_THREADS = 1          # every measured process is single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("EXECFEES_OUT", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    return env


class Runner:
    """Starts child processes under one deadline and collects their reports."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = _env()
        self.count = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, mode: str, *args: str):
        """Run child.py; returns (exit code, report or None, wall seconds, stderr tail)."""
        self.count += 1
        report = self.workdir / f"report-{self.count}.json"
        errlog = self.workdir / f"stderr-{self.count}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(report), *args]
        with open(errlog, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                rc = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
            wall = time.perf_counter() - t0
        tail = errlog.read_text(errors="replace")[-2000:]
        data = json.loads(report.read_text()) if report.exists() else None
        return rc, data, wall, tail


def _llc_bytes():
    """Size of the largest-level CPU cache, from sysfs (None when unreadable)."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


def _machine() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "llc_bytes": _llc_bytes(),
            "blas_threads": min(BLAS_THREADS, nproc)}


def _run_workload(runner: Runner, command: str, cfg: dict, cfg_path: Path,
                  tag: str, traced: bool = False) -> dict:
    """One run of `command`, then its output check; the outputs are deleted after."""
    out = runner.workdir / f"out-{tag}"
    rc, report, wall, tail = runner.child(
        "trace" if traced else "cli", "--", command, "--config", str(cfg_path),
        "--out", str(out))
    check = check_outputs(command, cfg, str(out))
    shutil.rmtree(out, ignore_errors=True)
    problems = list(check.problems)
    if rc != 0 or report is None:
        problems.insert(0, f"exit code {rc}: {tail.strip()[-500:]}")
    return {"ok": not problems, "wall_s": wall, "problems": problems,
            "check": check, "report": report or {}}


def _median(values):
    return statistics.median(values) if values else None


def measure_end_to_end(runner: Runner, workload, cfg, cfg_path, seconds, detail):
    # warm-up: the first import compiles bytecode and fills the page cache
    runner.child("setup", str(cfg_path))
    setups = []
    for _ in range(SETUP_PROBES):
        rc, report, _, tail = runner.child("setup", str(cfg_path))
        if rc != 0 or report is None:
            raise RuntimeError(f"set-up probe failed: {tail}")
        setups.append(report["setup_s"])
        detail["versions"] = report["versions"]

    runs, t0 = [], time.perf_counter()
    while True:
        runs.append(_run_workload(runner, workload.command, cfg,
                                  cfg_path, f"run{len(runs)}"))
        elapsed = time.perf_counter() - t0
        per_run = elapsed / len(runs)
        if elapsed + per_run > seconds or per_run > runner.remaining() - 15.0:
            break
    passed = [r for r in runs if r["ok"]]
    fee_errors = [e for r in passed for e in r["check"].fee_errors]
    if workload.oracle_command and passed:
        oracle = _run_workload(runner, workload.oracle_command, cfg,
                               cfg_path, "oracle")
        fee_errors += oracle["check"].fee_errors
        if not oracle["ok"]:
            detail["problems"].append({"oracle": oracle["problems"]})
            passed = []

    detail["problems"] += [r["problems"] for r in runs if not r["ok"]]
    detail["wall_s"] = [r["wall_s"] for r in runs]
    detail["setup_s"] = setups
    if passed:
        first = passed[0]
        detail["sha256"] = first["check"].sha256
        detail["deterministic"] = all(r["check"].sha256 == first["check"].sha256
                                      for r in passed)
        detail["warnings"] = first["report"].get("warnings", {})
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in passed]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([r["report"]["maxrss_kb"] * 1024 / 1e6
                                 for r in passed]), "MB"),
        "fee_abs_err": (max(fee_errors) if fee_errors else None, "price"),
        "passed_frac": (len(passed) / len(runs), "ratio"),
    }
    return metrics, len(runs), len(runs) - len(passed)


def measure_per_layer(runner: Runner, workload, cfg, cfg_path, detail):
    plain = _run_workload(runner, workload.command, cfg, cfg_path, "plain")
    traced = _run_workload(runner, workload.command, cfg, cfg_path,
                           "traced", traced=True)
    rc, probe_report, _, tail = runner.child("probe")
    runs = [plain, traced]
    detail["problems"] += [r["problems"] for r in runs if not r["ok"]]
    if rc != 0 or probe_report is None:
        detail["problems"].append([f"probe process failed: {tail[-500:]}"])
    if not traced["ok"]:
        return {}, len(runs), sum(not r["ok"] for r in runs)

    report = traced["report"]
    metrics, layers = layer_metrics(report["spans"])
    warnings = report.get("warnings", {})
    metrics["cli.bytes_written"] = (traced["check"].bytes_written, "count")
    metrics["hjb.warnings"] = (sum(n for k, n in warnings.items()
                                   if k.startswith("hjb:RuntimeWarning")), "count")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    probes = (probe_report or {}).get("probes", {})
    for name, value in probes.items():
        metrics[name] = (value, "us")
    outside = traced["wall_s"] - layers["main_s"]
    detail.update({
        "layers": layers, "warnings": warnings,
        "absent_probes": (probe_report or {}).get("absent", {}),
        "versions": (probe_report or {}).get("versions"),
        "not_traced": report.get("not_traced", []),
        # traced wall = interpreter start, import and exit + the layers' self times
        "accounting": {"traced_wall_s": traced["wall_s"],
                       "untraced_wall_s": plain["wall_s"],
                       "outside_main_s": outside,
                       "layer_self_sum_s": sum(layers["layer_self_s"].values())},
    })
    return metrics, len(runs), sum(not r["ok"] for r in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "execfees" / "__init__.py").is_file():
        print(f"perfbench: no execfees sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = workload.config_for(args.seed)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        cfg_path = workdir / "config.yaml"
        cfg_path.write_text(json.dumps(cfg))    # JSON is YAML
        runner = Runner(workdir)
        detail = {"workload": workload.name, "command": workload.command,
                  "config": cfg, "cfl_ratio": cfl_ratio(cfg),
                  "machine": _machine(), "problems": []}
        if args.trace:
            metrics, attempted, failed = measure_per_layer(
                runner, workload, cfg, cfg_path, detail)
        else:
            metrics, attempted, failed = measure_end_to_end(
                runner, workload, cfg, cfg_path, args.seconds, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    correct = (failed == 0 and not detail["problems"]
               and all(v is not None for v, _ in metrics.values()))
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
