"""Workload definitions and the output check of every measured run.

Each workload is one `execfees` CLI command on a config generated from the
benchmark seed; the seed reaches the program only as `sim.seed`.

- tables:  `reproduce-all` at the baseline grid (101x101, 1000 steps) with the
           Monte-Carlo cut to 1000 paths: the traffic of the paper's tables,
           dominated by backward solves, many of them repeated.
- statarb: `statarb` over all six families on a 40x40-interval grid with
           400 steps and 8000 paths: mostly noise generation and the batch
           Euler kernel; every solve is distinct.
- paths:   `paths` with 20 paths on the same coarse grid: mostly single-path
           Euler in record mode plus CSV row building and writing.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

COARSE_GRID = {"I": 40, "J": 40, "n_steps": 400}
BASELINE_FAMILIES = ("linear_physical", "linear_cash",
                     "collar_physical", "collar_cash")
ALL_FAMILIES = BASELINE_FAMILIES + ("twap_physical", "twap_cash")

# criterion 1 of the acceptance suite: |PDE fee - closed form| <= 1e-3
ORACLE_TOL = 1e-3

_HASH_LINE = re.compile(r"# config_hash=[0-9a-f]{64}")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict          # everything but sim.seed
    # command run once, untimed, when the workload's own outputs hold no fee
    oracle_command: str | None = None

    def config_for(self, seed: int) -> dict:
        cfg = json.loads(json.dumps(self.config))
        cfg.setdefault("sim", {})["seed"] = seed % 2**32
        return cfg


def expected_rows(command: str, cfg: dict) -> dict:
    """Artifact name -> number of CSV data rows (None for JSON files)."""
    if command == "reproduce-all":
        return {"fees_baseline.csv": 4, "sweep_r.csv": 8, "sweep_sigma.csv": 12,
                "sweep_alpha_linear_cash.csv": 3, "regulatory_sigma1.csv": 5,
                "regulatory_sigma5.csv": 5, "twap_fees.csv": 2,
                "statarb.csv": 6, "manifest.json": None}
    if command == "statarb":
        return {"statarb.csv": len(cfg["contracts"]), "statarb_summary.json": None}
    if command == "paths":
        sim = cfg["sim"]
        rows = {f"paths_{f}.csv": sim["n_paths"] * (sim["n_steps"] + 1)
                for f in BASELINE_FAMILIES}
        rows["paths_comparison.csv"] = sim["n_steps"] + 1
        return rows
    if command == "fees":
        return {"fees.csv": len(BASELINE_FAMILIES)}
    raise ValueError(f"no expected artifacts for {command!r}")


WORKLOADS = {
    "tables": Workload("tables", "reproduce-all", {"sim": {"n_paths": 1000}}),
    "statarb": Workload("statarb", "statarb", {
        "grid": COARSE_GRID,
        "sim": {"n_paths": 8000, "n_steps": COARSE_GRID["n_steps"]},
        "contracts": list(ALL_FAMILIES)}),
    "paths": Workload("paths", "paths", {
        "grid": COARSE_GRID,
        "sim": {"n_paths": 20, "n_steps": COARSE_GRID["n_steps"]}},
        oracle_command="fees"),
}


def cfl_ratio(cfg: dict) -> float:
    """C*dt/dq of the generated config (the explicit step needs <= 0.5)."""
    from execfees.config import config_from_dict
    c = config_from_dict(cfg)
    return c.params.C * c.grid.dt(c.params.T) / c.grid.dq


@dataclass
class CheckResult:
    problems: list
    fee_errors: list      # |PDE fee - closed form| of every linear fee written
    sha256: dict          # artifact name -> digest
    bytes_written: int


def _read_csv(path: str):
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        rows = list(csv.DictReader(fh))
    return first, rows


def _non_finite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def _closed_form_fee(family: str, params, sim):
    """Closed-form fee at (t=0, q0, S0), or None where no closed form applies."""
    from execfees import closed_form
    from execfees.errors import DegenerateRiccati, InvalidRegime
    if params.r != 0.0 or params.mu != 0.0:
        return None
    try:
        if family == "linear_physical":
            return float(closed_form.fee_physical_closed(0.0, sim.q0, sim.s0, params))
        if family == "linear_cash":
            return float(closed_form.fee_trs_closed(0.0, sim.q0, sim.s0, params))
    except (InvalidRegime, DegenerateRiccati):
        return None
    return None


def _fee_errors(rows, base_params, sim, problems, where):
    errors = []
    for row in rows:
        params = base_params
        if "param" in row:
            names = {f.name for f in dataclasses.fields(base_params)}
            if row["param"] not in names:
                continue
            params = base_params.replace(**{row["param"]: float(row["value"])})
        ref = _closed_form_fee(row["family"], params, sim)
        if ref is None:
            continue
        err = abs(float(row["fee"]) - ref)
        errors.append(err)
        if not err <= ORACLE_TOL:
            problems.append(f"{where}: {row['family']} fee off the closed form "
                            f"by {err:.3g} (tolerance {ORACLE_TOL})")
    return errors


def check_outputs(command: str, cfg: dict, out_dir: str) -> CheckResult:
    """Artifact set, row counts, finiteness, oracle fees and standard errors."""
    from execfees.config import config_from_dict
    config = config_from_dict(cfg)
    expected = expected_rows(command, cfg)
    problems, fee_errors, digests, total = [], [], {}, 0
    present = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if present != sorted(expected):
        problems.append(f"artifacts {present} != expected {sorted(expected)}")
    for name in present:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        digests[name] = hashlib.sha256(blob).hexdigest()
        total += len(blob)
    for name, n_rows in expected.items():
        path = os.path.join(out_dir, name)
        if n_rows is None or not os.path.exists(path):
            continue
        first, rows = _read_csv(path)
        if not _HASH_LINE.fullmatch(first):
            problems.append(f"{name}: missing config_hash line")
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        if any(_non_finite(v) for row in rows for v in row.values()):
            problems.append(f"{name}: non-finite value")
        if rows and "fee" in rows[0] and "family" in rows[0]:
            fee_errors += _fee_errors(rows, config.params, config.sim, problems, name)
        if name == "statarb.csv":
            for row in rows:
                try:
                    se = float(row["stderr"])
                except ValueError:
                    se = math.nan
                if not (math.isfinite(se) and se > 0.0):
                    problems.append(f"statarb.csv: {row['family']} stderr {row['stderr']!r}")
    if "manifest.json" in expected and "manifest.json" in digests:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        listed = {a["name"]: a["sha256"] for a in manifest.get("artifacts", [])}
        if listed != {n: d for n, d in digests.items() if n != "manifest.json"}:
            problems.append("manifest.json: digests do not match the artifacts")
        if manifest.get("seed") != config.sim.seed:
            problems.append("manifest.json: wrong seed")
    if "statarb_summary.json" in expected and "statarb_summary.json" in digests:
        with open(os.path.join(out_dir, "statarb_summary.json")) as fh:
            summary = json.load(fh)
        if (summary.get("n_paths") != config.sim.n_paths
                or summary.get("seed") != config.sim.seed
                or len(summary.get("rows", [])) != len(config.contracts)):
            problems.append("statarb_summary.json: n_paths, seed or rows wrong")
    if (command in ("reproduce-all", "statarb", "fees")
            and not problems and not fee_errors):
        problems.append("no linear fee to compare with the closed form")
    return CheckResult(problems, fee_errors, digests, total)
