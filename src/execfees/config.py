"""Experiment configuration: YAML loading, validation, canonical hashing.

ExperimentConfig() is the baseline experiment set, and every field has its
baseline default; the loader only maps YAML onto the dataclasses, which
check every rule themselves.  Collar strikes default in ContractSpec, and
make_contract is the one reader of family names.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import yaml

from .contracts import (ContractSpec, Family, GridSpec, MarketParams, check_real,
                        make_contract)
from .errors import ConfigError
from .hjb import RegulatorySpec
from .simulate import SimConfig

# model parameters, plus the approval probability swept by `regulatory`
_SWEEPABLE = tuple(f.name for f in dataclasses.fields(MarketParams)) + ("p",)


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple

    def __post_init__(self):
        if self.param not in _SWEEPABLE:
            raise ConfigError(
                f"sweep.param: {self.param!r} is not a model parameter or p "
                f"(one of {', '.join(_SWEEPABLE)})")
        if not isinstance(self.values, (list, tuple)):
            raise ConfigError(f"sweep.values: expected a list, got {self.values!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise ConfigError("sweep.values: must be non-empty")
        for v in self.values:
            check_real("sweep.values", v)


# the four contracts of the baseline tables (collars at K1 = 40, K2 = 50)
BASELINE_CONTRACTS = (ContractSpec(Family.LINEAR_PHYSICAL),
                      ContractSpec(Family.LINEAR_CASH),
                      ContractSpec(Family.COLLAR_PHYSICAL),
                      ContractSpec(Family.COLLAR_CASH))
TWAP_CONTRACTS = (ContractSpec(Family.TWAP_PHYSICAL), ContractSpec(Family.TWAP_CASH))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the defaults are the baseline, and every instance is valid."""

    params: MarketParams = MarketParams()
    grid: GridSpec = GridSpec()
    contracts: tuple[ContractSpec, ...] = BASELINE_CONTRACTS
    regulatory: RegulatorySpec | None = None
    sim: SimConfig = SimConfig()
    sweep: SweepSpec | None = None

    def __post_init__(self):
        g = self.grid
        # the surface lookup clamps to the grid hull, so a start outside it is wrong
        for name, lo, hi in (("s0", g.s_min, g.s_max), ("q0", g.q_min, g.q_max)):
            if not lo <= getattr(self.sim, name) <= hi:
                raise ConfigError(f"sim.{name}: must lie in the grid hull "
                                  f"[{lo}, {hi}], got {getattr(self.sim, name)!r}")
        if not self.contracts:
            raise ConfigError("contracts: must be non-empty")
        # every table row and trajectory file names a contract by its family alone
        for k, contract in enumerate(self.contracts):
            if contract.family in [c.family for c in self.contracts[:k]]:
                raise ConfigError(f"contracts: {contract.family.value!r} is listed "
                                  "twice; the artifacts name a contract by its family")
        if self.regulatory is not None:
            self.regulatory.snapped_step(self.params, self.grid)
            if self.sweep is not None and self.sweep.param == "p":
                for p in self.sweep.values:
                    dataclasses.replace(self.regulatory, p=p)   # checks p in [0, 1]
        if self.sweep is not None and self.sweep.param != "p":
            for value in self.sweep.values:
                try:
                    self.params.replace(**{self.sweep.param: value})
                except ConfigError as exc:
                    raise ConfigError(f"sweep.values: {exc}") from None

    def canonical_dict(self) -> dict:
        return {
            "params": dataclasses.asdict(self.params),
            "grid": dataclasses.asdict(self.grid),
            "contracts": [_contract_dict(c, self.params) for c in self.contracts],
            "regulatory": dataclasses.asdict(self.regulatory) if self.regulatory else None,
            "sim": dataclasses.asdict(self.sim),
            "sweep": {"param": self.sweep.param, "values": list(self.sweep.values)}
            if self.sweep else None,
        }

    def config_hash(self) -> str:
        return sha256_of(self.canonical_dict())


def _contract_dict(c: ContractSpec, params: MarketParams) -> dict:
    # the target stays in the hash input, so every config hash is unchanged
    return {"family": c.family.value, "K1": c.K1, "K2": c.K2,
            "liquidation_target": c.target(params.N)}


def sha256_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _section(cls, section, where: str) -> dict:
    """Keyword arguments of `cls` from one config mapping, checked against its fields."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {section!r}")
    fields = dataclasses.fields(cls)
    bad = set(section) - {f.name for f in fields}
    if bad:
        raise ConfigError(f"{where}: unknown field(s) {sorted(map(str, bad))}")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in section]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {missing}")
    return section


def _build_contract(entry, N: float) -> ContractSpec:
    """A contract from a family name or a {family, K1, K2} mapping.

    The mapping may repeat the liquidation target that canonical_dict writes,
    at the value that follows from the family and N.
    """
    if isinstance(entry, str):
        entry = {"family": entry}
    if isinstance(entry, dict) and "liquidation_target" in entry:
        spec = _build_contract({k: v for k, v in entry.items()
                                if k != "liquidation_target"}, N)
        if entry["liquidation_target"] != spec.target(N):
            raise ConfigError("contracts.liquidation_target: follows from the family "
                              f"and N, {spec.target(N)!r} here")
        return spec
    return make_contract(**_section(ContractSpec, entry, "contracts"))


# config section -> the dataclass its mapping builds
_SECTION_TYPES = {"params": MarketParams, "grid": GridSpec, "sim": SimConfig,
                  "regulatory": RegulatorySpec, "sweep": SweepSpec}


def config_from_dict(raw: dict | None) -> ExperimentConfig:
    """Map a config dict onto ExperimentConfig; a null section counts as omitted."""
    kw = {k: v for k, v in (raw or {}).items() if v is not None}
    bad = set(raw or {}) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if bad:
        raise ConfigError(f"config: unknown section(s) {sorted(map(str, bad))}")
    for name, cls in _SECTION_TYPES.items():
        if name in kw:
            kw[name] = cls(**_section(cls, kw[name], name))
    if "contracts" in kw:
        if not isinstance(kw["contracts"], list):
            raise ConfigError(f"contracts: expected a list, got {kw['contracts']!r}")
        N = kw.get("params", MarketParams()).N
        kw["contracts"] = tuple(_build_contract(c, N) for c in kw["contracts"])
    return ExperimentConfig(**kw)


def load_config(path: str | None) -> ExperimentConfig:
    """Load a YAML config file; None or an empty file yields the baseline config."""
    if path is None:
        return config_from_dict(None)
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:
            # ValueError: an integer past Python's digit limit for int()
            raise ConfigError(f"config: not a valid YAML document: {exc}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"config: expected a mapping at top level, got {raw!r}")
    return config_from_dict(raw)
