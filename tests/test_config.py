import pytest

import execfees as ef
from execfees.config import config_from_dict, sha256_of
from execfees.errors import ConfigError


def test_empty_config_is_baseline():
    cfg = config_from_dict(None)
    p, g = cfg.params, cfg.grid
    assert (p.r, p.mu, p.b, p.l) == (0.0, 0.0, 1e-3, 1e-3)
    assert (p.gamma, p.sigma, p.N, p.C, p.alpha, p.T) == (1e-2, 5.0, 1.0, 10.0, 0.2, 1.0)
    assert (g.s_min, g.s_max, g.I) == (15.0, 75.0, 100)
    assert (g.q_min, g.q_max, g.J, g.n_steps) == (-1.0, 1.0, 100, 1000)
    fams = [c.family.value for c in cfg.contracts]
    assert fams == ["linear_physical", "linear_cash", "collar_physical", "collar_cash"]
    collar = cfg.contracts[2]
    assert (collar.K1, collar.K2) == (40.0, 50.0)
    assert (cfg.sim.q0, cfg.sim.s0, cfg.sim.x0) == (0.5, 45.0, 22.5)


def test_config_overrides_and_hash():
    a = config_from_dict({"params": {"sigma": 6.0}})
    b = config_from_dict({"params": {"sigma": 6.0}})
    c = config_from_dict({"params": {"sigma": 7.0}})
    assert a.params.sigma == 6.0
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_field_level_errors():
    with pytest.raises(ConfigError, match="params.sigma"):
        config_from_dict({"params": {"sigma": -1.0}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"params": {"sigmaa": 1.0}})
    with pytest.raises(ConfigError, match="family"):
        config_from_dict({"contracts": ["linear_fysical"]})
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict({"sweep": {"param": "not_a_field", "values": [1]}})
    with pytest.raises(ConfigError, match="K1"):
        config_from_dict({"contracts": [{"family": "collar_cash", "K1": 60.0,
                                         "K2": 50.0}]})
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_dict({"paramz": {}})


def test_sweep_accepts_regulatory_fields():
    cfg = config_from_dict({"sweep": {"param": "p", "values": [0.0, 1.0]},
                            "regulatory": {"p": 0.5, "tau": 0.5}})
    assert cfg.sweep.param == "p"
    assert cfg.regulatory.tau == 0.5


def test_load_yaml_roundtrip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("params:\n  sigma: 6.5\ncontracts: [linear_cash]\n"
                    "output_dir: artifacts\n")
    cfg = ef.load_config(str(path))
    assert cfg.params.sigma == 6.5
    assert [c.family.value for c in cfg.contracts] == ["linear_cash"]
    assert cfg.output_dir == "artifacts"
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert ef.load_config(str(empty)).params.sigma == 5.0


def test_hash_is_stable_under_key_order():
    assert sha256_of({"a": 1, "b": 2.5}) == sha256_of({"b": 2.5, "a": 1})


@pytest.mark.parametrize("raw, field", [
    ({"regulatory": {"p": 0.5}}, "regulatory: missing field(s) ['tau']"),
    ({"output_dir": 5}, "output_dir:"),
    ({"grid": {"s_min": "abc"}}, "grid.s_min:"),
    ({"sim": {"seed": -1}}, "sim.seed:"),
    ({"sim": {"zero_noise": "abc"}}, "sim.zero_noise:"),
    ({"params": {"b": "1e-3"}}, "params.b:"),   # YAML 1.1 reads 1e-3 as a string
    ({"contracts": [{"family": "collar_cash", "K2": float("inf")}]}, "contracts.K2:"),
])
def test_config_rejects_malformed_values(raw, field):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(field)
