"""Microbenchmarks of the kernels at the baseline grid (101x101, 1000 steps).

Each probe warms up, then reports the median of several timed blocks.  A
probe whose public function is gone, or no longer takes these arguments,
is reported as absent instead of failing the run.
"""
from __future__ import annotations

import statistics
import time

REPEATS = 7


def _median_us(fn, inner: int) -> float:
    """Median over REPEATS blocks of the time of one call, in microseconds."""
    for _ in range(max(1, inner // 2)):
        fn()
    blocks = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        blocks.append((time.perf_counter() - t0) / inner)
    return 1e6 * statistics.median(blocks)


def run() -> tuple[dict, dict]:
    """(probe name -> microseconds, absent probe name -> reason)."""
    import numpy as np
    from execfees import contracts, hjb, simulate

    params = contracts.MarketParams()
    grid = contracts.GridSpec()
    spec = contracts.make_contract("linear_cash", params)
    S = grid.s_nodes()[:, None]
    q = grid.q_nodes()[None, :]
    P = contracts.terminal_fee(spec, q, S, params) + np.zeros((grid.I + 1, grid.J + 1))
    n = grid.n_steps // 2
    layers = 101
    cfg_noise = simulate.SimConfig(n_paths=200, n_steps=grid.n_steps, seed=1)
    cfg_path = simulate.SimConfig(n_paths=1, n_steps=layers - 1, seed=1)
    results, absent, state = {}, {}, {}

    def explicit_nonlinear():
        return _median_us(lambda: hjb.explicit_nonlinear(P, n, params, grid), 50)

    def step_backward():
        ab = hjb.build_banded(params, grid) if hasattr(hjb, "build_banded") else None
        kw = {"ab": ab} if ab is not None else {}
        return _median_us(lambda: hjb.step_backward(P, n, params, grid, **kw), 50)

    def extract_control_layer():
        surface = hjb.FeeSurface(grid=grid, params=params, contract=spec,
                                 values=np.broadcast_to(P, (layers,) + P.shape).copy())
        state["control"] = hjb.extract_control(surface, params)
        return _median_us(lambda: hjb.extract_control(surface, params), 2) / layers

    def noise_per_path():
        return _median_us(lambda: simulate.common_noise_batch(cfg_noise, params, 0, 200),
                          2) / cfg_noise.n_paths

    def simulate_path_per_step():
        control = state["control"]
        dW = simulate.common_noise_batch(cfg_path, params, 0, 1)
        return _median_us(lambda: simulate.simulate_path(control, params, cfg_path, dW),
                          5) / cfg_path.n_steps

    for name, probe in (("hjb.explicit_nonlinear_us", explicit_nonlinear),
                        ("hjb.step_backward_us", step_backward),
                        ("hjb.extract_control_layer_us", extract_control_layer),
                        ("simulate.noise_us_per_path", noise_per_path),
                        ("simulate.simulate_path_us_per_step", simulate_path_per_step)):
        try:
            results[name] = probe()
        except (AttributeError, KeyError, TypeError) as exc:
            absent[name] = repr(exc)
    return results, absent
