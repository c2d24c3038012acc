"""Seeded input generation for the benchmark workloads.

Everything here is plain numpy: the program under test receives only the
config files written by ``write_inputs``.  The same ``--seed`` always
gives byte-identical configs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MC_HORIZON = 200
MC_SCALAR_TRIALS = 20_000
MC_DENSE_TRIALS = 5_000
TRIAL_LONG_HORIZON = 20_000

# Scalar boundary sweep: A=1.2, C=Q=R=1, one slot, rate = critical + eps.
SCALAR_A = 1.2
SCALAR_EPS = (-1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2)
SCALAR_BETA = 0.2

# Dense analysis problems: every (n, m) pair gets one problem of each kind.
DENSE_SHAPES = ((2, 1), (2, 2), (4, 1), (4, 2), (4, 3), (8, 2), (8, 3), (8, 4))
DENSE_KINDS = ("rate-one", "interior", "below-bound")

# Stream keys so that the workloads draw independent numbers from one seed.
_DENSE_MC_STREAM = 1
_ANALYZE_STREAM = 2
_MASTER_STREAM = 3


def scalar_critical_rate(a: float = SCALAR_A) -> float:
    return 1.0 - 1.0 / (a * a)


def _observable(A: np.ndarray, C: np.ndarray) -> bool:
    n = A.shape[0]
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return bool(sv[-1] > 1e-6 * sv[0])


def random_system(rng: np.random.Generator, n: int, m: int, rho: float) -> dict:
    """An observable system with spectral radius ``rho``, diagonal R, Q > 0."""
    while True:
        A = rng.standard_normal((n, n))
        A *= rho / float(np.max(np.abs(np.linalg.eigvals(A))))
        C = rng.standard_normal((m, n))
        G = rng.standard_normal((n, n))
        Q = G @ G.T / n + 0.1 * np.eye(n)
        Q = 0.5 * (Q + Q.T)
        R = np.diag(rng.uniform(0.5, 2.0, size=m))
        if _observable(A, C):
            return {"A": A.tolist(), "C": C.tolist(), "Q": Q.tolist(),
                    "R": R.tolist(), "x0_mean": [0.0] * n,
                    "P0": np.eye(n).tolist()}


def _config(system: dict, rates, beta: float, horizon: int, trials: int,
            master_seed: int) -> dict:
    return {
        "system": system,
        "scheduler": {"lambda_target": [float(r) for r in rates],
                      "beta": float(beta)},
        "horizon": int(horizon),
        "trials": int(trials),
        "master_seed": int(master_seed),
    }


def _master_seed(seed: int, index: int) -> int:
    rng = np.random.default_rng([seed, _MASTER_STREAM, index])
    return int(rng.integers(0, 2**31 - 1))


def dense_mc_system(seed: int) -> dict:
    """The n=4, m=3, rho(A)=1.1 system shared by mc-dense and trial-long."""
    return random_system(np.random.default_rng([seed, _DENSE_MC_STREAM]),
                         4, 3, 1.1)


def mc_scalar_configs(seed: int) -> dict:
    system = {"A": [[SCALAR_A]], "C": [[1.0], [1.0]], "Q": [[1.0]],
              "R": [[0.1, 0.0], [0.0, 1.0]], "x0_mean": [0.0], "P0": [[1.0]]}
    return {"worked-example": _config(system, [0.6, 0.6], 0.5, MC_HORIZON,
                                      MC_SCALAR_TRIALS, _master_seed(seed, 0))}


def mc_dense_configs(seed: int) -> dict:
    return {"dense-n4-m3": _config(dense_mc_system(seed), [0.7] * 3, 0.5,
                                   MC_HORIZON, MC_DENSE_TRIALS,
                                   _master_seed(seed, 1))}


def trial_long_configs(seed: int) -> dict:
    return {"dense-n4-m3-long": _config(dense_mc_system(seed), [0.7] * 3, 0.5,
                                        TRIAL_LONG_HORIZON, 1,
                                        _master_seed(seed, 2))}


def _dense_rates(rng: np.random.Generator, kind: str, m: int, rho: float):
    """Per-slot rates and a low-power arrival probability below all of them."""
    if kind == "rate-one":
        rates = np.ones(m)
    elif kind == "interior":
        rates = rng.uniform(0.85, 0.97, size=m)
    else:
        # prod(1 - rate) = rho^-1 lies strictly between the necessary bound
        # rho^-2 and 1, so the expected covariance grows at least like rho^k.
        rates = np.full(m, 1.0 - rho ** (-1.0 / m))
    beta = min(0.5, 0.5 * float(np.min(rates)))
    return rates, beta


def analyze_configs(seed: int) -> dict:
    configs = {}
    crit = scalar_critical_rate()
    scalar = {"A": [[SCALAR_A]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
              "x0_mean": [0.0], "P0": [[1.0]]}
    for eps in SCALAR_EPS:
        configs[f"scalar-eps{eps:+.0e}"] = _config(scalar, [crit + eps],
                                                   SCALAR_BETA, 1, 1, 0)
    rng = np.random.default_rng([seed, _ANALYZE_STREAM])
    for n, m in DENSE_SHAPES:
        for kind in DENSE_KINDS:
            rho = float(rng.uniform(1.05, 1.3))
            system = random_system(rng, n, m, rho)
            rates, beta = _dense_rates(rng, kind, m, rho)
            configs[f"dense-n{n}-m{m}-{kind}"] = _config(system, rates, beta,
                                                         1, 1, 0)
    return configs


GENERATORS = {
    "mc-scalar": mc_scalar_configs,
    "mc-dense": mc_dense_configs,
    "analyze-boundary": analyze_configs,
    "trial-long": trial_long_configs,
}
WORKLOADS = tuple(GENERATORS)


def write_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's configs as JSON files; returns their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in GENERATORS[workload](seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def kind_of(config_name: str) -> str:
    """'scalar', or the dense problem kind encoded in the config name."""
    if config_name.startswith("scalar-"):
        return "scalar"
    for kind in DENSE_KINDS:
        if config_name.endswith(kind):
            return kind
    return "mc"

