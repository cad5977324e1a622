"""Benchmark workloads: default scenario configs re-seeded from one integer.

A workload is an ordered tuple of scenarios.  The workload seed replaces
``master_seed`` and ``pair.rotation_seed`` of each scenario's default config
and the result is validated again, so the program only ever sees configs that
``reconcap validate`` would accept.
"""

from __future__ import annotations

import dataclasses

# Why each workload exists and which layers it stresses; BENCHMARK.json
# carries a one-line version of each.
WORKLOADS = {
    # 81 cells of propagate + value: 88k step() calls, 146k tasks.value calls,
    # 323k as_vector calls, but only 162 RNG streams (no step noise).
    "sweep": ("threshold-sweep",),
    # one fresh Philox stream per noisy step (17.7k), plus 10.2k SVDs and
    # 5.2k QRs from the seeded rotations.
    "compose": ("composition-check",),
    # SVD/eigh-heavy (5.7k SVDs, 6.6k eigh/eigvalsh), the only workload that
    # runs thermo and gaussian, and the write-heavy one (33.8k CSV fields).
    "closed-form": ("rank-decay", "esl-gap", "proxy-probe"),
}


def workload_configs(name: str, seed: int | None) -> list:
    """Validated configs for ``name``; ``seed=None`` keeps the defaults."""
    from reconcap.config import default_config

    configs = []
    for scenario in WORKLOADS[name]:
        cfg = default_config(scenario)
        if seed is not None:
            cfg = dataclasses.replace(
                cfg,
                master_seed=seed,
                pair=dataclasses.replace(cfg.pair, rotation_seed=seed),
            )
            cfg.validate()
        configs.append(cfg)
    return configs
