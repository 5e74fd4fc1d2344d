"""The benchmark's workloads: overrides on a config of the checkout.

Standard library only, so ``run.py`` can read it before numpy is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Overrides on a base config, and how many requests the quality covers.

    ``base`` is a config file of the checkout, or None for the CLI defaults.
    ``control_error_m`` and ``token_match`` cover the first
    ``quality_requests`` requests, so they repeat exactly for a given seed;
    the loop runs at least that many. The count is what a 30 s run reaches
    even when the machine runs at half speed.
    """

    name: str
    base: str | None
    overrides: dict
    quality_requests: int


WORKLOADS = {
    w.name: w
    for w in (
        # The shipped task with the rs500 preset: refine is ~97% of a request
        # and each step is ~30 tiny numpy calls on a decoder that fits in L2.
        Workload("std-rs500", "configs/standard.json", {"solver": {"steps": 500}}, 48),
        # The dense decoder weight is 604 MB, far above L3: decode and vjp
        # dominate, and up to 33 intervals make the routed solve large.
        Workload(
            "long-t1024",
            None,
            {
                "task": {"kind": "circle", "frames": 1024},
                "anchors": {"count": 32},
                "tokens": {"length": 256, "frames_per_token": 4},
                "solver": {"steps": 20},
            },
            12,
        ),
        # The sampler is ~95% of a request and refinement is bypassed; the
        # confusion keeps the denoiser's RNG in use and token_match below 1.
        Workload(
            "sampler-v256",
            None,
            {
                "task": {"kind": "sinusoid", "frames": 256},
                "anchors": {"count": 8},
                "tokens": {"length": 64, "frames_per_token": 4, "codebook_size": 256},
                "schedule": {"steps": 512},
                "solver": {"steps": 0},
                "denoiser": {"confusion": 0.05},
            },
            32,
        ),
    )
}
