"""Seeded workload inputs.

Each workload draws from ``random.Random`` seeded with its name and the
``--seed`` value, so one seed always regenerates byte-identical inputs.
The populations are fixed and sized by ``--seconds`` (the driver passes
the same value to every run); the seed decides their order, and on
serve-mixed which catalog job fills each popularity rank and the order
of the request stream.  Every seed therefore feeds the program a
different sequence of the same work, and totals over a population are
identical on every run.

No op repeats its input within a run, except serve-mixed, whose whole
point is repeating jobs: a later in-process memo cannot turn repeated
inputs into a fake speed-up of the in-process workloads.
"""

from __future__ import annotations

import random

#: Generated-chip profile of sweep-large and its population rate (chips
#: per second of ``--seconds``, about the nominal-speed throughput).
SWEEP_PROFILE = "large"
SWEEP_CHIPS_PER_SECOND = 1.8
#: The warm-up chip (profile, generator seed): outside the population.
SWEEP_WARMUP = ("d695-like", 0)

#: Job classes of serve-mixed: the three chip-reference forms, with the
#: named chips split by chip so that every class is uniform in cost.
SERVE_CLASSES = ("d695", "spec", "soc_text", "dsc")
SERVE_D695_PINS = tuple(range(40, 136, 8))  # 12 pin budgets
SERVE_DSC_PINS = tuple(range(24, 36, 2))  # 6 pin budgets
SERVE_SPEC_PROFILE = "d695-like"
SERVE_SPECS = 12
SERVE_TEXT_PROFILE = "small"
SERVE_TEXTS = 6
# Misses cost dsc < soc_text < d695 < spec; with these class sizes the
# median miss sits mid-way through the uniform d695 class, never on a
# class boundary where it would jump between classes from run to run.
#: Requests per second of ``--seconds``; the popularity of rank ``r`` is
#: proportional to ``1 / (r + 1) ** SERVE_ZIPF``.
SERVE_REQUESTS_PER_SECOND = 30
SERVE_ZIPF = 1.0
#: Memory-tier entries: fewer than the catalog, so cold jobs come back
#: from the disk tier.
SERVE_CACHE_SIZE = 8
#: Job-table cap: finished jobs past it are evicted, so the server's
#: memory does not grow with the length of the stream.
SERVE_MAX_JOBS = 64
#: A job outside the catalog: the warm-up op of every server start.
SERVE_WARMUP_JOB = {"kind": "integrate", "soc": {"name": "d695"},
                    "strategy": "serial", "backend": "serial", "workers": 1}

#: campaign-tiny: each op is one fresh campaign over the next seeds.
CAMPAIGN_PROFILE = "tiny"
CAMPAIGN_SCENARIOS = 24
CAMPAIGN_CHUNK = 6
CAMPAIGN_STRATEGIES = ("session", "nonsession", "serial")
CAMPAIGN_OPS_PER_SECOND = 7
CAMPAIGN_WARMUP_BASE = 1_000_000


def rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _count(seconds: float, per_second: float, minimum: int) -> int:
    return max(minimum, round(seconds * per_second))


def sweep_order(seed: int, seconds: float) -> list[int]:
    """Generator seeds of the sweep-large chips, in run order."""
    chips = list(range(_count(seconds, SWEEP_CHIPS_PER_SECOND, 2)))
    rng("sweep-large", seed).shuffle(chips)
    return chips


def campaign_order(seed: int, seconds: float) -> list[int]:
    """First scenario seed of each campaign-tiny op, in run order."""
    bases = [i * CAMPAIGN_SCENARIOS
             for i in range(_count(seconds, CAMPAIGN_OPS_PER_SECOND, 2))]
    rng("campaign-tiny", seed).shuffle(bases)
    return bases


def serve_catalog() -> dict[str, list[dict]]:
    """Every distinct serve-mixed job payload, by class.

    Named ``d695`` and ``dsc`` chips across pin budgets, ``d695-like``
    generator specs, and the inline ``.soc`` text of generated ``small``
    chips (verified).  Every job pins the serial backend and one worker.
    """
    from repro.gen import SocGenerator, soc_to_text

    def job(ref: dict, verify: bool = False) -> dict:
        return {"kind": "integrate", "soc": ref, "strategy": "session",
                "verify": verify, "backend": "serial", "workers": 1}

    texts = []
    for seed in range(SERVE_TEXTS):
        soc = SocGenerator(seed, SERVE_TEXT_PROFILE).generate()
        texts.append(job({"soc_text": soc_to_text(soc),
                          "test_pins": soc.test_pins}, verify=True))
    return {
        "d695": [job({"name": "d695", "test_pins": pins}) for pins in SERVE_D695_PINS],
        "spec": [job({"spec": {"profile": SERVE_SPEC_PROFILE, "seed": seed,
                               "index": 0}})
                 for seed in range(SERVE_SPECS)],
        "soc_text": texts,
        "dsc": [job({"name": "dsc", "test_pins": pins}) for pins in SERVE_DSC_PINS],
    }


def serve_stream(seed: int, seconds: float) -> list[tuple[str, int]]:
    """The serve-mixed request stream as ``(class, catalog index)`` pairs.

    Popularity ranks cycle through the classes (skipping a class once all
    its jobs are ranked), so every seed gives each class the same share
    of requests; the seed picks which job of a class takes each of its
    ranks, and shuffles the stream.
    """
    draw = rng("serve-mixed", seed)
    sizes = {"d695": len(SERVE_D695_PINS), "dsc": len(SERVE_DSC_PINS),
             "spec": SERVE_SPECS, "soc_text": SERVE_TEXTS}
    queues = {name: draw.sample(range(size), size) for name, size in sizes.items()}
    slots = []
    while any(queues.values()):
        for name in SERVE_CLASSES:
            if queues[name]:
                slots.append((name, queues[name].pop()))
    total = _count(seconds, SERVE_REQUESTS_PER_SECOND, 2 * len(slots))
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(slots))]
    scale = (total - len(slots)) / sum(weights)
    stream = []
    for slot, weight in zip(slots, weights):
        stream.extend([slot] * (1 + round(weight * scale)))
    draw.shuffle(stream)
    return stream
