"""Seeded synthetic SOC generation.

:class:`SocGenerator` draws valid :class:`repro.soc.Soc` instances from
a :class:`~repro.gen.profiles.GenProfile` — the SAIBERSOC idea (inject
parameterized synthetic workloads to benchmark the test platform)
applied to STEAC: instead of exercising the schedulers, wrapper
generator, and repair engine on two hand-built chips, thousands of
reproducible scenarios can be streamed through them.

Two properties are load-bearing:

* **Determinism** — one ``(seed, index)`` pair maps to one bit-identical
  chip, whatever the platform or process (``random.Random`` with a
  derived seed, draws in a fixed order).  A fuzz failure is reproduced
  from its seed alone.
* **Feasibility by construction** — the pin budget is set above the
  computed floor of the *dedicated-pin* (non-session) baseline and any
  power budget is drawn above the heaviest single test, so every
  registered strategy can schedule every generated chip and the
  differential harness never trips over a spurious infeasibility.

Cores are drawn as ITC'02 module records and materialized through
:func:`repro.soc.itc02.module_to_core` — the same path the d695
benchmark uses — so every generated SOC round-trips through the
``.soc`` writer/parser pair (:mod:`repro.gen.writer`).
"""

from __future__ import annotations

import random

from repro.gen.profiles import GenProfile, get_profile
from repro.sched.ioalloc import BIST_PORT_PINS, SharingPolicy, control_pins
from repro.sched.tasks import tasks_from_soc
from repro.soc.core import CoreType
from repro.soc.itc02 import Itc02Module, module_to_core
from repro.soc.memory import MemorySpec, MemoryType, RedundancySpec
from repro.soc.soc import Soc
from repro.soc.tests import functional_test

#: Mixing constant for (seed, index) -> sub-seed derivation (same scheme
#: as the Monte-Carlo repair engine's per-trial seeding).
_SEED_STRIDE = 1_000_003


def chip_name(profile: GenProfile | str, seed: int, index: int) -> str:
    """The deterministic name of chip ``(profile, seed, index)`` — known
    without generating the chip, so spec-based batch work items can be
    labelled before any worker materializes them."""
    resolved = get_profile(profile) if isinstance(profile, str) else profile
    return f"gen_{resolved.slug}_s{seed}_{index}"


class SocGenerator:
    """Deterministic synthetic-SOC source for one ``(seed, profile)``.

    >>> from repro.gen import SocGenerator
    >>> soc = SocGenerator(seed=7, profile="small").generate()
    >>> soc is not SocGenerator(7, "small").generate()  # fresh object...
    True

    ...but structurally bit-identical (``tests/test_gen.py`` pins this).
    """

    def __init__(self, seed: int, profile: GenProfile | str = "small"):
        self.seed = seed
        self.profile = get_profile(profile) if isinstance(profile, str) else profile

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SocGenerator(seed={self.seed}, profile={self.profile.name!r})"

    # -- generation --------------------------------------------------------

    def generate(self, index: int = 0) -> Soc:
        """Generate chip ``index`` of this generator's stream."""
        rng = random.Random(self.seed * _SEED_STRIDE + index)
        profile = self.profile
        name = chip_name(profile, self.seed, index)

        soc = Soc(name=name, test_pins=64)  # pin budget fixed up below
        n_cores = rng.randint(*profile.cores)
        for i in range(n_cores):
            soc.add_core(self._draw_core(rng, f"c{i}"))
        for j in range(rng.randint(*profile.memories)):
            soc.add_memory(self._draw_memory(rng, f"m{j}"))
        soc.gate_count = rng.randint(*profile.glue_gates)
        soc.test_pins = self._feasible_pins(soc) + rng.randint(*profile.extra_pins)
        soc.power_budget = self._draw_power_budget(rng, soc)
        return soc

    # -- draws (fixed order: cores, memories, glue, pins, power) -----------

    def _draw_core(self, rng: random.Random, name: str):
        profile = self.profile
        scanned = rng.random() < profile.scan_fraction
        if scanned:
            n_chains = rng.randint(*profile.chains)
            lengths = tuple(
                rng.randint(*profile.chain_flops) for _ in range(n_chains)
            )
            patterns = rng.randint(*profile.scan_patterns)
        else:
            lengths = ()
            patterns = rng.randint(*profile.functional_patterns)
        module = Itc02Module(
            name=name,
            inputs=rng.randint(*profile.inputs),
            outputs=rng.randint(*profile.outputs),
            bidirs=rng.randint(*profile.bidirs),
            scan_chain_lengths=lengths,
            patterns=patterns,
        )
        core = module_to_core(module, power=round(rng.uniform(*profile.test_power), 2))
        if scanned and rng.random() >= profile.soft_fraction:
            core.core_type = CoreType.HARD
        if scanned and rng.random() < profile.dual_test_fraction:
            core.tests.append(
                functional_test(
                    rng.randint(*profile.functional_patterns),
                    name=f"{name}_func",
                    power=round(rng.uniform(*profile.test_power), 2),
                )
            )
        return core

    def _draw_memory(self, rng: random.Random, name: str) -> MemorySpec:
        profile = self.profile
        redundancy = None
        if rng.random() < profile.redundancy_fraction:
            redundancy = RedundancySpec(rng.randint(1, 4), rng.randint(1, 4))
        return MemorySpec(
            name=name,
            words=rng.choice(profile.memory_words_choices),
            bits=rng.choice(profile.memory_bits_choices),
            mem_type=MemoryType.TWO_PORT if rng.random() < 0.2 else MemoryType.SINGLE_PORT,
            power=round(rng.uniform(*profile.test_power), 2),
            redundancy=redundancy,
        )

    # -- feasibility floors ------------------------------------------------

    @staticmethod
    def _feasible_pins(soc: Soc) -> int:
        """The pin floor keeping every registered strategy feasible.

        The binding constraint is the non-session baseline: *all* control
        IOs of *all* tests held on dedicated pins concurrently, plus the
        BIST port when memories exist, plus one TAM wire pair.  Only
        control-IO accounting matters here, so the tasks are built
        without scan-time models (a chip that is never scheduled need
        not pay for its tables).
        """
        ctrl = control_pins(tasks_from_soc(soc, time_models=False), SharingPolicy.none())
        if soc.memories:
            ctrl += BIST_PORT_PINS
        return ctrl + 2

    def _draw_power_budget(self, rng: random.Random, soc: Soc) -> float:
        """A finite budget or 0 (unconstrained).

        The floor is the heavier of 1.3x the hottest single test
        (singleton sessions always fit) and ~a third of the total chip
        test power (the session heuristic's 8-session cap stays
        reachable even when every session must share the budget).
        """
        if rng.random() >= self.profile.power_budget_fraction:
            return 0.0
        powers = [t.power for c in soc.cores for t in c.tests] + [
            m.power for m in soc.memories
        ]
        peak, total = max(powers, default=0.0), sum(powers)
        if peak <= 0.0:
            return 0.0
        return round(max(1.3 * peak, rng.uniform(0.35, 0.9) * total), 2)
