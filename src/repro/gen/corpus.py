"""Transferable coordinates over the generator.

A generated chip is named by its coordinates ``(profile, seed,
index)``: :class:`ScenarioSpec` is those few integers plus optional
budget overrides, and ``build()`` turns them into the chip
(``SocGenerator(seed, profile).generate(index)``), bit-identically on
every platform.  A failure a harness reports is replayed from the
printed coordinates alone (or with ``python -m repro generate --profile
P --seed S``).

For batch execution the coordinates themselves are the work unit:
:func:`scenario_specs` lays out a corpus without generating any chip,
and ``repro.core.batch``'s process backend ships specs to workers
(cheap to pickle) and materializes each SOC inside the worker instead
of serializing live models across the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.gen.generator import SocGenerator, chip_name
from repro.gen.profiles import GenProfile, get_profile
from repro.soc.soc import Soc

#: Default profile mix for corpus streams: the sizes every strategy
#: (including the exact MILP, on the tiny end) can digest.
DEFAULT_PROFILES: tuple[str, ...] = ("tiny", "small")


@dataclass(frozen=True)
class ScenarioSpec:
    """Coordinates of one generated chip, plus optional budget overrides.

    The spec is the *transferable* form of a scenario — a handful of
    ints/strings that pickle in a few bytes — and doubles as a batch
    work item (``repro.core.batch`` calls :meth:`build` in the worker).
    """

    profile: str
    seed: int
    index: int = 0
    test_pins: Optional[int] = None
    power_budget: Optional[float] = None

    @property
    def name(self) -> str:
        """The chip's deterministic name (no generation needed)."""
        return chip_name(self.profile, self.seed, self.index)

    def build(self) -> Soc:
        """Materialize the chip (bit-identical for equal coordinates)."""
        soc = SocGenerator(self.seed, self.profile).generate(self.index)
        if self.test_pins is not None:
            soc.test_pins = self.test_pins
        if self.power_budget is not None:
            soc.power_budget = self.power_budget
        return soc


def scenario_specs(
    count: int,
    profiles: Sequence[GenProfile | str] = DEFAULT_PROFILES,
    base_seed: int = 0,
) -> list[ScenarioSpec]:
    """The coordinates of ``count`` chips, cycling through ``profiles``,
    without generating any chip.

    Seeds run ``base_seed .. base_seed+count-1``; profile ``i % len``
    gets seed ``base_seed + i``, each at index 0.  Use these as batch
    work items: ``integrate_many(scenario_specs(64, ["d695-like"]),
    backend="process")`` ships only coordinates to the worker processes.
    """
    resolved = [get_profile(p) if isinstance(p, str) else p for p in profiles]
    if not resolved:
        raise ValueError("corpus needs at least one profile")
    return [
        ScenarioSpec(profile=resolved[i % len(resolved)].name, seed=base_seed + i)
        for i in range(count)
    ]

