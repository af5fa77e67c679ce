"""Transferable coordinates over the generator, and the chip-reference resolver.

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

:func:`work_item` is the one chip-reference resolver: the CLI's batch
specs (``dsc:28:6.5``, ``gen-tiny-7:48``) and serve's job references
(``{"name"}``, ``{"spec"}`` or ``{"soc_text"}``, each with optional
``test_pins`` / ``power_budget``) both go through it.  Every budget
override is applied with ``dataclasses.replace`` on the chip built at
its own defaults, so ``Soc.__post_init__`` checks it in every form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from repro.gen.generator import SocGenerator, chip_name
from repro.gen.profiles import GenProfile, get_profile
from repro.soc.soc import Soc
from repro.util import check_non_negative, check_positive

#: Default profile mix for corpus streams: the sizes every strategy
#: (including the exact MILP, on the tiny end) can digest.
DEFAULT_PROFILES: tuple[str, ...] = ("tiny", "small")

#: Benchmark chips a reference can name: the paper's DSC controller
#: case study and the ITC'02 d695 benchmark.
NAMED_CHIPS: tuple[str, ...] = ("dsc", "d695")


def _with_budgets(
    soc: Soc, test_pins: Optional[int], power_budget: Optional[float]
) -> Soc:
    """``soc`` with the budgets that are not ``None``; ``replace`` re-runs
    ``Soc.__post_init__``, which refuses a bad one."""
    budgets = {"test_pins": test_pins, "power_budget": power_budget}
    return replace(soc, **{k: v for k, v in budgets.items() if v is not None})


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

    def __post_init__(self) -> None:
        # refuse a bad override here, not in the batch worker that builds it
        if self.test_pins is not None:
            check_positive(self.test_pins, "test pin budget")
        if self.power_budget is not None:
            check_non_negative(self.power_budget, "power budget")

    @property
    def name(self) -> str:
        """The chip's deterministic name (no generation needed)."""
        return chip_name(self.profile, self.seed, self.index)

    def build(self) -> Soc:
        """Materialize the chip (bit-identical for equal coordinates)."""
        soc = SocGenerator(self.seed, self.profile).generate(self.index)
        return _with_budgets(soc, self.test_pins, self.power_budget)


def work_item(ref: dict) -> Union[Soc, ScenarioSpec]:
    """The chip a reference names.

    ``ref`` is ``{"name"}`` (one of :data:`NAMED_CHIPS`), ``{"spec":
    {profile, seed, index}}`` or ``{"soc_text"}``, each with optional
    ``test_pins`` / ``power_budget``.  A name or ``.soc`` text becomes a
    :class:`Soc`.  A spec becomes its :class:`ScenarioSpec`: the profile
    is checked now, and the chip is built where it runs.

    Raises:
        ValueError: the reference names no valid chip (an unknown name
            or profile, unparsable ``.soc`` text, a bad budget).
    """
    test_pins, power_budget = ref.get("test_pins"), ref.get("power_budget")
    if "spec" in ref:
        spec = ref["spec"]
        profile = get_profile(spec["profile"]).name
        return ScenarioSpec(
            profile, spec["seed"], spec.get("index", 0), test_pins, power_budget
        )
    if "soc_text" in ref:
        from repro.soc.itc02 import soc_from_text

        try:
            soc = soc_from_text(ref["soc_text"])
        except ValueError as exc:
            raise ValueError(f"unparsable soc_text: {exc}") from exc
    elif ref.get("name") == "dsc":
        from repro.soc.dsc import build_dsc_chip

        soc = build_dsc_chip()
    elif ref.get("name") == "d695":
        from repro.soc.itc02 import d695_soc

        soc = d695_soc()
    else:
        raise ValueError(
            f"unknown chip {ref.get('name')!r} (named chips: {', '.join(NAMED_CHIPS)})"
        )
    return _with_budgets(soc, test_pins, power_budget)


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

