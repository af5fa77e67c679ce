"""Size/shape profiles for the synthetic SOC generator.

A :class:`GenProfile` is the parameter envelope one generated chip is
drawn from: how many cores, how their scan chains and pattern counts are
distributed, how many embedded memories (and whether they carry repair
spares), and how tight the power/pin budgets are.  Profiles are
registered by name in :data:`PROFILES` (a
:class:`repro.util.registry.Registry`) — the CLI ``generate``/``fuzz``
commands and the corpus API resolve them through :func:`get_profile`:

    >>> from repro.gen import register_profile, GenProfile
    >>> register_profile(GenProfile(name="mychip", cores=(12, 12)))

The shipped ladder — ``tiny`` / ``small`` / ``d695-like`` / ``large`` /
``huge`` — spans two to sixty-four cores, so every scheduler in the
registry can be exercised from property-test size up to
stress-benchmark size (``benchmarks/bench_generator_scaling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.registry import Registry


@dataclass(frozen=True)
class GenProfile:
    """Parameter ranges for one class of generated SOCs.

    All ``(lo, hi)`` tuples are inclusive integer ranges; ``*_fraction``
    values are probabilities in [0, 1]; ``*_choices`` are drawn
    uniformly.

    Attributes:
        name: registry name of the profile.
        cores: core count range.
        scan_fraction: probability a core is scanned (vs. purely
            functional, like d695's ISCAS85 combinational cores).
        soft_fraction: probability a *scanned* core is soft (chains
            re-stitchable for an assigned TAM width) rather than hard.
        chains: scan-chain count range for scanned cores.
        chain_flops: per-chain flip-flop count range.
        scan_patterns: scan pattern count range.
        functional_patterns: functional pattern count range.
        dual_test_fraction: probability a scanned core *also* carries a
            functional test (the DSC's TV encoder does).
        inputs / outputs / bidirs: functional IO count ranges.
        memories: embedded SRAM count range.
        memory_words_choices / memory_bits_choices: geometry menu.
        redundancy_fraction: probability a memory ships spare rows/cols.
        test_power: per-test abstract power range.
        power_budget_fraction: probability the chip has a finite power
            budget (drawn to keep every single test schedulable).
        extra_pins: pins granted beyond the computed feasibility floor
            (the floor keeps even the dedicated-pin non-session baseline
            schedulable, so differential fuzzing never hits a spurious
            infeasibility).
        glue_gates: unwrapped glue-logic gate count range.
    """

    name: str
    cores: tuple[int, int] = (4, 8)
    scan_fraction: float = 0.8
    soft_fraction: float = 0.6
    chains: tuple[int, int] = (1, 8)
    chain_flops: tuple[int, int] = (20, 200)
    scan_patterns: tuple[int, int] = (10, 250)
    functional_patterns: tuple[int, int] = (50, 2000)
    dual_test_fraction: float = 0.2
    inputs: tuple[int, int] = (4, 64)
    outputs: tuple[int, int] = (4, 64)
    bidirs: tuple[int, int] = (0, 8)
    memories: tuple[int, int] = (0, 2)
    memory_words_choices: tuple[int, ...] = (256, 512, 1024, 2048, 4096)
    memory_bits_choices: tuple[int, ...] = (8, 16, 32)
    redundancy_fraction: float = 0.5
    test_power: tuple[float, float] = (0.5, 4.0)
    power_budget_fraction: float = 0.5
    extra_pins: tuple[int, int] = (0, 24)
    glue_gates: tuple[int, int] = (1_000, 50_000)

    def __post_init__(self) -> None:
        for field_name in ("cores", "chains", "chain_flops", "scan_patterns",
                           "functional_patterns", "inputs", "outputs", "bidirs",
                           "memories", "extra_pins", "glue_gates"):
            lo, hi = getattr(self, field_name)
            if lo < 0 or hi < lo:
                raise ValueError(
                    f"profile {self.name!r}: bad range {field_name}=({lo}, {hi})"
                )
        if self.cores[0] < 1:
            raise ValueError(f"profile {self.name!r}: needs at least one core")
        if self.chains[0] < 1:
            raise ValueError(f"profile {self.name!r}: scanned cores need a chain")
        for frac_name in ("scan_fraction", "soft_fraction", "dual_test_fraction",
                          "redundancy_fraction", "power_budget_fraction"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"profile {self.name!r}: {frac_name}={value} outside [0, 1]"
                )

    @property
    def slug(self) -> str:
        """The profile name as an identifier fragment (for SOC names)."""
        return self.name.replace("-", "_")


PROFILES: Registry[GenProfile] = Registry("generator profile")

#: Look up a profile by name (``ValueError`` listing the available ones
#: for an unknown name).
get_profile = PROFILES.lookup

#: Registered profile names, sorted.
available_profiles = PROFILES.names


def register_profile(profile: GenProfile) -> GenProfile:
    """Register ``profile`` under its name (last registration wins)."""
    return PROFILES.register(profile.name, profile)


# -- the shipped size ladder -------------------------------------------------

#: Property-test size: schedules in milliseconds, ILP-friendly.
TINY = register_profile(GenProfile(
    name="tiny",
    cores=(2, 4),
    chains=(1, 3),
    chain_flops=(10, 60),
    scan_patterns=(5, 60),
    functional_patterns=(20, 400),
    inputs=(2, 16),
    outputs=(2, 16),
    bidirs=(0, 2),
    memories=(0, 1),
    memory_words_choices=(64, 128, 256),
    memory_bits_choices=(4, 8),
    extra_pins=(0, 8),
    glue_gates=(500, 5_000),
))

#: Everyday differential-fuzz size.
SMALL = register_profile(GenProfile(
    name="small",
    cores=(4, 8),
    chains=(1, 6),
    chain_flops=(20, 150),
    scan_patterns=(10, 150),
    memories=(0, 2),
    memory_words_choices=(128, 256, 512, 1024),
    extra_pins=(0, 16),
))

#: Shaped like the ITC'02 d695 instance: ten cores, a couple purely
#: combinational, big chain-count spread, no embedded memories.
D695_LIKE = register_profile(GenProfile(
    name="d695-like",
    cores=(10, 10),
    scan_fraction=0.8,
    soft_fraction=1.0,
    chains=(1, 32),
    chain_flops=(30, 60),
    scan_patterns=(12, 236),
    functional_patterns=(12, 80),
    dual_test_fraction=0.0,
    inputs=(14, 207),
    outputs=(1, 320),
    bidirs=(0, 0),
    memories=(0, 0),
    power_budget_fraction=0.0,
    extra_pins=(8, 32),
    glue_gates=(1_000, 10_000),
))

#: Design-sweep size: stresses the heuristics' local search.
LARGE = register_profile(GenProfile(
    name="large",
    cores=(16, 32),
    chains=(2, 16),
    chain_flops=(50, 400),
    scan_patterns=(20, 500),
    memories=(2, 6),
    memory_words_choices=(1024, 2048, 4096, 8192),
    memory_bits_choices=(16, 32, 64),
    extra_pins=(8, 48),
    glue_gates=(20_000, 200_000),
))

#: Stress size for scaling benchmarks (heuristics only; far past the ILP).
HUGE = register_profile(GenProfile(
    name="huge",
    cores=(48, 64),
    chains=(2, 32),
    chain_flops=(50, 600),
    scan_patterns=(20, 800),
    memories=(4, 12),
    memory_words_choices=(2048, 4096, 8192, 16384),
    memory_bits_choices=(16, 32, 64),
    extra_pins=(16, 64),
    glue_gates=(100_000, 1_000_000),
))
