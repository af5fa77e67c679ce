"""Synthetic SOC workload generation (the SAIBERSOC posture for STEAC).

Seeded, profile-driven generation of valid :class:`repro.soc.Soc`
instances (``SocGenerator(seed, profile).generate(index)``, the one
synthetic-chip source), the transferable coordinates that rebuild a chip
(:class:`ScenarioSpec`, :func:`scenario_specs`), and an ITC'02 ``.soc``
writer that round-trips through the existing parser — the substrate the
differential fuzz harness (``python -m repro fuzz``), the property-based
tests, and the scaling benchmarks all draw from.  On top of the one-shot
sweep, :mod:`repro.gen.campaign` runs resumable, checkpointed soaks
(``python -m repro campaign``) with violation dedupe and greedy failure
shrinking (:mod:`repro.gen.shrink`).
"""

from repro.gen.campaign import (
    CAMPAIGN_REPORT_SCHEMA,
    Campaign,
    CampaignConfig,
    CampaignInterrupted,
    campaign_status,
    load_repro,
    replay_repro,
    resume_campaign,
    run_campaign,
)
from repro.gen.corpus import DEFAULT_PROFILES, ScenarioSpec, scenario_specs
from repro.gen.fuzzing import FUZZ_SCHEMA, fuzz_scenario, run_fuzz
from repro.gen.generator import SocGenerator, chip_name
from repro.gen.profiles import (
    GenProfile,
    available_profiles,
    get_profile,
    register_profile,
)
from repro.gen.shrink import (
    ViolationSignature,
    apply_ops,
    shrink_scenario,
    shrink_soc,
)
from repro.gen.writer import (
    core_to_module,
    roundtrip_errors,
    soc_to_modules,
    soc_to_text,
)

__all__ = [
    "CAMPAIGN_REPORT_SCHEMA",
    "Campaign",
    "CampaignConfig",
    "CampaignInterrupted",
    "DEFAULT_PROFILES",
    "FUZZ_SCHEMA",
    "GenProfile",
    "ViolationSignature",
    "ScenarioSpec",
    "SocGenerator",
    "apply_ops",
    "available_profiles",
    "campaign_status",
    "chip_name",
    "core_to_module",
    "fuzz_scenario",
    "get_profile",
    "load_repro",
    "register_profile",
    "replay_repro",
    "resume_campaign",
    "roundtrip_errors",
    "run_campaign",
    "run_fuzz",
    "scenario_specs",
    "shrink_scenario",
    "shrink_soc",
    "soc_to_modules",
    "soc_to_text",
]
