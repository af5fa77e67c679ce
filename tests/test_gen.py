"""Tests for :mod:`repro.gen`: profiles, generator, writer, corpus."""

import dataclasses

import pytest

from repro.gen import (
    GenProfile,
    ScenarioSpec,
    SocGenerator,
    available_profiles,
    get_profile,
    register_profile,
    roundtrip_errors,
    roundtrips,
    scenario_specs,
    soc_to_modules,
    soc_to_text,
)
from repro.sched import SharingPolicy, control_pins, tasks_from_soc
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc, d695_soc_text, parse_soc, soc_from_modules


def soc_fingerprint(soc) -> tuple:
    """A deep structural digest of everything the generator draws."""
    return (
        soc.name,
        soc.test_pins,
        soc.power_budget,
        soc.gate_count,
        tuple(
            (
                c.name, c.core_type.value, c.wrapped, c.gate_count,
                tuple(c.chain_lengths),
                tuple((p.name, p.direction.value, p.kind.value) for p in c.ports),
                tuple((t.name, t.kind.value, t.patterns, t.power) for t in c.tests),
            )
            for c in soc.cores
        ),
        tuple(
            (
                m.name, m.words, m.bits, m.mem_type.value, m.power,
                (m.redundancy.spare_rows, m.redundancy.spare_cols)
                if m.redundancy else None,
            )
            for m in soc.memories
        ),
    )


class TestProfiles:
    def test_ladder_registered(self):
        for name in ("tiny", "small", "d695-like", "large", "huge"):
            assert name in available_profiles()
            assert get_profile(name).name == name

    def test_unknown_profile_lists_available(self):
        with pytest.raises(ValueError, match="tiny"):
            get_profile("gigantic")

    def test_register_profile_resolves(self):
        profile = register_profile(GenProfile(name="test-profile", cores=(3, 3)))
        assert get_profile("test-profile") is profile

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="bad range"):
            GenProfile(name="broken", cores=(5, 2))
        with pytest.raises(ValueError, match="outside"):
            GenProfile(name="broken", scan_fraction=1.5)

    def test_slug_is_identifier_safe(self):
        assert get_profile("d695-like").slug == "d695_like"


class TestDeterminism:
    @pytest.mark.parametrize("profile", ["tiny", "small", "d695-like", "large"])
    def test_equal_seeds_bit_identical(self, profile):
        a = SocGenerator(seed=11, profile=profile).generate()
        b = SocGenerator(seed=11, profile=profile).generate()
        assert soc_fingerprint(a) == soc_fingerprint(b)
        assert soc_to_text(a) == soc_to_text(b)

    def test_different_seeds_differ(self):
        texts = {soc_to_text(SocGenerator(s, "small").generate()) for s in range(8)}
        assert len(texts) == 8

    def test_stream_indices_differ_and_replay(self):
        gen = SocGenerator(seed=2, profile="tiny")
        stream = [gen.generate(index) for index in range(4)]
        assert len({s.name for s in stream}) == 4
        # index replay is exact
        again = SocGenerator(seed=2, profile="tiny").generate(2)
        assert soc_fingerprint(again) == soc_fingerprint(stream[2])


class TestGeneratedValidity:
    @pytest.mark.parametrize("profile", ["tiny", "small", "d695-like"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_profile_envelope(self, profile, seed):
        spec = get_profile(profile)
        soc = SocGenerator(seed, profile).generate()
        assert spec.cores[0] <= len(soc.cores) <= spec.cores[1]
        assert spec.memories[0] <= len(soc.memories) <= spec.memories[1]
        for core in soc.cores:
            if core.scan_chains:
                assert spec.chains[0] <= len(core.scan_chains) <= spec.chains[1]
                for length in core.chain_lengths:
                    assert spec.chain_flops[0] <= length <= spec.chain_flops[1]

    @pytest.mark.parametrize("seed", range(5))
    def test_pin_floor_covers_dedicated_pin_baseline(self, seed):
        """The generated pin budget keeps even the non-session scheduler
        (all control pins dedicated, one wire pair) feasible."""
        soc = SocGenerator(seed, "small").generate()
        ctrl = control_pins(tasks_from_soc(soc), SharingPolicy.none())
        assert soc.test_pins >= ctrl + 2

    @pytest.mark.parametrize("seed", range(5))
    def test_power_budget_admits_every_single_test(self, seed):
        soc = SocGenerator(seed, "large").generate()
        if soc.power_budget <= 0:
            pytest.skip("unconstrained draw")
        peak = max(
            [t.power for c in soc.cores for t in c.tests]
            + [m.power for m in soc.memories]
        )
        assert soc.power_budget >= peak


class TestItc02Writer:
    @pytest.mark.parametrize("profile", ["tiny", "small", "d695-like", "large"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_generated_socs_roundtrip(self, profile, seed):
        soc = SocGenerator(seed, profile).generate()
        assert roundtrip_errors(soc) == []
        name, modules = parse_soc(soc_to_text(soc))
        assert name == soc.name
        assert modules == soc_to_modules(soc)

    def test_rebuilt_soc_reaches_text_fixpoint(self):
        """text -> Soc -> text is a fixpoint (writer inverts the
        module_to_core convention exactly)."""
        soc = SocGenerator(4, "small").generate()
        text = soc_to_text(soc)
        name, modules = parse_soc(text)
        rebuilt = soc_from_modules(name, modules, test_pins=soc.test_pins)
        assert soc_to_text(rebuilt) == text

    def test_d695_text_roundtrips_via_shared_helpers(self):
        name, modules = parse_soc(d695_soc_text())
        assert name == "d695"
        assert [m.name for m in modules] == [c.name for c in d695_soc().cores]
        assert roundtrips(d695_soc())

    def test_dsc_does_not_roundtrip(self):
        """The DSC chip has multi-test cores and rich control IO the
        exchange format cannot express — the writer still runs, but the
        projection is lossy (scan+functional collapses to one pattern
        count), which roundtrip_errors does NOT flag: the module-level
        text itself still parses back to equal modules."""
        soc = build_dsc_chip()
        assert roundtrips(soc)  # module-level equality always holds
        # ...but the projection dropped the functional tests:
        tv = soc.core("TV")
        module = soc_to_modules(soc)[[c.name for c in soc.cores].index("TV")]
        assert module.patterns == tv.scan_patterns
        assert tv.functional_patterns > 0


class TestCorpus:
    def test_stream_is_reproducible(self):
        a = [spec.name for spec in scenario_specs(6, base_seed=10)]
        b = [spec.name for spec in scenario_specs(6, base_seed=10)]
        assert a == b and len(set(a)) == 6

    def test_profiles_cycle(self):
        specs = scenario_specs(4, profiles=("tiny", "small"))
        assert [s.profile for s in specs] == ["tiny", "small", "tiny", "small"]
        assert [s.seed for s in specs] == [0, 1, 2, 3]

    def test_scenario_regenerates_identically(self):
        spec = scenario_specs(1, profiles=("small",), base_seed=42)[0]
        first = spec.build()
        assert first.name == spec.name
        assert soc_fingerprint(spec.build()) == soc_fingerprint(first)

    def test_scenario_is_replayable_from_coordinates_alone(self):
        spec = ScenarioSpec(profile="tiny", seed=7, index=2)
        rebuilt = SocGenerator(spec.seed, spec.profile).generate(spec.index)
        assert soc_fingerprint(rebuilt) == soc_fingerprint(spec.build())

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError, match="at least one profile"):
            scenario_specs(1, profiles=())

    def test_scenario_is_frozen(self):
        spec = scenario_specs(1)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99
