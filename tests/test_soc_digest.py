"""Tests for the canonical SOC serialization and content digest
(`repro.soc.digest`) — the cache key of the serving layer."""

import dataclasses
import json

import pytest

from repro.gen import SocGenerator, soc_to_text
from repro.soc import (
    Core,
    Direction,
    Port,
    RedundancySpec,
    SignalKind,
    Soc,
    functional_test,
    soc_digest,
)
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc, soc_from_text

from oracles.soc_canonical_ref import canonical_soc


def tiny(seed: int = 7):
    return SocGenerator(seed, "tiny").generate()


#: v1 digests: the keys of every result-cache entry already on disk
PINNED = {
    "d695": "71037e3f1017809a5f50add9bc191a9ac925b077a9dc6c577e62a9ce5875d514",
    "d695-48": "e5cbae08031d1c1378c2a3b2e084f81d0258e0b54f9bfad32826c67bfecc8a93",
    "dsc": "4ad00a20dfc1947fa2e3d82572b9c6ad17ac4e26ec2bc9fcde5722f0b4d24d11",
    "tiny-1": "2b079e1505348aff4bdcaf5ed77f4ba03c31bd10504ce932c39ac5a425bf0ca0",
    "small-1": "237b27e6d1b240fed80bd08a99d34d450c4e3343749442c068951b14bdde8c72",
    "d695-like-1": "df8a03b7a04e28efbc526864e592f01daedd0303d5a760d3df3705a91ac15c6e",
    "large-1": "78432afbd8ff8317f0d066a57061952562639a69d6a29389e1ab578d682ed2aa",
    "huge-1": "ad2fe30e720817bb66cfa64b824560fe67b97e1f8fe73180573a9d5b26c38455",
}
PINNED_BUILDS = {
    "d695": d695_soc,
    "d695-48": lambda: d695_soc(test_pins=48),
    "dsc": build_dsc_chip,
    **{
        f"{profile}-1": SocGenerator(1, profile).generate
        for profile in ("tiny", "small", "d695-like", "large", "huge")
    },
}

#: one core whose ports repeat shapes: ``b`` shares ``a``'s shape and
#: ``s`` the bus ``q``'s, and ``r`` is a run, so a shape template keyed
#: on too little shows as an unchanged digest below
PORTS = (
    Port("a", Direction.IN),
    Port("b", Direction.IN),
    Port("r", Direction.IN, run=4),
    Port("q", Direction.OUT, width=4),
    Port("s", Direction.OUT, width=4),
)


def port_chip(ports=PORTS) -> Soc:
    core = Core("c", ports=list(ports), tests=[functional_test(5)])
    return Soc("chip", cores=[core], test_pins=16)


def with_port(index: int, **changes) -> Soc:
    ports = list(PORTS)
    ports[index] = dataclasses.replace(ports[index], **changes)
    return port_chip(ports)


class TestDigestStability:
    def test_is_hex_sha256(self):
        digest = d695_soc().digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_equal_builds_equal_digests(self):
        assert d695_soc(test_pins=48).digest() == d695_soc(test_pins=48).digest()
        assert build_dsc_chip().digest() == build_dsc_chip().digest()
        assert tiny().digest() == tiny().digest()

    def test_v1_digests_are_pinned(self):
        assert {label: build().digest() for label, build in PINNED_BUILDS.items()} == PINNED

    def test_method_matches_function(self):
        soc = tiny()
        assert soc.digest() == soc_digest(soc)

    def test_canonical_form_is_json_native(self):
        doc = canonical_soc(build_dsc_chip())
        assert json.loads(json.dumps(doc)) == doc

    def test_roundtrip_through_soc_writer_parser(self):
        """write → parse → rebuild must be digest-identical for chips the
        exchange format fully carries (logic cores, like d695)."""
        for pins in (32, 48, 64):
            soc = d695_soc(test_pins=pins)
            rebuilt = soc_from_text(soc_to_text(soc), test_pins=pins)
            assert soc.digest() == rebuilt.digest()

    def test_generated_core_structure_roundtrips(self):
        """Generated chips carry memories/power the .soc format drops, so
        compare the *core* projection: rebuild from text, then check the
        rebuilt chip against its own second rebuild (stability through
        the parser, not lossless equality)."""
        soc = tiny()
        text = soc_to_text(soc)
        first = soc_from_text(text, test_pins=soc.test_pins)
        second = soc_from_text(text, test_pins=soc.test_pins)
        assert first.digest() == second.digest()


class TestDigestSensitivity:
    def test_name_matters(self):
        soc = tiny()
        renamed = dataclasses.replace(soc, name="other_chip")
        assert soc.digest() != renamed.digest()

    def test_pin_budget_matters(self):
        soc = tiny()
        assert soc.digest() != dataclasses.replace(soc, test_pins=soc.test_pins + 1).digest()

    def test_power_budget_matters(self):
        soc = tiny()
        mutated = dataclasses.replace(soc, power_budget=soc.power_budget + 0.5)
        assert soc.digest() != mutated.digest()

    def test_glue_gate_count_matters(self):
        soc = tiny()
        assert soc.digest() != dataclasses.replace(soc, gate_count=soc.gate_count + 1).digest()

    def test_core_list_matters(self):
        soc = tiny()
        shrunk = dataclasses.replace(soc, cores=soc.cores[:-1])
        assert soc.digest() != shrunk.digest()

    def test_core_order_matters(self):
        """Core order is semantic (it is schedule/TAM input), so a
        permuted chip is a different chip."""
        soc = tiny()
        assert len(soc.cores) >= 2
        permuted = dataclasses.replace(soc, cores=list(reversed(soc.cores)))
        assert soc.digest() != permuted.digest()

    def test_pattern_count_matters(self):
        soc = tiny()
        core = soc.cores[0]
        test = core.tests[0]
        bumped = dataclasses.replace(
            core,
            tests=[dataclasses.replace(test, patterns=test.patterns + 1)]
            + core.tests[1:],
        )
        mutated = dataclasses.replace(soc, cores=[bumped] + soc.cores[1:])
        assert soc.digest() != mutated.digest()

    def test_chain_length_matters(self):
        soc = d695_soc()
        core = next(c for c in soc.cores if c.scan_chains)
        chain = core.scan_chains[0]
        bumped = dataclasses.replace(
            core,
            scan_chains=[dataclasses.replace(chain, length=chain.length + 1)]
            + core.scan_chains[1:],
        )
        mutated = dataclasses.replace(
            soc, cores=[bumped if c.name == core.name else c for c in soc.cores]
        )
        assert soc.digest() != mutated.digest()

    def test_memory_redundancy_matters(self):
        soc = build_dsc_chip()
        assert soc.memories
        spec = soc.memories[0]
        current = spec.redundancy or RedundancySpec(0, 0)
        respared = dataclasses.replace(
            spec,
            redundancy=RedundancySpec(current.spare_rows + 1, current.spare_cols),
        )
        mutated = dataclasses.replace(
            soc, memories=[respared] + soc.memories[1:]
        )
        assert soc.digest() != mutated.digest()

    def test_memory_list_matters(self):
        soc = build_dsc_chip()
        shrunk = dataclasses.replace(soc, memories=soc.memories[:-1])
        assert soc.digest() != shrunk.digest()

    @pytest.mark.parametrize(
        "index, changes",
        [
            (1, {"direction": Direction.OUT}),
            (1, {"direction": Direction.INOUT}),
            (1, {"kind": SignalKind.TEST}),
            (1, {"width": 2}),
            (1, {"clock_domain": "clk"}),
            (1, {"name": "e"}),
            (2, {"run": 5}),
            (2, {"name": "t"}),
            (4, {"width": 3}),
            (4, {"clock_domain": "clk"}),
            (4, {"direction": Direction.INOUT}),
        ],
        ids=[
            "direction", "direction-inout", "kind", "width", "clock_domain", "name",
            "run-length", "run-name", "bus-width", "bus-clock_domain", "bus-direction",
        ],
    )
    def test_port_field_matters(self, index, changes):
        assert port_chip().digest() != with_port(index, **changes).digest()

    def test_port_order_within_a_shape_matters(self):
        a, b, *rest = PORTS
        assert port_chip().digest() != port_chip((b, a, *rest)).digest()
        q, s = PORTS[3:]
        assert port_chip().digest() != port_chip((*PORTS[:3], s, q)).digest()

    def test_named_clock_domains_of_one_shape_differ(self):
        """Two named domains on otherwise equal ports are two shapes."""
        a, b, *rest = PORTS
        x = dataclasses.replace(a, clock_domain="x")
        same = port_chip((x, dataclasses.replace(b, clock_domain="x"), *rest))
        other = port_chip((x, dataclasses.replace(b, clock_domain="y"), *rest))
        assert same.digest() != other.digest()


class TestSocFromText:
    def test_builds_named_chip(self):
        soc = soc_from_text("SocName demo\nModule m0 Inputs 2 Outputs 1 Patterns 5\n")
        assert soc.name == "demo"
        assert [c.name for c in soc.cores] == ["m0"]

    def test_name_override(self):
        soc = soc_from_text("Module m0 Inputs 1 Outputs 1 Patterns 2\n", name="x")
        assert soc.name == "x"

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="SocName"):
            soc_from_text("Module m0 Inputs 1 Outputs 1 Patterns 2\n")

    def test_empty_module_list_rejected(self):
        with pytest.raises(ValueError, match="no Module"):
            soc_from_text("SocName empty\n")

    def test_budgets_applied(self):
        soc = soc_from_text(
            "SocName demo\nModule m0 Inputs 2 Outputs 1 Patterns 5\n",
            test_pins=32,
            power_budget=4.0,
        )
        assert soc.test_pins == 32 and soc.power_budget == 4.0
