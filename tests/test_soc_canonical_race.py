"""The canonical text races the per-bit dict form it replaced.

:func:`repro.soc.digest.canonical_text` writes the ``v1`` canonical
bytes from port-shape templates; ``tests/oracles/soc_canonical_ref.py``
keeps the builder that made one JSON object per port bit.  Serialized
by :func:`repro.soc.digest.canonical_json`, the reference must equal the
text byte for byte on every chip below: DSC and d695 at five pin
budgets, generated chips of every profile (each also after a ``.soc``
round trip), a demo-core chip, cores parsed back from their STIL (one
port per bit) and hypothesis cores mixing runs, buses and single ports
whose shapes repeat and differ.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gen import SocGenerator, soc_to_text
from repro.soc import Core, Direction, MemorySpec, Port, SignalKind, Soc, functional_test
from repro.soc.demo import build_demo_core
from repro.soc.digest import canonical_json, canonical_text
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc, soc_from_text
from repro.stil import core_from_stil, core_to_stil

from oracles.soc_canonical_ref import canonical_soc as canonical_soc_reference

PINS = (16, 32, 48, 64, 128)
PROFILES = ("tiny", "small", "d695-like", "large")


def mismatches(chips: list[Soc]) -> list[str]:
    return [
        soc.name for soc in chips
        if canonical_text(soc) != canonical_json(canonical_soc_reference(soc))
    ]


def round_trip(soc: Soc) -> Soc:
    return soc_from_text(soc_to_text(soc), test_pins=soc.test_pins)


@pytest.mark.parametrize("build", [build_dsc_chip, d695_soc], ids=["dsc", "d695"])
def test_named_chips_at_every_budget(build):
    chips = [build(test_pins=pins) for pins in PINS]
    assert mismatches(chips) == []


@pytest.mark.parametrize("profile", PROFILES)
def test_generated_chips_and_their_round_trips(profile):
    chips = [SocGenerator(seed, profile).generate() for seed in range(20)]
    assert mismatches(chips + [round_trip(soc) for soc in chips]) == []


def test_huge_chips():
    assert mismatches([SocGenerator(seed, "huge").generate() for seed in range(4)]) == []


def test_demo_core_chip():
    soc = Soc("chip", test_pins=32)
    soc.add_core(build_demo_core("cpu", patterns=50))
    soc.add_memory(MemorySpec("m0", words=64, bits=8))
    assert mismatches([soc]) == []


@pytest.mark.parametrize("build", [
    build_dsc_chip, d695_soc, SocGenerator(1, "tiny").generate, SocGenerator(1, "large").generate,
], ids=["dsc", "d695", "tiny-1", "large-1"])
def test_cores_parsed_from_stil(build):
    """A STIL core comes back with one port per bit, never a run."""
    soc = build()
    cores = [core_from_stil(core_to_stil(core)).core for core in soc.cores]
    assert any(len(parsed.ports) > len(core.ports) for parsed, core in zip(cores, soc.cores))
    assert mismatches([soc, dataclasses.replace(soc, cores=cores)]) == []


def _valid(direction: Direction, kind: SignalKind) -> bool:
    try:
        Port("p", direction, kind)
    except ValueError:
        return False
    return True


ROLES = [(d, k) for d in Direction for k in SignalKind if _valid(d, k)]
#: ``None``, plain names, and names JSON must escape
DOMAINS = [None, "clk", "clk_b", 'dom"q', "domé"]


@st.composite
def shaped_chips(draw) -> Soc:
    """Chips whose ports draw on a small pool of shapes, so shapes repeat
    within and across cores; a functional single-bit shape also makes
    runs (lengths 1-40), a wide one buses (widths 2-8)."""
    shapes = draw(st.lists(st.tuples(
        st.sampled_from(DOMAINS),
        st.sampled_from(ROLES),
        st.one_of(st.just(1), st.integers(2, 8)),
    ), min_size=1, max_size=5))
    cores = []
    for c in range(draw(st.integers(1, 3))):
        ports = []
        for i in range(draw(st.integers(0, 12))):
            domain, (direction, kind), width = draw(st.sampled_from(shapes))
            run = None
            if width == 1 and kind is SignalKind.FUNCTIONAL and draw(st.booleans()):
                run = draw(st.integers(1, 40))
            name = f"r{i}_" if run else f"p{i}"
            ports.append(Port(name, direction, kind, width, domain, run))
        cores.append(Core(f"c{c}", ports=ports, tests=[functional_test(5)]))
    return Soc("chip", cores=cores, test_pins=16)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(soc=shaped_chips())
def test_shaped_chips(soc):
    assert canonical_text(soc) == canonical_json(canonical_soc_reference(soc))
