"""Tests for the Monte-Carlo repair-rate engine (repro.repair.montecarlo)."""

import dataclasses
import random

import pytest

from repro.bist import MARCH_C_MINUS
from repro.repair import (
    Defect,
    DefectModel,
    defect_bitmap,
    diagnose_defects,
    diagnosis_geometry,
    estimate_repair_rate,
    sample_defects,
)
from repro.repair.montecarlo import _poisson
from repro.soc import MemorySpec, MemoryType, RedundancySpec


def small_memories() -> list[MemorySpec]:
    return [
        MemorySpec("m0", words=1024, bits=8),
        MemorySpec("m1", words=2048, bits=16, mem_type=MemoryType.TWO_PORT),
    ]


#: Density high enough that 60-trial runs see fails, repairs, and deaths.
DENSE = DefectModel(defects_per_mbit=400.0)


class TestDefectSampling:
    def test_poisson_mean_is_roughly_lambda(self):
        rng = random.Random(3)
        samples = [_poisson(2.5, rng) for _ in range(4000)]
        assert 2.3 < sum(samples) / len(samples) < 2.7

    def test_count_scales_with_true_capacity(self):
        """A 16x bigger array draws ~16x the defects even though both are
        modelled at the same down-scaled geometry."""
        model = DefectModel(defects_per_mbit=40.0)
        big = MemorySpec("big", words=65536, bits=16)
        small = MemorySpec("small", words=4096, bits=16)
        rng = random.Random(5)
        n_big = sum(len(sample_defects(model, big, rng)) for _ in range(300))
        n_small = sum(len(sample_defects(model, small, rng)) for _ in range(300))
        assert n_big > 8 * max(n_small, 1)

    def test_defects_land_in_model_geometry(self):
        spec = MemorySpec("m", words=65536, bits=16)
        rows, cols = diagnosis_geometry(spec, model_rows=64)
        assert (rows, cols) == (64, 16)
        rng = random.Random(1)
        for defect in sample_defects(DENSE, spec, rng, model_rows=64):
            assert 0 <= defect.row < rows and 0 <= defect.col < cols

    def test_clustered_model_has_fatter_tail(self):
        """Clustering keeps the mean but concentrates defects: more
        zero-defect draws AND more heavily-hit arrays."""
        spec = MemorySpec("m", words=8192, bits=16)
        poisson = DefectModel(defects_per_mbit=16.0)
        clustered = DefectModel(defects_per_mbit=16.0, clustering_alpha=0.3)
        rng_p, rng_c = random.Random(9), random.Random(9)
        n_p = [poisson.sample_count(spec, rng_p) for _ in range(2000)]
        n_c = [clustered.sample_count(spec, rng_c) for _ in range(2000)]
        assert n_c.count(0) > n_p.count(0)
        assert max(n_c) > max(n_p)


class TestDefectBitmaps:
    def test_cell_defect_is_one_fail(self):
        assert Defect("cell", 3, 4).cells(8, 8) == {(3, 4)}

    def test_line_defects_fill_the_line(self):
        assert Defect("row", 2, 5).cells(4, 6) == {(2, c) for c in range(6)}
        assert Defect("col", 2, 5).cells(4, 6) == {(r, 5) for r in range(4)}

    def test_analytic_bitmap_matches_march_diagnosis(self):
        """The fast analytic path and a real March C- run over the
        injected fault models produce the same bitmap."""
        spec = MemorySpec("m", words=16, bits=8)
        rows, cols = diagnosis_geometry(spec, model_rows=16)
        rng = random.Random(21)
        checked = 0
        while checked < 20:
            defects = [
                Defect(kind, rng.randrange(rows), rng.randrange(cols))
                for kind in ("cell", "pair", "row", "col")
                for _ in range(rng.randrange(0, 2))
            ]
            # overlapping fault footprints interact (CompositeFault's
            # first-claimer rule), which the analytic path by design
            # does not model — compare on non-interacting defect sets
            footprints = [
                {c for f in d.to_faults(rows, cols) for c in f.cells_involved}
                for d in defects
            ]
            if sum(len(f) for f in footprints) != len(set().union(*footprints, set())):
                continue
            checked += 1
            analytic = defect_bitmap(defects, rows, cols)
            simulated = diagnose_defects(defects, spec, MARCH_C_MINUS, model_rows=16)
            assert simulated.fails == analytic.fails

    def test_pair_defect_on_one_bit_wide_array(self):
        """cols == 1 leaves no horizontal neighbor; the aggressor moves
        to the vertical neighbor and the paths still agree."""
        spec = MemorySpec("narrow", words=8, bits=1)
        rows, cols = diagnosis_geometry(spec, model_rows=8)
        assert cols == 1
        for row in (0, 3, 7):
            defects = [Defect("pair", row, 0)]
            faults = defects[0].to_faults(rows, cols)
            assert all(0 <= c < rows * cols for f in faults for c in f.cells_involved)
            analytic = defect_bitmap(defects, rows, cols)
            simulated = diagnose_defects(defects, spec, MARCH_C_MINUS, model_rows=8)
            assert simulated.fails == analytic.fails == {(row, 0)}


class TestEstimateRepairRate:
    def test_tallies_are_consistent(self):
        result = estimate_repair_rate(
            small_memories(), trials=60, seed=3, model=DENSE,
            default_spares=RedundancySpec(2, 2),
        )
        assert result.trials == 60
        assert result.clean_chips + result.repaired_chips + result.dead_chips == 60
        assert 0.0 <= result.raw_yield <= result.effective_yield <= 1.0
        assert result.failing_chips > 0 and result.total_defects > 0

    def test_reproducible_for_same_seed(self):
        kwargs = dict(trials=40, seed=11, model=DENSE,
                      default_spares=RedundancySpec(2, 2))
        a = estimate_repair_rate(small_memories(), **kwargs)
        b = estimate_repair_rate(small_memories(), **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_worker_count_does_not_change_results(self):
        """Per-trial seeding makes the fan-out bit-identical to the
        serial loop, whatever the chunking."""
        kwargs = dict(trials=30, seed=5, model=DENSE,
                      default_spares=RedundancySpec(2, 2))
        serial = estimate_repair_rate(small_memories(), **kwargs)
        fanned = estimate_repair_rate(small_memories(), workers=3, **kwargs)
        assert serial.to_dict() == fanned.to_dict()

    def test_more_spares_never_hurt(self):
        lean = estimate_repair_rate(
            small_memories(), trials=60, seed=7, model=DENSE,
            default_spares=RedundancySpec(1, 0),
        )
        rich = estimate_repair_rate(
            small_memories(), trials=60, seed=7, model=DENSE,
            default_spares=RedundancySpec(4, 4),
        )
        assert rich.effective_yield >= lean.effective_yield
        assert rich.repair_rate >= lean.repair_rate

    def test_spec_redundancy_overrides_default(self):
        """Memories with their own RedundancySpec ignore default_spares:
        zero own spares make any failing chip unrepairable."""
        bare = [dataclasses.replace(m, redundancy=RedundancySpec(0, 0))
                for m in small_memories()]
        result = estimate_repair_rate(
            bare, trials=40, seed=7, model=DENSE,
            default_spares=RedundancySpec(8, 8),
        )
        assert result.failing_chips > 0
        assert result.repaired_chips == 0

    def test_exact_allocator_selectable(self):
        result = estimate_repair_rate(
            small_memories(), trials=20, seed=7, allocator="exact",
            model=DefectModel(defects_per_mbit=60.0),
            default_spares=RedundancySpec(2, 2),
        )
        assert result.allocator == "exact"
        assert result.trials == 20

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_repair_rate(small_memories(), trials=0)
