"""Result cache (repro.serve.cache) and content addressing
(repro.serve.keys): LRU behaviour, disk persistence, and the
normalization rules the cache's correctness rests on."""

import hashlib
import json

import pytest

from repro.serve.cache import ResultCache
from repro.serve.keys import JobError, cache_key, normalize_payload
from repro.serve.runners import content_address

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestResultCacheMemory:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, '{"x": 1}')
        assert cache.get(KEY_A) == '{"x": 1}'
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put(KEY_A, "a")
        cache.put(KEY_B, "b")
        assert cache.get(KEY_A) == "a"  # refresh A: B is now the LRU entry
        cache.put(KEY_C, "c")
        assert cache.evictions == 1
        assert cache.get(KEY_B) is None
        assert cache.get(KEY_A) == "a" and cache.get(KEY_C) == "c"

    def test_len_and_contains(self):
        cache = ResultCache(capacity=4)
        assert len(cache) == 0 and KEY_A not in cache
        cache.put(KEY_A, "a")
        assert len(cache) == 1 and KEY_A in cache

    def test_zero_capacity_disables_memory_tier(self):
        cache = ResultCache(capacity=0)
        cache.put(KEY_A, "a")
        assert cache.get(KEY_A) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_clear_drops_memory(self):
        cache = ResultCache(capacity=4)
        cache.put(KEY_A, "a")
        cache.clear()
        assert cache.get(KEY_A) is None

    def test_stats_shape(self):
        cache = ResultCache(capacity=4)
        cache.put(KEY_A, "a")
        cache.get(KEY_A)
        cache.get(KEY_B)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["disk"] is None


class TestResultCacheDisk:
    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(capacity=4, cache_dir=tmp_path / "store")
        first.put(KEY_A, '{"x": 1}')
        second = ResultCache(capacity=4, cache_dir=tmp_path / "store")
        assert second.get(KEY_A) == '{"x": 1}'
        assert second.disk_hits == 1

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        cache.clear()
        assert cache.get(KEY_A) == "a"  # from disk
        assert cache.get(KEY_A) == "a"  # now from memory
        assert cache.disk_hits == 1 and cache.hits == 2

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultCache(capacity=1, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        cache.put(KEY_B, "b")  # evicts A from memory
        assert cache.get(KEY_A) == "a"

    def test_zero_capacity_pure_disk_cache(self, tmp_path):
        cache = ResultCache(capacity=0, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        assert cache.get(KEY_A) == "a"
        assert cache.disk_hits == 1

    def test_non_hex_key_rejected(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        with pytest.raises(ValueError):
            cache.put("../escape", "x")

    def test_entries_are_named_by_key(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, "payload")
        digest = hashlib.sha256(b"payload").hexdigest()
        assert (tmp_path / f"{KEY_A}.json").read_bytes() == f"sha256:{digest}\npayload".encode()


class TestResultCacheDiskIntegrity:
    """A disk entry is served only if its body matches the digest it was
    written with; any other entry is a miss and is moved aside."""

    TEXT = json.dumps({"schedule": {"total_time": 31073}, "name": "d\u00e9 \"x\""}, indent=2)

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped", "digest-less"])
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        ResultCache(cache_dir=tmp_path).put(KEY_A, self.TEXT)
        path = tmp_path / f"{KEY_A}.json"
        raw = path.read_bytes()
        if damage == "truncated":
            torn = raw[: len(raw) // 2]
        elif damage == "bit-flipped":
            # "31073" becomes "31072": the body still parses
            at = raw.index(b"31073") + 4
            torn = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]
            json.loads(torn.partition(b"\n")[2])
        else:
            # the bare body, as entries were written before the digest
            torn = self.TEXT.encode()
        path.write_bytes(torn)
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        assert cache.get(KEY_A) is None
        assert (cache.hits, cache.misses, cache.disk_hits) == (0, 1, 0)
        assert not path.exists()
        assert (tmp_path / f"{KEY_A}.corrupt").read_bytes() == torn
        assert KEY_A not in cache
        # the recomputed result writes the entry afresh
        cache.put(KEY_A, self.TEXT)
        again = ResultCache(capacity=4, cache_dir=tmp_path)
        assert again.get(KEY_A) == self.TEXT and again.disk_hits == 1

    def test_intact_entry_round_trips_any_text(self, tmp_path):
        text = "line\r\nnext\rlast \u00e9\U0001f600\n"
        ResultCache(cache_dir=tmp_path).put(KEY_A, text)
        assert ResultCache(cache_dir=tmp_path).get(KEY_A) == text


class TestNormalization:
    def test_defaults_fill_in(self):
        explicit, _ = normalize_payload({
            "kind": "integrate", "soc": {"name": "d695"},
            "strategy": "session", "verify": False, "compare": False,
        })
        minimal, _ = normalize_payload({
            "kind": "integrate", "soc": {"name": "d695"},
        })
        assert explicit == minimal

    def test_execution_params_split_out(self):
        normalized, execution = normalize_payload({
            "kind": "batch", "socs": [{"name": "dsc"}],
            "backend": "process", "workers": 4,
        })
        assert execution == {"backend": "process", "workers": 4}
        assert "backend" not in json.dumps(normalized)

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="strateggy"):
            normalize_payload({
                "kind": "integrate", "soc": {"name": "d695"},
                "strateggy": "serial",
            })

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="kind"):
            normalize_payload({"kind": "compile"})

    def test_soc_ref_needs_exactly_one_form(self):
        with pytest.raises(JobError, match="exactly one"):
            normalize_payload({
                "kind": "integrate",
                "soc": {"name": "d695", "soc_text": "SocName x"},
            })
        with pytest.raises(JobError, match="exactly one"):
            normalize_payload({"kind": "integrate", "soc": {}})

    def test_unknown_named_soc_rejected(self):
        with pytest.raises(JobError, match="s38417"):
            normalize_payload({"kind": "integrate", "soc": {"name": "s38417"}})

    def test_spec_needs_profile_and_seed(self):
        with pytest.raises(JobError, match="profile and seed"):
            normalize_payload({
                "kind": "integrate", "soc": {"spec": {"profile": "tiny"}},
            })

    def test_bool_is_not_an_int(self):
        with pytest.raises(JobError, match="bool"):
            normalize_payload({
                "kind": "fuzz", "seeds": True,
            })

    @pytest.mark.parametrize("body", [
        '{"kind": "integrate", "soc": {"name": "dsc", "power_budget": Infinity}}',
        '{"kind": "integrate", "soc": {"name": "dsc", "power_budget": NaN}}',
        '{"kind": "batch", "socs": [{"name": "dsc", "power_budget": -Infinity}]}',
        '{"kind": "repair", "soc": {"name": "dsc"}, "defect_density": NaN}',
        '{"kind": "repair", "soc": {"name": "dsc"}, "defect_density": 1e400}',
    ])
    def test_non_finite_float_rejected(self, body):
        # json.loads accepts NaN, Infinity and overflowing literals
        with pytest.raises(JobError, match="must be a finite number"):
            normalize_payload(json.loads(body))

    def test_empty_batch_rejected(self):
        with pytest.raises(JobError, match="non-empty"):
            normalize_payload({"kind": "batch", "socs": []})

    def test_fuzz_strategies_resolved_at_submit(self):
        from repro.sched import available_strategies

        normalized, _ = normalize_payload({"kind": "fuzz"})
        assert normalized["strategies"] == list(available_strategies())


class TestCacheKeys:
    def _key(self, payload):
        normalized, _ = normalize_payload(payload)
        key, _ = content_address(normalized)
        return key

    def test_key_is_hex_sha256(self):
        key = self._key({"kind": "integrate", "soc": {"name": "d695"}})
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_defaulted_and_explicit_payloads_share_a_key(self):
        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) == self._key({
            "kind": "integrate", "soc": {"name": "d695"},
            "strategy": "session", "verify": False, "compare": False,
        })

    def test_execution_params_do_not_change_the_key(self):
        """backend/workers steer speed, never results — sweeps from
        differently-parallel clients must share cache entries."""
        assert self._key({
            "kind": "batch", "socs": [{"name": "dsc"}],
        }) == self._key({
            "kind": "batch", "socs": [{"name": "dsc"}],
            "backend": "process", "workers": 8,
        })

    def test_strategy_changes_the_key(self):
        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) != self._key({
            "kind": "integrate", "soc": {"name": "d695"}, "strategy": "serial",
        })

    def test_chip_identity_is_content_not_spelling(self):
        """The same chip by name and as inline .soc text addresses the
        same cache entry (the key holds the model digest, not the ref)."""
        from repro.soc.itc02 import d695_soc_text

        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) == self._key({
            "kind": "integrate",
            "soc": {"soc_text": d695_soc_text(), "test_pins": 64},
        })

    def test_different_pins_change_the_key(self):
        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) != self._key({
            "kind": "integrate", "soc": {"name": "d695", "test_pins": 32},
        })

    def test_schema_version_salts_the_key(self):
        normalized, _ = normalize_payload(
            {"kind": "integrate", "soc": {"name": "d695"}}
        )
        _, work = content_address(normalized)
        digests = [item.digest() for item in work]
        assert cache_key(normalized, digests, "repro/integration-result/v3") != \
            cache_key(normalized, digests, "repro/integration-result/v4")

    def test_unknown_profile_is_a_job_error(self):
        with pytest.raises(JobError, match="profile"):
            self._key({
                "kind": "integrate",
                "soc": {"spec": {"profile": "galactic", "seed": 1}},
            })

    def test_unparsable_soc_text_is_a_job_error(self):
        with pytest.raises(JobError, match="soc_text"):
            self._key({"kind": "integrate", "soc": {"soc_text": "garbage"}})
