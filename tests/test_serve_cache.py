"""Result cache (repro.serve.cache) and content addressing
(repro.serve.keys): LRU behaviour, disk persistence, and the
normalization rules the cache's correctness rests on."""

import errno
import hashlib
import json
import os
import threading
from pathlib import Path

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

    def test_entries_counted_in_stats(self):
        cache = ResultCache(capacity=4)
        assert cache.stats()["entries"] == 0
        cache.put(KEY_A, "a")
        assert cache.stats()["entries"] == 1 and cache.get(KEY_A) == "a"

    def test_zero_capacity_disables_memory_tier(self):
        cache = ResultCache(capacity=0)
        cache.put(KEY_A, "a")
        assert cache.get(KEY_A) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_memory_tier_holds_at_most_capacity(self):
        cache = ResultCache(capacity=2)
        for key in (KEY_A, KEY_B, KEY_C):
            cache.put(key, key[0])
        assert cache.stats()["entries"] == 2 and cache.evictions == 1
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
        ResultCache(capacity=4, cache_dir=tmp_path).put(KEY_A, "a")
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
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
        assert cache.stats()["entries"] == 0
        # the recomputed result writes the entry afresh
        cache.put(KEY_A, self.TEXT)
        again = ResultCache(capacity=4, cache_dir=tmp_path)
        assert again.get(KEY_A) == self.TEXT and again.disk_hits == 1

    def test_intact_entry_round_trips_any_text(self, tmp_path):
        text = "line\r\nnext\rlast \u00e9\U0001f600\n"
        ResultCache(cache_dir=tmp_path).put(KEY_A, text)
        assert ResultCache(cache_dir=tmp_path).get(KEY_A) == text


_REAL_FDOPEN = os.fdopen


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDiskHandle:
    """``os.fdopen`` over a disk with no space left: the write raises."""

    def __init__(self, fd, mode):
        self.handle = _REAL_FDOPEN(fd, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        _no_space()


class TestResultCacheDiskFaults:
    """A disk fault is a miss on read and a memory-only entry on write,
    counted in ``disk_errors``; it never escapes the cache."""

    def test_store_that_is_a_regular_file(self, tmp_path):
        store = tmp_path / "store"
        store.write_text("not a directory")
        cache = ResultCache(capacity=4, cache_dir=store)
        assert cache.get(KEY_A) is None  # NotADirectoryError reading
        cache.put(KEY_A, "a")  # FileExistsError creating the store
        assert cache.get(KEY_A) == "a"
        assert cache.disk_errors == 2
        assert (cache.hits, cache.misses, cache.disk_hits) == (1, 1, 0)
        assert "disk_errors" not in cache.stats()

    @pytest.mark.parametrize("step", ["mkdir", "open", "write", "fsync", "replace"])
    def test_failed_write_keeps_the_entry_in_memory(self, tmp_path, monkeypatch, step):
        store = tmp_path / "store"
        target = {
            "mkdir": (Path, "mkdir", _no_space),
            "open": (os, "open", _no_space),
            "write": (os, "fdopen", _FullDiskHandle),
            "fsync": (os, "fsync", _no_space),
            "replace": (os, "replace", _no_space),
        }[step]
        cache = ResultCache(capacity=4, cache_dir=store)
        monkeypatch.setattr(*target)
        cache.put(KEY_A, "a")
        monkeypatch.undo()
        assert cache.disk_errors == 1
        assert cache.get(KEY_A) == "a" and cache.disk_hits == 0
        # no entry and no temp file is left behind
        assert not store.exists() or list(store.iterdir()) == []
        assert ResultCache(cache_dir=store).get(KEY_A) is None

    def test_disk_write_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_size)
            real_fsync(fd)

        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        cache.put(KEY_A, "a")
        monkeypatch.undo()
        entry = tmp_path / f"{KEY_A}.json"
        assert synced == [entry.stat().st_size]
        assert ResultCache(cache_dir=tmp_path).get(KEY_A) == "a"

    def test_failed_read_is_a_miss(self, tmp_path, monkeypatch):
        ResultCache(cache_dir=tmp_path).put(KEY_A, "a")
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        monkeypatch.setattr(Path, "read_bytes", _no_space)
        assert cache.get(KEY_A) is None
        monkeypatch.undo()
        assert (cache.hits, cache.misses, cache.disk_errors) == (0, 1, 1)
        assert cache.get(KEY_A) == "a"  # the entry itself is intact

    def test_failed_move_aside_is_a_miss(self, tmp_path, monkeypatch):
        ResultCache(cache_dir=tmp_path).put(KEY_A, "a")
        entry = tmp_path / f"{KEY_A}.json"
        entry.write_bytes(entry.read_bytes()[:-1])
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        monkeypatch.setattr(os, "replace", _no_space)
        assert cache.get(KEY_A) is None
        monkeypatch.undo()
        assert (cache.hits, cache.misses, cache.disk_errors) == (0, 1, 1)

    def test_disk_write_holds_no_lock(self, tmp_path, monkeypatch):
        """A memory hit does not wait for another thread's disk write."""
        from repro.serve import cache as cache_module

        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        writing, release = threading.Event(), threading.Event()
        entry_bytes = cache_module._entry_bytes

        def slow(text):
            writing.set()
            assert release.wait(timeout=30)
            return entry_bytes(text)

        monkeypatch.setattr(cache_module, "_entry_bytes", slow)
        writer = threading.Thread(target=cache.put, args=(KEY_B, "b"))
        writer.start()
        try:
            assert writing.wait(timeout=10)
            got = []
            reader = threading.Thread(target=lambda: got.append(cache.get(KEY_A)))
            reader.start()
            reader.join(timeout=1.0)
            assert got == ["a"]
        finally:
            release.set()
            writer.join(timeout=10)
        assert ResultCache(cache_dir=tmp_path).get(KEY_B) == "b"


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
