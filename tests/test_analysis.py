"""Tests for ``repro.analysis`` — the detlint rule engine.

Every rule family gets at least one fixture it must fire on and one it
must stay silent on, plus the suppression mechanics (used, unused,
reasonless) and the CLI front end.
"""

import ast
import json
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis import (
    DETERMINISM,
    NO_WALLCLOCK,
    PICKLE,
    Finding,
    contracts_for,
    lint_paths,
    lint_source,
)
from repro.analysis.rules.schema import (
    FINGERPRINT_FILE,
    SchemaFingerprintRule,
    _normalized_dump,
    compute_fingerprints,
    load_fingerprints,
)

RESULT_PATH = "repro/sched/search.py"     # determinism + no-wallclock
PICKLE_PATH = "repro/sched/registry.py"   # + pickle
FREE_PATH = "repro/util/tables.py"        # no path-scoped contracts


def fired(source, relpath=RESULT_PATH, rules=None):
    return {f.rule for f in lint_source(textwrap.dedent(source), relpath, rules=rules)}


class TestContractMap:
    def test_result_paths_union(self):
        assert contracts_for(RESULT_PATH) == {DETERMINISM, NO_WALLCLOCK}

    def test_file_entry_extends_package(self):
        assert contracts_for(PICKLE_PATH) == {DETERMINISM, NO_WALLCLOCK, PICKLE}

    def test_serve_is_wallclock_only(self):
        assert contracts_for("repro/serve/jobs.py") == {NO_WALLCLOCK}

    def test_tooling_is_free(self):
        assert contracts_for(FREE_PATH) == frozenset()
        assert contracts_for("repro/analysis/engine.py") == frozenset()

    def test_src_prefix_normalizes_away(self):
        assert contracts_for("src/repro/gen/corpus.py") == contracts_for(
            "repro/gen/corpus.py"
        )


class TestDetRules:
    def test_det001_module_level_random_fires(self):
        assert "DET001" in fired("import random\nx = random.random()\n")

    def test_det001_bare_random_fires(self):
        assert "DET001" in fired(
            "import random\nrng = random.Random()\n"
        )

    def test_det001_seeded_rng_silent(self):
        assert fired("import random\nrng = random.Random(42)\nrng.random()\n") == set()

    def test_det001_free_path_silent(self):
        assert fired("import random\nx = random.random()\n", FREE_PATH) == set()

    def test_det002_time_time_fires(self):
        assert "DET002" in fired("import time\nt = time.time()\n")

    def test_det002_datetime_now_fires(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert "DET002" in fired(src, "repro/serve/app.py")

    def test_det002_from_import_fires(self):
        assert "DET002" in fired("from time import time\n")

    def test_det002_monotonic_silent(self):
        src = "import time\nt0 = time.monotonic()\nd = time.perf_counter()\n"
        assert fired(src) == set()

    def test_det003_for_over_set_literal_fires(self):
        assert "DET003" in fired("for x in {1, 2, 3}:\n    print(x)\n")

    def test_det003_list_of_set_fires(self):
        assert "DET003" in fired("names = list({'a', 'b'})\n")

    def test_det003_sorted_set_silent(self):
        src = "for x in sorted({1, 2, 3}):\n    print(x)\nys = sorted({4, 5})\n"
        assert fired(src) == set()

    def test_det004_hash_fires(self):
        assert "DET004" in fired("seed = hash(('a', 1))\n")

    def test_det004_dunder_hash_fires(self):
        assert "DET004" in fired("seed = ('a', 1).__hash__()\n")

    def test_det004_hashlib_silent(self):
        src = "import hashlib\nseed = hashlib.sha256(b'a').hexdigest()\n"
        assert fired(src) == set()


class TestPklRules:
    def test_pkl001_lambda_argument_fires_anywhere(self):
        src = "register_scheduler('quick', lambda soc: None)\n"
        assert "PKL001" in fired(src, FREE_PATH)

    def test_pkl001_lambda_on_a_registry_object_fires(self):
        src = "STRATEGIES.register('quick', lambda soc, tasks: None)\n"
        assert "PKL001" in fired(src, FREE_PATH)

    def test_pkl001_decorated_nested_function_fires(self):
        src = """\
        def build():
            @register_scheduler("inner")
            def run(soc):
                return soc
        """
        assert "PKL001" in fired(src, FREE_PATH)

    def test_pkl001_module_level_registration_silent(self):
        src = """\
        @register_scheduler("serial")
        def run(soc):
            return soc

        register_scheduler("again", run)
        """
        assert fired(src, FREE_PATH) == set()

    def test_pkl002_class_body_lambda_fires_in_pickle_path(self):
        src = """\
        class Spec:
            key = lambda self: 1
        """
        assert "PKL002" in fired(src, PICKLE_PATH)

    def test_pkl002_method_body_lambda_silent(self):
        src = """\
        class Spec:
            def sort(self, items):
                return sorted(items, key=lambda kv: kv[0])
        """
        assert "PKL002" not in fired(src, PICKLE_PATH)

    def test_pkl002_silent_outside_pickle_paths(self):
        src = """\
        class Spec:
            key = lambda self: 1
        """
        assert fired(src, FREE_PATH) == set()

    def test_pkl003_local_class_fires_in_pickle_path(self):
        src = """\
        def build():
            class Local:
                pass
            return Local()
        """
        assert "PKL003" in fired(src, PICKLE_PATH)

    def test_pkl003_module_class_silent(self):
        src = """\
        class TopLevel:
            pass
        """
        assert fired(src, PICKLE_PATH) == set()


class TestConcRule:
    def test_unlocked_read_of_protected_attr_fires(self):
        src = """\
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = {}

            def add(self, key, job):
                with self._lock:
                    self._jobs[key] = job

            def peek(self, key):
                return self._jobs.get(key)
        """
        assert "CONC001" in fired(src, FREE_PATH)

    def test_unlocked_write_fires(self):
        src = """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def bump(self):
                with self._lock:
                    self.total += 1

            def reset(self):
                self.total = 0
        """
        assert "CONC001" in fired(src, FREE_PATH)

    def test_disciplined_class_silent(self):
        src = """\
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = {}

            def add(self, key, job):
                with self._lock:
                    self._jobs[key] = job

            def peek(self, key):
                with self._lock:
                    return self._jobs.get(key)
        """
        assert fired(src, FREE_PATH) == set()

    def test_locked_suffix_helper_exempt(self):
        src = """\
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = {}

            def add(self, key, job):
                with self._lock:
                    self._jobs[key] = job
                    self._evict_locked()

            def _evict_locked(self):
                while len(self._jobs) > 4:
                    self._jobs.popitem()
        """
        assert fired(src, FREE_PATH) == set()

    def test_read_only_attrs_not_claimed(self):
        src = """\
        import threading

        class Config:
            def __init__(self):
                self._lock = threading.Lock()
                self.workers = 4

            def describe(self):
                with self._lock:
                    pass
                return self.workers
        """
        assert fired(src, FREE_PATH) == set()


class TestSuppressions:
    def test_reasoned_suppression_silences(self):
        src = (
            "import time\n"
            "t = time.time()  # detlint: ignore[DET002] -- display only\n"
        )
        assert fired(src) == set()

    def test_reasonless_suppression_errors(self):
        src = "import time\nt = time.time()  # detlint: ignore[DET002]\n"
        assert fired(src) == {"SUP002"}

    def test_unused_suppression_errors(self):
        src = "x = 1  # detlint: ignore[DET002] -- stale\n"
        assert fired(src) == {"SUP001"}

    def test_wrong_rule_does_not_silence(self):
        src = (
            "import time\n"
            "t = time.time()  # detlint: ignore[DET001] -- wrong rule\n"
        )
        assert fired(src) == {"DET002", "SUP001"}

    def test_multi_rule_suppression(self):
        src = (
            "import time\n"
            "for x in {time.time()}:  "
            "# detlint: ignore[DET002, DET003] -- fixture\n"
            "    print(x)\n"
        )
        assert fired(src) == set()

    def test_docstring_mention_is_not_a_suppression(self):
        src = '"""Docs show `# detlint: ignore[DET002]` inline."""\nx = 1\n'
        assert fired(src) == set()


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


SCHEMA_MOD = """\
SCHEMA = "repro/demo-doc/v1"


def to_doc(value):
    return {"schema": SCHEMA, "value": value}
"""


class TestSchemaRule:
    def _lint(self, tmp_path, **kw):
        return lint_paths([str(tmp_path / "pkg")], root=str(tmp_path), **kw)

    def test_missing_baseline_fires_sch002(self, tmp_path):
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD)
        report = self._lint(tmp_path)
        assert {f.rule for f in report.findings} == {"SCH002"}

    def test_update_then_clean(self, tmp_path):
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD)
        assert self._lint(tmp_path, update_fingerprints=True).ok
        committed = load_fingerprints(str(tmp_path))
        assert set(committed) == {"repro/demo-doc/v1"}
        assert self._lint(tmp_path).ok

    def test_shape_change_without_bump_fires_sch001(self, tmp_path):
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD)
        self._lint(tmp_path, update_fingerprints=True)
        _write(
            tmp_path, "pkg/demo.py",
            SCHEMA_MOD.replace(
                '"value": value', '"value": value, "extra": 0'
            ),
        )
        report = self._lint(tmp_path)
        assert {f.rule for f in report.findings} == {"SCH001"}

    def test_docstring_edit_is_shape_preserving(self, tmp_path):
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD)
        self._lint(tmp_path, update_fingerprints=True)
        _write(
            tmp_path, "pkg/demo.py",
            SCHEMA_MOD.replace(
                "def to_doc(value):",
                'def to_doc(value):\n    """New prose."""',
            ),
        )
        assert self._lint(tmp_path).ok

    def test_normalized_text_is_the_same_on_every_python(self):
        """The fingerprinted text leaves out None and empty fields, so it
        does not follow ast.dump's per-version changes (3.12 adds
        ``type_params=[]``, 3.13 drops empty fields)."""
        tree = ast.parse(textwrap.dedent('''
            def shape(value: int) -> dict:
                """Docstrings are stripped."""
                return {"schema": "repro/demo-doc/v1", "value": value}
        '''))
        assert _normalized_dump(tree.body[0]) == (
            "FunctionDef(name='shape', args=arguments(args=[arg(arg='value', "
            "annotation=Name(id='int', ctx=Load()))]), body=[Return(value=Dict("
            "keys=[Constant(value='schema'), Constant(value='value')], "
            "values=[Constant(value='repro/demo-doc/v1'), Name(id='value', "
            "ctx=Load())]))], returns=Name(id='dict', ctx=Load()))"
        )

    def test_line_shift_is_shape_preserving(self, tmp_path):
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD)
        self._lint(tmp_path, update_fingerprints=True)
        # a blank line above the module-level constant moves it down
        _write(tmp_path, "pkg/demo.py", "\n" + SCHEMA_MOD)
        assert self._lint(tmp_path).ok

    def test_version_bump_asks_for_new_fingerprint(self, tmp_path):
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD)
        self._lint(tmp_path, update_fingerprints=True)
        _write(tmp_path, "pkg/demo.py", SCHEMA_MOD.replace("/v1", "/v2"))
        report = self._lint(tmp_path)
        rules = {f.rule for f in report.findings}
        assert rules == {"SCH002", "SCH003"}  # new id unregistered, old retired

    def test_docstring_schema_mention_ignored(self, tmp_path):
        _write(
            tmp_path, "pkg/docs.py",
            '"""Emits repro/phantom-doc/v9 documents (prose only)."""\n',
        )
        fingerprints, _ = compute_fingerprints([])
        report = self._lint(tmp_path)
        assert report.ok
        assert "repro/phantom-doc/v9" not in (fingerprints or {})


class TestRepoIsClean:
    def test_whole_tree_lints_clean(self):
        report = lint_paths(["src"], root=".")
        assert report.ok, "\n" + "\n".join(f.format() for f in report.errors)

    def test_committed_fingerprints_match_tree(self):
        committed = load_fingerprints(".")
        assert committed, f"missing {FINGERPRINT_FILE}"


class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "pkg/ok.py", "import time\nt = time.monotonic()\n")
        assert main(
            ["lint", str(tmp_path / "pkg"), "--root", str(tmp_path)]
        ) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_bad_tree_exits_one(self, tmp_path, capsys):
        _write(
            tmp_path, "pkg/repro/sched/bad.py",
            "import random\nx = random.random()\n",
        )
        assert main(
            ["lint", str(tmp_path / "pkg"), "--root", str(tmp_path)]
        ) == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_json_document(self, tmp_path, capsys):
        _write(
            tmp_path, "pkg/repro/sched/bad.py",
            "import time\nt = time.time()\n",
        )
        main(["lint", str(tmp_path / "pkg"), "--root", str(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/lint-report/v1"
        assert doc["ok"] is False
        assert doc["findings"][0]["rule"] == "DET002"

    def test_lint_rules_listing(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "PKL001", "CONC001", "SCH001"):
            assert rule_id in out

    def test_findings_order_and_format(self):
        finding = Finding(
            path="repro/x.py", line=3, rule="DET001",
            severity="error", message="boom", hint="seed it",
        )
        assert finding.format() == (
            "repro/x.py:3: error[DET001] boom  (fix: seed it)"
        )
