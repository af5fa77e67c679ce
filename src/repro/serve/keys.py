"""Job payload normalization and content addressing.

Two requests are *the same work* iff they normalize to the same
document; the cache key is sha256 over that normalized form with every
chip reference replaced by its :meth:`repro.soc.Soc.digest` content
address.  Normalization fills defaults (an explicit
``"strategy": "session"`` and an omitted one address identically),
rejects unknown fields loudly, and strips the execution parameters
(``backend`` / ``workers``) that — per the batch differential guarantee
— cannot change a result, so sweeps from differently-configured
clients still share cache entries.

A payload names its chip(s) one of three ways, mirroring the batch
front end's work items:

* ``{"soc_text": "..."}`` — inline ITC'02 ``.soc`` exchange text;
* ``{"spec": {"profile": P, "seed": S, "index": I}}`` — the
  :class:`repro.gen.ScenarioSpec` coordinates of a generated chip;
* ``{"name": "dsc" | "d695"}`` — a built-in benchmark chip
  (:data:`repro.gen.corpus.NAMED_CHIPS`);

each optionally carrying ``test_pins`` / ``power_budget`` overrides.
Normalization checks only the shape and types of a reference (a
non-finite float is a 400).  Whether it names a valid chip, budgets
included, is decided by :func:`repro.gen.corpus.work_item` at content
addressing, where a bad one gives a born-failed job.
"""

from __future__ import annotations

import math

from repro.core.batch import BACKENDS
from repro.gen.corpus import NAMED_CHIPS
from repro.soc.digest import digest_document

#: Job kinds the service executes (the four platform entry points).
JOB_KINDS = ("integrate", "batch", "fuzz", "repair")


class JobError(ValueError):
    """A structurally invalid job payload (HTTP 400 at the API edge)."""


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise JobError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _take(payload: dict, key: str, default, kinds: tuple, what: str):
    """Pop ``key`` with a type check (bool is not an int here, and a float
    must be finite: ``json.loads`` accepts ``NaN`` and ``Infinity``)."""
    value = payload.pop(key, default)
    if value is default:
        return value
    if isinstance(value, bool) and bool not in kinds:
        raise JobError(f"{what}.{key} must be {kinds[0].__name__}, got a bool")
    if not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise JobError(f"{what}.{key} must be {names}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise JobError(f"{what}.{key} must be a finite number, got {value!r}")
    return value


def _reject_leftovers(payload: dict, what: str) -> None:
    if payload:
        raise JobError(f"unknown {what} field(s): {', '.join(sorted(payload))}")


def normalize_soc_ref(ref, what: str = "soc") -> dict:
    """Canonicalize one chip reference (see the module docstring)."""
    ref = dict(_require_mapping(ref, what))
    forms = [key for key in ("soc_text", "spec", "name") if key in ref]
    if len(forms) != 1:
        raise JobError(
            f"{what} must carry exactly one of soc_text / spec / name, got "
            f"{forms or 'none'}"
        )
    test_pins = _take(ref, "test_pins", None, (int,), what)
    power_budget = _take(ref, "power_budget", None, (int, float), what)
    if power_budget is not None:
        power_budget = float(power_budget)
    form = forms[0]
    if form == "soc_text":
        text = _take(ref, "soc_text", None, (str,), what)
        normalized: dict = {"soc_text": text}
    elif form == "spec":
        spec = dict(_require_mapping(ref.pop("spec"), f"{what}.spec"))
        profile = _take(spec, "profile", None, (str,), f"{what}.spec")
        seed = _take(spec, "seed", None, (int,), f"{what}.spec")
        index = _take(spec, "index", 0, (int,), f"{what}.spec")
        if profile is None or seed is None:
            raise JobError(f"{what}.spec needs profile and seed")
        _reject_leftovers(spec, f"{what}.spec")
        normalized = {"spec": {"profile": profile, "seed": seed, "index": index}}
    else:
        name = _take(ref, "name", None, (str,), what)
        if name not in NAMED_CHIPS:
            raise JobError(
                f"{what}.name must be one of {', '.join(NAMED_CHIPS)}, got {name!r}"
            )
        normalized = {"name": name}
    _reject_leftovers(ref, what)
    normalized["test_pins"] = test_pins
    normalized["power_budget"] = power_budget
    return normalized


def normalize_payload(payload) -> tuple[dict, dict]:
    """Canonicalize a ``POST /jobs`` body.

    Returns ``(normalized, execution)``: the semantic job document
    (deterministic for equal work — the input to the cache key) and the
    execution parameters (``backend`` / ``workers``) kept out of it.
    Raises :class:`JobError` on structural problems, an unknown
    ``backend`` included.
    """
    payload = dict(_require_mapping(payload, "job payload"))
    kind = payload.pop("kind", None)
    if kind not in JOB_KINDS:
        raise JobError(
            f"job kind must be one of {', '.join(JOB_KINDS)}, got {kind!r}"
        )
    execution = {
        "backend": _take(payload, "backend", None, (str,), kind),
        "workers": _take(payload, "workers", None, (int,), kind),
    }
    if execution["backend"] not in (None, *BACKENDS):
        raise JobError(
            f"{kind}.backend must be one of {', '.join(BACKENDS)}, "
            f"got {execution['backend']!r}"
        )
    normalized: dict = {"kind": kind}
    if kind == "integrate":
        normalized["soc"] = normalize_soc_ref(payload.pop("soc", None))
        normalized["strategy"] = _take(payload, "strategy", "session", (str,), kind)
        normalized["verify"] = _take(payload, "verify", False, (bool,), kind)
        normalized["compare"] = _take(payload, "compare", False, (bool,), kind)
    elif kind == "batch":
        socs = payload.pop("socs", None)
        if not isinstance(socs, list) or not socs:
            raise JobError("batch.socs must be a non-empty list of soc references")
        normalized["socs"] = [
            normalize_soc_ref(ref, f"socs[{i}]") for i, ref in enumerate(socs)
        ]
        normalized["strategy"] = _take(payload, "strategy", "session", (str,), kind)
        normalized["verify"] = _take(payload, "verify", False, (bool,), kind)
    elif kind == "fuzz":
        normalized["profile"] = _take(payload, "profile", "tiny", (str,), kind)
        normalized["seeds"] = _take(payload, "seeds", 20, (int,), kind)
        normalized["seed_base"] = _take(payload, "seed_base", 0, (int,), kind)
        if normalized["seeds"] < 1:
            raise JobError(f"fuzz.seeds must be at least 1, got {normalized['seeds']}")
        strategies = payload.pop("strategies", None)
        if strategies is not None:
            if not isinstance(strategies, list) or not all(
                isinstance(s, str) for s in strategies
            ):
                raise JobError("fuzz.strategies must be a list of strategy names")
        else:
            # resolve "every registered strategy" at submit time so the
            # cache key names the actual work
            from repro.sched import available_strategies

            strategies = list(available_strategies())
        normalized["strategies"] = strategies
        normalized["ilp_max_tasks"] = _take(payload, "ilp_max_tasks", 6, (int,), kind)
    else:  # repair
        normalized["soc"] = normalize_soc_ref(payload.pop("soc", None))
        normalized["seed"] = _take(payload, "seed", 7, (int,), kind)
        normalized["trials"] = _take(payload, "trials", 500, (int,), kind)
        if normalized["trials"] < 1:
            raise JobError(f"repair.trials must be at least 1, got {normalized['trials']}")
        normalized["allocator"] = _take(payload, "allocator", "greedy", (str,), kind)
        normalized["defects"] = _take(payload, "defects", 3, (int,), kind)
        normalized["defect_density"] = float(
            _take(payload, "defect_density", 0.3, (int, float), kind)
        )
        normalized["spare_rows"] = _take(payload, "spare_rows", None, (int,), kind)
        normalized["spare_cols"] = _take(payload, "spare_cols", None, (int,), kind)
        normalized["model_rows"] = _take(payload, "model_rows", 32, (int,), kind)
    _reject_leftovers(payload, f"{kind} job")
    return normalized, execution


def soc_refs(normalized: dict) -> list[dict]:
    """The chip references of a normalized job, in order (empty for
    kinds that carry none, like fuzz)."""
    if "soc" in normalized:
        return [normalized["soc"]]
    return list(normalized.get("socs", ()))


def cache_key(normalized: dict, soc_digests: list[str], result_schema: str) -> str:
    """The job's content address: sha256 over the normalized config with
    chip references replaced by their content digests, salted with the
    result schema version (a schema bump must never serve stale
    documents)."""
    config = {
        key: value
        for key, value in normalized.items()
        if key not in ("soc", "socs")
    }
    return digest_document(
        {"schema": result_schema, "config": config, "socs": soc_digests}
    )
