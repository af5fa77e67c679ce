"""SCHEMA — wire-schema version discipline via committed fingerprints.

Every document the platform emits carries a ``"schema":
"repro/<name>/v<N>"`` tag, and downstream consumers (the serve cache,
golden fixtures, external scrapers) treat equal tags as equal shapes.
The discipline is: *change the shape → bump the version*.  Nothing
enforced that until now.

The mechanism: for every schema id in the tree, detlint fingerprints
the *shape-producing code* — each function or method whose body
references the id (directly or through the module constant bound to
it), normalized (docstrings stripped, no line numbers) and hashed.
The expected fingerprints live in a committed file,
:data:`FINGERPRINT_FILE`, regenerated with ``repro lint
--update-fingerprints``:

* ``SCH001`` (error) — a schema id's fingerprint differs from the
  committed one: the shape code changed under a frozen version tag.
  Either bump the version (new id) or — if the change is genuinely
  shape-preserving — regenerate the fingerprint file; the diff makes
  the judgement reviewable.
* ``SCH002`` (error) — a schema id in the tree has no committed
  fingerprint (new schema, or a bumped version): regenerate to record
  it.
* ``SCH003`` (warning) — a committed id no longer appears in the tree
  (retired schema): regenerate to prune it.

Docstring mentions of schema ids are ignored — only ids reachable by
running code count.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register_rule
from repro.util import document_text, publish

#: The committed schema-id → fingerprint map, relative to the repo root.
FINGERPRINT_FILE = "src/repro/analysis/schema_fingerprints.json"

SCHEMA_ID_RE = re.compile(r"^repro/[A-Za-z0-9_.-]+/v\d+$")


class _StripDocstrings(ast.NodeTransformer):
    """Remove docstring statements so prose edits don't shift shapes."""

    def _strip(self, node: ast.AST) -> ast.AST:
        self.generic_visit(node)
        body = getattr(node, "body", None)
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body.pop(0)
            if not body:
                body.append(ast.Pass())
        return node

    visit_FunctionDef = _strip
    visit_AsyncFunctionDef = _strip
    visit_ClassDef = _strip
    visit_Module = _strip


def _render(value: object) -> str:
    """``Node(field=value, ...)`` over :func:`ast.iter_fields`, leaving
    out ``None`` and empty-list fields.  Unlike :func:`ast.dump`, the text
    is the same on every supported Python: 3.12 adds ``type_params=[]``
    to each function and class, and 3.13's dump drops empty fields."""
    if isinstance(value, ast.AST):
        fields = ", ".join(
            f"{name}={_render(field)}"
            for name, field in ast.iter_fields(value)
            if field is not None and field != []
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, list):
        return "[" + ", ".join(_render(item) for item in value) + "]"
    return repr(value)


def _normalized_dump(node: ast.AST) -> str:
    import copy

    return _render(_StripDocstrings().visit(copy.deepcopy(node)))


def _module_constants(ctx: FileContext) -> dict[str, str]:
    """Module-level ``NAME = "repro/x/vN"`` bindings."""
    out: dict[str, str] = {}
    for stmt in ctx.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
            and SCHEMA_ID_RE.match(stmt.value.value)
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt.value.value
    return out


def _schema_refs(ctx: FileContext) -> dict[str, list[tuple[str, ast.AST, int]]]:
    """schema id → [(qualname, shape node, line)] for this file.

    The *shape node* is the enclosing function of each live reference —
    or the module-level assignment itself when the id only exists as a
    constant binding.
    """
    constants = _module_constants(ctx)
    refs: dict[str, list[tuple[str, ast.AST, int]]] = {}

    def add(schema_id: str, node: ast.AST, line: int) -> None:
        fn = ctx.enclosing_function(node)
        if fn is None:
            # module-level reference: fingerprint the statement itself
            stmt: Optional[ast.AST] = node
            for anc in ctx.ancestors(node):
                if isinstance(anc, ast.Module):
                    break
                stmt = anc
            shape: ast.AST = stmt if stmt is not None else node
            # no line number: the hashed dump already names the
            # statement, and a blank line above it is not a shape change
            name = "<module>"
        else:
            shape = fn
            name = ctx.qualname(fn)
        entries = refs.setdefault(schema_id, [])
        if not any(existing is shape for _, existing, _ in entries):
            entries.append((name, shape, line))

    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and SCHEMA_ID_RE.match(node.value)
            and not ctx.is_docstring(node)
        ):
            add(node.value, node, node.lineno)
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in constants
        ):
            add(constants[node.id], node, node.lineno)
    return refs


def compute_fingerprints(
    ctxs: Iterable[FileContext],
) -> tuple[dict[str, dict[str, object]], dict[str, tuple[str, int]]]:
    """The tree's schema fingerprints.

    Returns ``(fingerprints, locations)``: per schema id a ``{"paths",
    "fingerprint"}`` record, and the first ``(relpath, line)`` where the
    id appears (for finding placement).
    """
    shapes: dict[str, list[tuple[str, str, str]]] = {}
    locations: dict[str, tuple[str, int]] = {}
    for ctx in ctxs:
        for schema_id, entries in _schema_refs(ctx).items():
            rows = shapes.setdefault(schema_id, [])
            for name, node, line in entries:
                rows.append((ctx.relpath, name, _normalized_dump(node)))
                at = locations.get(schema_id)
                if at is None or (ctx.relpath, line) < at:
                    locations[schema_id] = (ctx.relpath, line)
    out: dict[str, dict[str, object]] = {}
    for schema_id, rows in shapes.items():
        rows.sort()
        digest = hashlib.sha256(
            "\n".join(f"{path}:{name}:{dump}" for path, name, dump in rows)
            .encode()
        ).hexdigest()
        out[schema_id] = {
            "paths": sorted({path for path, _, _ in rows}),
            "fingerprint": digest,
        }
    return out, locations


def load_fingerprints(root: str) -> Optional[dict[str, dict[str, object]]]:
    path = Path(root) / FINGERPRINT_FILE
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    entries = data.get("schemas", {})
    return entries if isinstance(entries, dict) else {}


def write_fingerprints(
    root: str, fingerprints: dict[str, dict[str, object]]
) -> None:
    path = Path(root) / FINGERPRINT_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "comment": (
            "detlint SCHEMA fingerprints — regenerate with "
            "`repro lint --update-fingerprints` after a deliberate, "
            "shape-preserving change or a version bump"
        ),
        "schemas": fingerprints,
    }
    publish(path, document_text(doc) + "\n")


@register_rule
class SchemaFingerprintRule(ProjectRule):
    id = "SCH001"
    severity = "error"
    description = (
        "a repro/<name>/vN schema's shape code changed without a "
        "version bump (committed fingerprint mismatch)"
    )

    def check_project(
        self, ctxs: list[FileContext], root: str
    ) -> Iterable[Finding]:
        current, locations = compute_fingerprints(ctxs)
        if self.update_fingerprints:
            write_fingerprints(root, current)
            return
        committed = load_fingerprints(root)
        if committed is None:
            # no baseline at all: demand one, once, at the tree root
            if current:
                yield Finding(
                    path=FINGERPRINT_FILE, line=1, rule="SCH002",
                    severity="error",
                    message=(
                        f"no committed schema fingerprints but "
                        f"{len(current)} schema id(s) in the tree"
                    ),
                    hint="run `repro lint --update-fingerprints` and commit",
                )
            return
        for schema_id in sorted(current):
            path, line = locations[schema_id]
            entry = committed.get(schema_id)
            if entry is None:
                yield Finding(
                    path=path, line=line, rule="SCH002", severity="error",
                    message=(
                        f"schema {schema_id!r} has no committed fingerprint "
                        "(new schema or version bump)"
                    ),
                    hint="run `repro lint --update-fingerprints` and commit",
                )
            elif entry.get("fingerprint") != current[schema_id]["fingerprint"]:
                yield Finding(
                    path=path, line=line, rule="SCH001", severity="error",
                    message=(
                        f"shape code behind schema {schema_id!r} changed but "
                        "the version tag did not"
                    ),
                    hint=(
                        "bump the /vN suffix (then --update-fingerprints), "
                        "or — only if the document shape is truly unchanged — "
                        "regenerate the fingerprint file"
                    ),
                )
        for schema_id in sorted(set(committed) - set(current)):
            yield Finding(
                path=FINGERPRINT_FILE, line=1, rule="SCH003",
                severity="warning",
                message=(
                    f"committed fingerprint for {schema_id!r} matches no "
                    "schema id in the tree (retired?)"
                ),
                hint="run `repro lint --update-fingerprints` to prune it",
            )
