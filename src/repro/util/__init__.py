"""Small shared helpers: ASCII table rendering, validation, formatting,
and the one output path (:func:`document_text`, :func:`publish`)."""

from repro.util.output import document_text, publish
from repro.util.tables import Table, format_gates, format_cycles
from repro.util.validate import check_positive, check_non_negative, check_name

__all__ = [
    "Table",
    "format_gates",
    "format_cycles",
    "check_positive",
    "check_non_negative",
    "check_name",
    "document_text",
    "publish",
]
