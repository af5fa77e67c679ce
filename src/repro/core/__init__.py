"""STEAC: the SOC test integration platform (the paper's contribution).

Three API layers, thin over thick:

* one-call — ``Steac().integrate(soc)`` runs the whole Fig.-1 flow;
* staged — :mod:`repro.core.pipeline` exposes each box (``ParseStil``,
  ``CompileBist``, ``Schedule``, ``InsertDft``, ``TranslatePatterns``)
  as a replaceable :class:`Stage` over a :class:`FlowContext`;
* batch — ``Steac().integrate_many(socs, workers=N, backend=...)`` fans
  the flow out over a pluggable executor backend (serial / process)
  with per-SOC error isolation and one platform instance per worker.

Results serialize via ``IntegrationResult.to_dict()`` / ``to_json()``.
"""

from repro.core.batch import BatchItem, BatchResult, integrate_many
from repro.core.pipeline import (
    CompileBist,
    FlowContext,
    InsertDft,
    ParseStil,
    Pipeline,
    Schedule,
    Stage,
    TranslatePatterns,
    default_stages,
)
from repro.core.results import IntegrationResult
from repro.core.steac import Steac, SteacConfig

__all__ = [
    "BatchItem",
    "BatchResult",
    "CompileBist",
    "FlowContext",
    "InsertDft",
    "IntegrationResult",
    "ParseStil",
    "Pipeline",
    "Schedule",
    "Stage",
    "Steac",
    "SteacConfig",
    "TranslatePatterns",
    "default_stages",
    "integrate_many",
]
