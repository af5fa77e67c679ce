"""Reference: the job document as the server rendered it before the splice.

:meth:`repro.serve.jobs.Job.to_json` splices the stored result text into
the job record, indented one level.  The rendering it replaced parsed
that text and encoded the whole document again with ``indent=2``; it is
kept verbatim here as the byte stream ``to_json`` must equal, which
``tests/test_serve_render.py`` checks.  Do not optimize it; its value is
being the unoptimized baseline.
"""

from __future__ import annotations

import json


def job_document_reference(job) -> str:
    """``POST /jobs`` and ``GET /jobs/<id>`` as the parsed-result
    rendering wrote them."""
    if job.result_text is None:
        return json.dumps(job.to_dict(), indent=2)
    return json.dumps({**job.to_dict(), "result": json.loads(job.result_text)}, indent=2)
