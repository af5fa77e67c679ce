"""Integration-as-a-service: an HTTP job queue over the STEAC platform.

The platform's four entry points — ``integrate``, ``batch``, ``fuzz``,
``repair`` — become *submitted jobs*: ``POST /jobs`` returns a job id,
``GET /jobs/<id>`` reports progress, and finished jobs carry the exact
wire documents (``repro/integration-result/v4`` and friends) the CLI
emits, both rendered by :func:`repro.util.document_text`, so shell and
HTTP consumers are byte-comparable: a served result is the matching
``--json`` stdout without its final newline.

Results are content-addressed: the cache key is sha256 over the
normalized job config plus the :meth:`repro.soc.Soc.digest` of every
chip involved, so resubmitting identical work — inline ``.soc`` text,
generator coordinates, or a named benchmark — answers instantly from
the :class:`ResultCache` (in-memory LRU, optional on-disk store) with
``cached: true`` and a bit-identical document.  A repeated request does
not rebuild its chips to find that key: the :class:`JobManager`
remembers the key of every request it has addressed (keyed by the
request's digest and the generator profiles its specs resolve to), so
a hit costs a digest and a cache read.

Everything is stdlib (``asyncio``, ``http.client``, ``json``): the
service adds no dependencies over the library it wraps.  The server
answers persistent HTTP/1.1 connections from one event loop, and
:class:`ServeClient` keeps one connection per thread, so a cache hit
costs neither a TCP handshake nor a thread.  Start one with ``python -m
repro serve`` or in-process via :func:`create_server`.

Fuzz *campaigns* (:mod:`repro.gen.campaign`) are deliberately **not** a
job kind.  Every served job is a cacheable request/response pair — a
pure function of its normalized payload, safe to content-address and
replay from the :class:`ResultCache`.  A campaign is the opposite shape:
a long-lived, stateful directory on disk (checkpoint, append-only
scenario log, finding repros) whose whole point is surviving interrupts
and resuming *in place*.  Caching one would be wrong and proxying one
would just forward filesystem mutations.  Campaigns stay CLI-only
(``python -m repro campaign run/resume/status``); a served client that
wants soak coverage submits ``fuzz`` jobs in seed-range slices instead.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import JOB_SCHEMA, Job, JobManager
from repro.serve.keys import (
    JOB_KINDS,
    JobError,
    cache_key,
    normalize_payload,
)
from repro.serve.runners import content_address, execute
from repro.serve.server import DEFAULT_MAX_JOBS, ServeServer, create_server

__all__ = [
    "DEFAULT_MAX_JOBS",
    "JOB_KINDS",
    "JOB_SCHEMA",
    "Job",
    "JobError",
    "JobManager",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "cache_key",
    "content_address",
    "create_server",
    "execute",
    "normalize_payload",
]
