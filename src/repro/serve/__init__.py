"""``repro.serve`` — the async simulation-as-a-service layer.

Assembles the serving primitives the rest of the package already provides
— versioned request wire forms, content-addressed cache keys, ``run_batch``
and the result cache — into a long-lived stdlib-only HTTP/JSON daemon with
request coalescing, batched dispatch, live stats endpoints and the shared
resilience policy (per-batch timeouts, bounded retry with backoff,
queue-depth load shedding — see docs/RESILIENCE.md).  See docs/SERVING.md
and :mod:`repro.serve.server` for the full picture; the CLI front ends are
``repro serve``, ``repro worker`` (the same service with sweep-worker
defaults; see docs/DISTRIBUTED.md) and ``repro submit``.
"""

from repro.api import decode_request
from repro.serve.coalesce import Coalescer
from repro.serve.http import canonical_json
from repro.serve.queue import BatchQueue, BatchTimeoutError, QueuedJob
from repro.serve.server import (
    DEFAULT_PORT,
    DEFAULT_WORKER_PORT,
    RejectedRequest,
    ReproService,
    ServiceDraining,
    ServiceOverloaded,
    run_service,
)
from repro.serve.stats import BackendThroughput, ServiceStats

__all__ = [
    "BackendThroughput",
    "BatchQueue",
    "BatchTimeoutError",
    "Coalescer",
    "DEFAULT_PORT",
    "DEFAULT_WORKER_PORT",
    "QueuedJob",
    "RejectedRequest",
    "ReproService",
    "ServiceDraining",
    "ServiceOverloaded",
    "ServiceStats",
    "canonical_json",
    "decode_request",
    "run_service",
]
