"""Serve simulations as production traffic.

The long-running daemon behind ``repro serve``: a stdlib-asyncio HTTP
server speaking the versioned ``repro.api.request/v1`` /
``repro.api.result/v1`` wire documents, a multi-tenant priority job
queue with quotas and fair dequeue, one shared warm
:class:`repro.exec.ResultCache`, and the existing supervised
:mod:`repro.exec` sweep stack for execution — journaling, the flight
recorder, chaos tolerance, and determinism all carry over.  See
``docs/serving.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BacklogFull",
    "Job",
    "JobQueue",
    "QueueRejection",
    "QuotaExceeded",
    "ServeConfig",
    "ServiceHandle",
    "SimulationService",
    "run_server",
    "serve_async",
    "start_in_process",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.queue": ("BacklogFull", "Job", "JobQueue", "QueueRejection", "QuotaExceeded"),
    "repro.serve.server": (
        "ServeConfig",
        "ServiceHandle",
        "SimulationService",
        "run_server",
        "serve_async",
        "start_in_process",
    ),
})
