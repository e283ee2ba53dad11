"""Discrete-event simulation core.

A compact, dependency-free DES kernel in the style of SimPy: processes are
Python generators that ``yield`` commands (:class:`Timeout`, :class:`Wait`,
:class:`AllOf`, ...) to the :class:`SimEngine`, which advances virtual time.

The Holmes training engine (:mod:`repro.core.engine`) runs one process per
simulated GPU rank; compute kernels become :class:`Timeout` commands, and both
pipeline point-to-point transfers and the per-step sends of executed
collectives (:mod:`repro.collectives.executor`) become channel puts/gets
through per-node NIC :class:`Resource` queues.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SimEvent",
    "SimEngine",
    "Process",
    "Timeout",
    "Wait",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "Barrier",
    "Span",
    "TraceRecorder",
    "RunningStats",
    "Histogram",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simcore.event": ("SimEvent",),
    "repro.simcore.engine": ("SimEngine",),
    "repro.simcore.process": ("Process", "Timeout", "Wait", "AllOf", "AnyOf"),
    "repro.simcore.resource": ("Resource", "Store", "Barrier"),
    "repro.simcore.trace": ("Span", "TraceRecorder"),
    "repro.simcore.stats": ("RunningStats", "Histogram"),
})
