"""Pluggable compute backends for the serving runtime.

The mechanism layer under :class:`~repro.runtime.service.SpannerService`
(see :mod:`repro.runtime.backends.base` for the contract): one seam,
three substrates — :class:`ProcessBackend` (the extracted original
multiprocessing fleet), :class:`ThreadBackend` (shared-artifact thread
pool) and :class:`SerialBackend` (inline execution).
"""

from .base import (
    BACKEND_NAMES,
    ComputeBackend,
    WorkerHandle,
    default_backend_name,
    resolve_backend,
)

__all__ = [
    "BACKEND_NAMES",
    "ComputeBackend",
    "WorkerHandle",
    "default_backend_name",
    "resolve_backend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
]


def __getattr__(name: str):  # PEP 562: concrete backends import lazily
    if name == "ProcessBackend":
        from .process import ProcessBackend

        return ProcessBackend
    if name == "SerialBackend":
        from .serial import SerialBackend

        return SerialBackend
    if name == "ThreadBackend":
        from .thread import ThreadBackend

        return ThreadBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
