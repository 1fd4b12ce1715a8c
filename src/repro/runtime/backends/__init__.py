"""Pluggable compute backends for the serving runtime.

The mechanism layer under :class:`~repro.runtime.service.SpannerService`
(see :mod:`repro.runtime.backends.base` for the contract): one seam,
two substrates — :class:`ProcessBackend` (the extracted original
multiprocessing fleet) and :class:`SerialBackend` (inline execution).
"""

from .base import (
    BACKEND_NAMES,
    ComputeBackend,
    WorkerHandle,
    resolve_backend,
)

__all__ = [
    "BACKEND_NAMES",
    "ComputeBackend",
    "WorkerHandle",
    "resolve_backend",
    "ProcessBackend",
    "SerialBackend",
]


def __getattr__(name: str):  # PEP 562: concrete backends import lazily
    if name == "ProcessBackend":
        from .process import ProcessBackend

        return ProcessBackend
    if name == "SerialBackend":
        from .serial import SerialBackend

        return SerialBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
