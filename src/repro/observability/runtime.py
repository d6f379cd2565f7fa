"""Process-wide tracer activation.

Entry points that cannot thread a :class:`TraceContext` explicitly — the
figure pipeline calls ``run_single_trial`` deep inside the experiment
runner — activate a tracer here with :func:`tracing`, and the driver picks it
up at the top of each protocol run.  One module-global read per run; ``None`` (the
overwhelmingly common case) costs a single ``is None`` check on the hot
path.

Activation is per-process and deliberately not inherited by worker
processes: traced figure runs force ``jobs=1`` so the span stream stays
ordered and complete.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .trace import Tracer

__all__ = ["current_tracer", "tracing"]

_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The process-wide tracer, or None when tracing is off."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
