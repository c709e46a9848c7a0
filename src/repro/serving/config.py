"""Configuration of the online serving layer.

One frozen dataclass holds every serving knob: the listen address, the
admission-queue bound, the latency SLO that drives load shedding, the
micro-batch size cap, the worker fan-out of the batch executor, and the
trace and SLO settings.  The CLI ``serve`` command maps its flags onto
this config one-to-one.  What has no flag is a constant of the class it
belongs to: the shed thresholds are :class:`~repro.serving.ShedPolicy`'s,
the 60 s / 12-slot metrics window is
:class:`~repro.obs.WindowedHistogram`'s and the trace spool's bound is
:class:`~repro.obs.TraceSink`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Executors the serving batch path supports.  Process pools route the
#: admitted rung through :class:`~repro.obs.TraceContext` baggage (object
#: identity does not survive the pickle wall), so they require a picklable
#: ``pipeline_factory`` on the server.
SERVING_EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")


@dataclass(frozen=True)
class ServingConfig:
    """Every knob of :class:`~repro.serving.server.DisambiguationServer`.

    ``max_queue`` bounds *outstanding admitted* requests (queued plus
    in-flight) — the server never buffers more than this, whatever the
    arrival rate; excess traffic is shed by rung and finally rejected.
    ``slo_ms`` is the p99 latency objective: a windowed request p99
    above it shifts admission down the degradation ladder, and it doubles
    as the per-attempt soft deadline armed through
    :class:`repro.faults.Budget`.  Each field is the destination of one
    ``repro serve`` flag.
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests, loopback benchmarks).
    port: int = 8400
    #: Bound on outstanding admitted requests (queued + in-flight).
    max_queue: int = 64
    #: p99 latency objective in milliseconds.
    slo_ms: float = 1000.0
    #: Most documents one micro-batch takes from the queue.
    batch_max_docs: int = 16
    #: Worker threads of the per-batch :class:`~repro.core.batch.BatchRunner`.
    workers: int = 4
    executor: str = "thread"
    #: Head-sampling rate for healthy traces (1.0 keeps every trace;
    #: SLO-breaching and erroring requests are always kept — tail
    #: sampling is unconditional).
    trace_sample_rate: float = 1.0
    #: JSONL path full span trees are spooled to (``None`` disables the
    #: trace sink; spans are still recorded, then discarded on completion).
    trace_export: Optional[str] = None
    #: SLO objective: the good-request fraction the error budget is
    #: computed against (0.99 = "99% of requests good").
    slo_objective: float = 0.99

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.slo_ms <= 0:
            raise ConfigurationError("slo_ms must be > 0")
        if self.batch_max_docs < 1:
            raise ConfigurationError("batch_max_docs must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.executor not in SERVING_EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {SERVING_EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                "trace_sample_rate must be in [0, 1]"
            )
        if not 0.0 < self.slo_objective < 1.0:
            raise ConfigurationError(
                "slo_objective must be in (0, 1)"
            )
