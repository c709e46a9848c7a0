"""Online serving: admission control, micro-batching, HTTP/JSONL front door.

The serving layer turns the corpus-batch reproduction into the long-lived
service the paper's AIDA web deployment was: a stdlib-only asyncio server
that admits documents under a bounded queue, sheds load by walking the
graceful-degradation ladder (full → no_coherence → prior_only →
reject-429) instead of buffering unboundedly, micro-batches admitted
requests into the existing :class:`~repro.core.batch.BatchRunner`, and
enforces per-request deadlines through :class:`repro.faults.Budget`.

See ``docs/serving.md`` for the architecture and SLO-tuning guide.
"""

from repro.serving.admission import (
    REJECT,
    SHED_LADDER,
    AdmissionController,
    AdmissionRejected,
    ShedPolicy,
)
from repro.serving.batcher import (
    BATCH_SIZE_BUCKETS,
    BatcherClosed,
    FLUSH_REASONS,
    MicroBatcher,
)
from repro.serving.config import SERVING_EXECUTORS, ServingConfig
from repro.serving.protocol import (
    ProtocolError,
    document_from_payload,
    error_to_dict,
    response_to_dict,
)
from repro.serving.server import (
    DisambiguationServer,
    ServingFailure,
    ServingRequest,
    ServingResponse,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BATCH_SIZE_BUCKETS",
    "BatcherClosed",
    "DisambiguationServer",
    "FLUSH_REASONS",
    "MicroBatcher",
    "ProtocolError",
    "REJECT",
    "SERVING_EXECUTORS",
    "SHED_LADDER",
    "ServingConfig",
    "ServingFailure",
    "ServingRequest",
    "ServingResponse",
    "ShedPolicy",
    "document_from_payload",
    "error_to_dict",
    "response_to_dict",
]
