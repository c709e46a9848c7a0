"""Wire protocol of the serving layer: JSON in, JSON out.

One request format serves both the HTTP body and the stdin-JSONL mode:

* ``{"doc_id": ..., "text": "..."}`` — raw text; the server tokenizes
  and runs NER against the KB dictionary (the interactive path);
* ``{"doc_id": ..., "tokens": [...], "mentions": [{"surface", "start",
  "end"}, ...]}`` — a pre-tokenized document with mention spans (the
  corpus-replay path; ``mentions`` may be omitted to run NER over the
  given tokens).

Responses carry the chosen entity and raw score per mention plus the
serving metadata the SLO story needs: the rung admission granted
(``admitted_rung``), the rung that actually produced the result
(``rung``, after any further degradation), the attempt count, and the
observed latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.text.tokenizer import tokenize
from repro.types import DisambiguationResult, Document, Mention


class ProtocolError(ReproError):
    """Malformed request payload — HTTP 400."""


def document_from_payload(payload: Dict, recognizer=None) -> Document:
    """Build the :class:`~repro.types.Document` a request describes.

    ``recognizer`` (a ``NamedEntityRecognizer``) is required for requests
    without explicit ``mentions`` — raw text and bare token lists run NER.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    doc_id = str(payload.get("doc_id", "doc"))
    if "tokens" in payload:
        raw_tokens = payload["tokens"]
        if not isinstance(raw_tokens, list) or not raw_tokens:
            raise ProtocolError("'tokens' must be a non-empty list")
        tokens = tuple(str(token) for token in raw_tokens)
    elif "text" in payload:
        text = str(payload["text"])
        if not text.strip():
            raise ProtocolError("'text' must be non-empty")
        tokens = tuple(tokenize(text))
    else:
        raise ProtocolError("request needs 'text' or 'tokens'")
    if "mentions" in payload:
        if not isinstance(payload["mentions"], list):
            raise ProtocolError("'mentions' must be a list")
        mentions: List[Mention] = []
        for row in payload["mentions"]:
            try:
                mention = Mention(
                    surface=str(row["surface"]),
                    start=int(row["start"]),
                    end=int(row["end"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed mention record: {exc}"
                ) from exc
            if mention.start < 0 or mention.end > len(tokens):
                raise ProtocolError(
                    f"mention span {mention.start}:{mention.end} lies "
                    f"outside the document's {len(tokens)} tokens"
                )
            mentions.append(mention)
        return Document(
            doc_id=doc_id, tokens=tokens, mentions=tuple(mentions)
        )
    document = Document(doc_id=doc_id, tokens=tokens)
    if recognizer is None:
        raise ProtocolError(
            "no NER available: send explicit 'mentions' spans"
        )
    return recognizer.recognize(document)


def response_to_dict(
    result: DisambiguationResult,
    admitted_rung: str,
    latency_ms: Optional[float] = None,
    request_id: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> Dict:
    """The JSON-serializable response for one disambiguated document."""
    payload: Dict = {
        "doc_id": result.doc_id,
        "rung": result.degradation_rung,
        "admitted_rung": admitted_rung,
        "attempts": result.attempts,
        "assignments": [
            {
                "surface": assignment.mention.surface,
                "start": assignment.mention.start,
                "end": assignment.mention.end,
                "entity": assignment.entity,
                "score": assignment.score,
            }
            for assignment in result.assignments
        ],
    }
    if latency_ms is not None:
        payload["latency_ms"] = latency_ms
    if request_id is not None:
        payload["request_id"] = request_id
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload


def error_to_dict(error: BaseException, **extra) -> Dict:
    """A uniform JSON error body (429/400/500 responses, JSONL rows)."""
    payload: Dict = {
        "error": f"{type(error).__name__}: {error}",
    }
    payload.update(extra)
    return payload
