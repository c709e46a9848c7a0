"""The HTTP parser's limits, over loopback.

A declared body above ``MAX_BODY_BYTES`` answers 413 before any of it is
read, so a client that declares a large body and sends nothing gets its
answer at once; a negative ``Content-Length`` or a body cut short of it
answers 400; more than ``MAX_HEADER_LINES`` header lines, or one header
line over the stream reader's 64 KiB line limit, answer 431; a request
line over that limit answers 414; a client that has not sent its whole
request within ``REQUEST_READ_TIMEOUT_S`` answers 408, whether it stops
mid request or trickles every piece in on time (slowloris pacing), and
the same trickle inside the deadline is answered as usual.  A
``Content-Length`` that is not all digits, or that repeats with another
value, answers 400 (RFC 9112 section 6.3), and so does a payload whose
``mentions`` is not a list of in-range spans, over HTTP and as a JSONL
error row.  Every parse-level rejection carries a minted ``request_id``,
as other error bodies do.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.serving import server as server_module
from repro.serving.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    REQUEST_READ_TIMEOUT_S,
)

from tests.serving.conftest import document_payload, drive, make_server

#: An answer that waits for the declared body would hit this instead.
ANSWER_TIMEOUT_S = 5.0

#: Longer than the stream reader's default 64 KiB line limit.
OVERLONG = 70_000


async def _exchange(port: int, raw: bytes, eof: bool = False):
    """Send *raw*, keep the socket open, and read the whole answer.

    With *eof*, half-close the sending side after *raw* (the client has
    nothing more to send).  Returns ``(status, json_body)``.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        if eof:
            writer.write_eof()
        answer = await asyncio.wait_for(reader.read(), ANSWER_TIMEOUT_S)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, body = answer.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(body)


def _request(*headers: str) -> bytes:
    lines = ["POST /disambiguate HTTP/1.1", "Host: 127.0.0.1", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _assert_rejected(answer, status: int) -> None:
    got, body = answer
    assert got == status
    assert body["error"]
    assert isinstance(body["request_id"], str) and body["request_id"]


def test_caps_are_module_constants():
    assert MAX_BODY_BYTES == 1 << 20
    assert MAX_HEADER_LINES == 100


def test_oversized_body_answers_413_without_reading_it(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    raw = _request(f"Content-Length: {MAX_BODY_BYTES + 1}")

    async def driver(server):
        # The body never comes; the socket stays open until the answer.
        return await _exchange(server.port, raw)

    _assert_rejected(drive(server, driver), 413)


def test_negative_content_length_answers_400(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return await _exchange(server.port, _request("Content-Length: -5"))

    _assert_rejected(drive(server, driver), 400)


@pytest.mark.parametrize(
    "value", ["1_0", "+5", "0x10", "5 5", "", "\u00b2"]
)
def test_content_length_not_all_digits_answers_400(
    serving_pipeline, kb, value
):
    server = make_server(serving_pipeline, kb=kb)
    raw = _request(f"Content-Length: {value}") + b"0123456789"

    async def driver(server):
        return await _exchange(server.port, raw, eof=True)

    answer = drive(server, driver)
    _assert_rejected(answer, 400)
    assert "Content-Length" in answer[1]["error"]


def test_conflicting_content_lengths_answer_400(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    body = json.dumps({"doc_id": "cl", "text": "Paris ."}).encode()
    raw = _request("Content-Length: 3", f"Content-Length: {len(body)}")

    async def driver(server):
        return await _exchange(server.port, raw + body, eof=True)

    answer = drive(server, driver)
    _assert_rejected(answer, 400)
    assert "conflicting" in answer[1]["error"]


def test_repeated_equal_content_length_is_accepted(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    raw = (
        "GET /healthz HTTP/1.1\r\n"
        "Content-Length: 0\r\nContent-Length: 0\r\n\r\n"
    ).encode("latin-1")

    async def driver(server):
        return await _exchange(server.port, raw)

    status, body = drive(server, driver)
    assert status == 200
    assert body["status"] == "ok"


#: Payloads ``document_from_payload`` must refuse with a ProtocolError.
MALFORMED_MENTIONS = {
    "mentions-not-a-list": {"tokens": ["a", "b"], "mentions": 5},
    "negative-start": {
        "tokens": ["a", "b"],
        "mentions": [{"surface": "a b", "start": -1, "end": 1}],
    },
}


@pytest.mark.parametrize(
    "payload", list(MALFORMED_MENTIONS.values()), ids=list(MALFORMED_MENTIONS)
)
def test_malformed_mentions_answer_400(serving_pipeline, kb, payload):
    server = make_server(serving_pipeline, kb=kb)
    body = json.dumps(payload).encode()
    raw = _request(f"Content-Length: {len(body)}") + body

    async def driver(server):
        return await _exchange(server.port, raw)

    answer = drive(server, driver)
    _assert_rejected(answer, 400)
    assert answer[1]["error"].startswith("ProtocolError")


@pytest.mark.parametrize(
    "payload", list(MALFORMED_MENTIONS.values()), ids=list(MALFORMED_MENTIONS)
)
def test_malformed_mentions_are_jsonl_protocol_errors(
    serving_pipeline, kb, payload
):
    server = make_server(serving_pipeline, kb=kb)
    in_stream = io.StringIO(json.dumps(payload) + "\n")
    out_stream = io.StringIO()

    async def driver(server):
        return await server.run_jsonl(in_stream, out_stream)

    assert drive(server, driver, listen=False) == 1
    row = json.loads(out_stream.getvalue())
    assert row["error"].startswith("ProtocolError")
    assert row["request_id"].startswith("req-")
    assert "assignments" not in row


def test_too_many_header_lines_answer_431(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    # The Host line counts too: MAX_HEADER_LINES + 1 in all.
    extra = [f"X-Filler-{i}: x" for i in range(MAX_HEADER_LINES)]

    async def driver(server):
        return await _exchange(server.port, _request(*extra))

    _assert_rejected(drive(server, driver), 431)


def test_header_lines_at_the_cap_are_accepted(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    extra = [f"X-Filler-{i}: x" for i in range(MAX_HEADER_LINES - 1)]

    async def driver(server):
        raw = (
            "GET /healthz HTTP/1.1\r\n"
            + "".join(f"{line}\r\n" for line in extra)
            + "Content-Length: 0\r\n\r\n"
        ).encode("latin-1")
        return await _exchange(server.port, raw)

    status, body = drive(server, driver)
    assert status == 200
    assert body["status"] == "ok"


def test_malformed_request_line_carries_a_request_id(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return await _exchange(server.port, b"GARBAGE\r\n\r\n")

    answer = drive(server, driver)
    _assert_rejected(answer, 400)
    assert answer[1]["error"] == "malformed request"


def test_overlong_header_line_answers_431(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    raw = _request("X-Long: " + "a" * OVERLONG, "Content-Length: 0")

    async def client(server):
        return await _exchange(server.port, raw)

    _assert_rejected(drive(server, client), 431)


def test_overlong_request_line_answers_414(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    raw = (
        f"GET /healthz?{'a' * OVERLONG} HTTP/1.1\r\n\r\n"
    ).encode("latin-1")

    async def client(server):
        return await _exchange(server.port, raw)

    _assert_rejected(drive(server, client), 414)


def test_body_shorter_than_content_length_answers_400(serving_pipeline, kb):
    server = make_server(serving_pipeline, kb=kb)
    raw = _request("Content-Length: 100") + b'{"text": "'

    async def client(server):
        # The client stops after 10 of the 100 declared bytes.
        return await _exchange(server.port, raw, eof=True)

    answer = drive(server, client)
    _assert_rejected(answer, 400)
    assert "10 of 100" in answer[1]["error"]


def test_read_deadline_is_a_few_seconds():
    assert 1.0 <= REQUEST_READ_TIMEOUT_S <= 30.0


@pytest.mark.parametrize(
    "partial",
    [
        b"POST /disambig",  # mid request line
        b"POST /disambiguate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-",
        # Mid body: 7 bytes short of the declared length.
        _request("Content-Length: 17") + b'{"text"',
    ],
    ids=["request-line", "headers", "body"],
)
def test_stalled_client_answers_408(
    serving_pipeline, kb, monkeypatch, partial
):
    """A client that stops mid request gets 408 once the read deadline
    passes, while the socket stays open."""
    monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.2)
    server = make_server(serving_pipeline, kb=kb)

    async def client(server):
        return await _exchange(server.port, partial)

    answer = drive(server, client)
    _assert_rejected(answer, 408)
    assert "not read within" in answer[1]["error"]


async def _trickle(port: int, chunks, interval: float):
    """Send *chunks* *interval* seconds apart and read the whole answer;
    stop sending once the server has answered.

    Returns ``(status, json_body, chunks_sent)``.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    sent, answer = 0, b""
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            sent += 1
            try:
                # The pause between chunks doubles as a poll for an
                # early answer.
                answer = await asyncio.wait_for(reader.read(65536), interval)
                break
            except asyncio.TimeoutError:
                continue
        answer += await asyncio.wait_for(reader.read(), ANSWER_TIMEOUT_S)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, body = answer.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(body), sent


def _paced_request(document):
    """A valid request for *document* with ten padding headers, cut
    into one chunk per line plus the body: each of the parser's reads
    (a line, or the body) completes on one chunk."""
    body = json.dumps(document_payload(document)).encode("utf-8")
    padding = [f"X-Pad-{index}: {index}" for index in range(10)]
    raw = _request(f"Content-Length: {len(body)}", *padding)
    return raw.splitlines(keepends=True) + [body]


def test_trickled_request_past_the_deadline_answers_408(
    serving_pipeline, kb, plain_documents, monkeypatch
):
    """Slowloris: every read gets its chunk within a tenth of a second,
    but the whole request takes over a second; the deadline covers the
    request, not each read."""
    monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.4)
    server = make_server(serving_pipeline, kb=kb)
    chunks = _paced_request(plain_documents[0])

    async def client(server):
        return await _trickle(server.port, chunks, interval=0.1)

    status, body, sent = drive(server, client)
    _assert_rejected((status, body), 408)
    assert "not read within" in body["error"]
    # Answered mid-trickle, after several complete reads.
    assert 2 <= sent < len(chunks)
    assert server.admission.depth == 0


def test_trickled_request_within_the_deadline_is_answered(
    serving_pipeline, kb, plain_documents, monkeypatch
):
    monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 3.0)
    document = plain_documents[0]
    server = make_server(serving_pipeline, kb=kb)
    chunks = _paced_request(document)

    async def client(server):
        return await _trickle(server.port, chunks, interval=0.01)

    status, body, sent = drive(server, client)
    assert status == 200
    assert sent == len(chunks)
    want = serving_pipeline.disambiguate(document)
    assert body["doc_id"] == document.doc_id
    assert [
        (a["surface"], a["start"], a["end"], a["entity"], a["score"])
        for a in body["assignments"]
    ] == [
        (
            a.mention.surface,
            a.mention.start,
            a.mention.end,
            a.entity,
            a.score,
        )
        for a in want.assignments
    ]
    assert server.admission.depth == 0
