"""Hypothesis fuzzing of the two front doors: the HTTP parser and the
stdin-JSONL pump.

``DisambiguationServer._read_request`` is fed through an
``asyncio.StreamReader`` (``feed_data`` then ``feed_eof``): truncated
valid requests, random ``Content-Length`` values, repeated headers and
random bytes.  Whatever arrives, the parser either returns
``(method, path, body)`` or refuses with a classified status (400, 413,
414 or 431) — never another exception.  A valid request fed in chunks
split at random points, with a loop iteration between chunks, parses to
the same triple as the request fed whole.

``run_jsonl`` is fed arbitrary lines mixed with real documents.  It must
write one output line per non-blank input line, in input order, and
every error row must carry a ``request_id``.
"""

from __future__ import annotations

import asyncio
import io
import json
from typing import List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving.server import (
    MAX_BODY_BYTES,
    DisambiguationServer,
    _RequestRejected,
)

from tests.serving.conftest import document_payload, drive, make_server

#: Statuses the parser may refuse a request with.
PARSER_STATUSES = {400, 413, 414, 431}

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

_TOKEN = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)
_CONTENT_LENGTH = st.one_of(
    st.integers(min_value=0, max_value=2 * MAX_BODY_BYTES).map(str),
    st.text(alphabet="0123456789", min_size=1, max_size=40),
    st.text(alphabet="0123456789+-_ x", min_size=0, max_size=8),
)
_HEADER = st.one_of(
    st.tuples(st.just("Content-Length"), _CONTENT_LENGTH),
    st.tuples(st.just("content-length"), _CONTENT_LENGTH),
    st.tuples(_TOKEN, st.text(max_size=30).filter(lambda v: "\n" not in v)),
)


def parse(data: bytes):
    """The parser's outcome on *data*: a triple or the refusal."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await DisambiguationServer._read_request(reader)
        except _RequestRejected as exc:
            return exc

    return asyncio.run(main())


def parse_in_chunks(data: bytes, cuts: List[int]):
    """The parser's outcome on *data* split at *cuts*, each chunk fed
    after the parser has waited a loop iteration for more."""

    async def main():
        reader = asyncio.StreamReader()
        parsing = asyncio.ensure_future(
            DisambiguationServer._read_request(reader)
        )
        bounds = [0, *sorted(cuts), len(data)]
        for start, end in zip(bounds, bounds[1:]):
            reader.feed_data(data[start:end])
            await asyncio.sleep(0)
        reader.feed_eof()
        try:
            return await parsing
        except _RequestRejected as exc:
            return exc

    return asyncio.run(main())


def assert_allowed(outcome) -> None:
    if isinstance(outcome, _RequestRejected):
        assert outcome.status in PARSER_STATUSES, outcome
        return
    method, path, body = outcome
    assert isinstance(method, str) and isinstance(path, str)
    assert isinstance(body, bytes)


def render(
    method: str, path: str, headers: List[Tuple[str, str]], body: bytes
) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return head.encode("utf-8") + b"\r\n" + body


@FUZZ
@given(
    method=st.sampled_from(["GET", "POST", "PUT", "DELETE"]),
    path=_TOKEN.map(lambda token: "/" + token),
    body=st.binary(max_size=300),
    extra=st.lists(_HEADER, max_size=6),
    data=st.data(),
)
def test_truncated_and_mangled_requests_are_parsed_or_refused(
    method, path, body, extra, data
):
    """A valid request, with random extra (possibly repeated or bad)
    headers, cut at a random byte."""
    headers = [("Content-Length", str(len(body)))] + extra
    headers = data.draw(st.permutations(headers))
    raw = render(method, path, headers, body)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    assert_allowed(parse(raw[:cut]))


@FUZZ
@given(
    method=st.sampled_from(["GET", "POST"]),
    path=_TOKEN.map(lambda token: "/" + token),
    body=st.binary(max_size=300),
    repeats=st.integers(min_value=1, max_value=3),
)
def test_well_formed_requests_round_trip(method, path, body, repeats):
    """One agreed length, repeated or not, reads back the exact body."""
    headers = [("Content-Length", str(len(body)))] * repeats
    outcome = parse(render(method, path, headers, body))
    assert outcome == (method, path, body)


@FUZZ
@given(
    method=st.sampled_from(["GET", "POST"]),
    path=_TOKEN.map(lambda token: "/" + token),
    body=st.binary(max_size=300),
    extra=st.lists(st.tuples(_TOKEN, _TOKEN), max_size=4),
    data=st.data(),
)
def test_chunked_delivery_parses_like_whole(method, path, body, extra, data):
    """A slow client's pieces, wherever they split the request line,
    a header or the body, read back the request fed whole."""
    headers = [("Content-Length", str(len(body)))] + extra
    raw = render(method, path, headers, body)
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(raw)), max_size=12)
    )
    assert parse_in_chunks(raw, cuts) == parse(raw) == (method, path, body)


@FUZZ
@given(value=_CONTENT_LENGTH, body=st.binary(max_size=64))
@example(value="9" * 5000, body=b"")
@example(value="0" * 4999 + "5", body=b"abcde")
@example(value=str(MAX_BODY_BYTES + 1), body=b"")
def test_random_content_length_values(value, body):
    outcome = parse(
        render("POST", "/disambiguate", [("Content-Length", value)], body)
    )
    assert_allowed(outcome)
    if isinstance(outcome, tuple):
        declared = int(value.lstrip("0") or "0")
        assert declared <= len(body)
        assert outcome[2] == body[:declared]


@FUZZ
@given(data=st.binary(max_size=2000))
@example(data=b"GET " + b"/x" * 40_000 + b" HTTP/1.1\r\n\r\n")
@example(data=b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n")
def test_random_bytes_are_parsed_or_refused(data):
    assert_allowed(parse(data))


# ----------------------------------------------------------------------
# The stdin-JSONL pump
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=10),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["doc_id", "tokens", "mentions", "text", "x"]),
        children,
        max_size=4,
    ),
    max_leaves=8,
)
_JUNK = st.one_of(
    st.text(alphabet=st.characters(exclude_characters="\n"), max_size=40),
    _JSON.map(json.dumps),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    plan=st.lists(
        st.one_of(st.integers(min_value=0, max_value=4), _JUNK),
        max_size=8,
    )
)
def test_jsonl_pump_answers_each_non_blank_line_in_order(
    serving_pipeline, kb, sample_docs, plan
):
    """Integers in *plan* pick a real document (tagged with its line
    number), strings are junk lines sent verbatim."""
    lines, expected = [], []
    for number, step in enumerate(plan):
        if isinstance(step, int):
            payload = document_payload(sample_docs[step].document)
            payload["doc_id"] = f"line-{number}"
            lines.append(json.dumps(payload))
            expected.append(payload["doc_id"])
        else:
            lines.append(step)
            if step.strip():
                expected.append(None)
    out_stream = io.StringIO()
    server = make_server(serving_pipeline, kb=kb)

    async def driver(server):
        return await server.run_jsonl(
            io.StringIO("".join(line + "\n" for line in lines)), out_stream
        )

    served = drive(server, driver, listen=False)
    rows = [json.loads(line) for line in out_stream.getvalue().splitlines()]
    assert served == len(rows) == len(expected)
    for row, doc_id in zip(rows, expected):
        assert isinstance(row.get("request_id"), str) and row["request_id"]
        if doc_id is not None:
            assert row["doc_id"] == doc_id
            assert "error" not in row
        elif "error" not in row:
            assert "assignments" in row
