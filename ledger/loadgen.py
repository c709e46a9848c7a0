"""The ``serve-http`` workload: ``repro serve --snapshot`` under load.

Set-up, repeated (``setup_s`` is the median): ``repro snapshot build``
over the saved golden-world KB, then ``repro serve --snapshot`` in a
child process until ``/healthz`` answers.  The last server stays up.

Before any timing the golden corpus is replayed through that server and
compared with the frozen answers.  Then one asyncio generator sends
distinct CoNLL-style documents of the golden world at two fixed rates:
``low`` (the front door's cost without load) and then ``high``.  Sends are
evenly spaced; at most ``nproc`` requests are in flight, so when the
server falls behind the generator runs late, and that lag is reported.
Latency runs from a request's *scheduled* send time until its response
is read.  Afterwards every full-rung answer is checked against the
in-process pipeline.

Server-side figures come from the server's public ``/stats`` and
``/metrics`` (scraped between phases, outside the timed windows) and
from response fields, since the server runs in another process.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import AidaConfig
from repro.core.pipeline import AidaDisambiguator
from repro.kb.io import save_knowledge_base
from repro.types import Mention

from ledger import workloads
from ledger.workloads import Switches
from ledger.catalog import SERVING_STAGES
from ledger.golden import mismatches, records
from ledger.quantiles import MIN_TAIL, quantile, samples_for_tail
from ledger.result import RunResult, accuracy, put_fail_frac, put_latency

HOST = "127.0.0.1"
WORK_DIR = ".ledger_work"


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
async def http(
    port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, bytes]:
    """One request on its own connection (the server closes after each)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def get_json(port: int, path: str) -> Dict:
    status, payload = asyncio.run(http(port, "GET", path))
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


def request_body(document) -> bytes:
    return json.dumps(
        {
            "doc_id": document.doc_id,
            "tokens": list(document.tokens),
            "mentions": [
                {"surface": m.surface, "start": m.start, "end": m.end}
                for m in document.mentions
            ],
        }
    ).encode("utf-8")


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
def _repro(root: str, *args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _env(root: str) -> Dict[str, str]:
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        PYTHONDONTWRITEBYTECODE="1",
    )


class Server:
    """A ``repro serve`` child on an ephemeral loopback port."""

    def __init__(self, root: str, source: List[str], log_path: str):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            _repro(
                root, "serve", *source, "--host", HOST, "--port", "0",
                *workloads.SERVE_FLAGS,
            ),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=_env(root),
            cwd=root,
            text=True,
        )
        self.port = 0

    def wait_ready(self, timeout: float) -> None:
        """Read the announced port, then poll ``/healthz`` until 200."""
        deadline = time.monotonic() + timeout
        line = ""
        while "serving on http://" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                line = self.proc.stdout.readline()
        address = line.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        while True:
            try:
                status, _ = asyncio.run(http(self.port, "GET", "/healthz"))
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def peak_rss_mib(self) -> float:
        status = f"/proc/{self.proc.pid}/status"
        with open(status, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def set_up(root: str, work: str, kb_dir: str, switches: Switches):
    """Build the image (unless serving ``--kb``) and boot until ready.

    Returns ``(server, build_seconds, ready_seconds)``.
    """
    start = time.perf_counter()
    if switches.snapshot:
        image = os.path.join(work, "kb.snap")
        subprocess.run(
            _repro(root, "snapshot", "build", "--kb", kb_dir, "--out", image),
            env=_env(root), cwd=root, check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        source = ["--snapshot", image]
    else:
        source = ["--kb", kb_dir]
    if not switches.compiled:
        source.append("--no-compiled")
    built = time.perf_counter()
    server = Server(root, source, os.path.join(work, "serve.log"))
    try:
        server.wait_ready(workloads.SERVE_BOOT_TIMEOUT_S)
    except BaseException:
        server.stop()
        raise
    return server, built - start, time.perf_counter() - built


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Sample:
    index: int
    scheduled: float
    sent: float
    done: float
    status: Optional[int]
    payload: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1000.0


@dataclass
class Phase:
    samples: List[Sample]
    in_flight_max: int
    span_s: float


async def open_loop(
    port: int, bodies: Sequence[bytes], rate: float, limit: int
) -> Phase:
    """Send *bodies* at *rate* per second, at most *limit* in flight."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(limit)
    in_flight = 0
    in_flight_max = 0

    async def one(index: int, body: bytes, scheduled: float) -> Sample:
        nonlocal in_flight
        sent = loop.time()
        try:
            status, payload = await http(port, "POST", "/disambiguate", body)
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            status, payload = None, b""
        finally:
            in_flight -= 1
            slots.release()
        return Sample(index, scheduled, sent, loop.time(), status, payload)

    tasks = []
    first = loop.time() + 0.01
    for index, body in enumerate(bodies):
        scheduled = first + index / rate
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        in_flight += 1
        in_flight_max = max(in_flight_max, in_flight)
        tasks.append(loop.create_task(one(index, body, scheduled)))
    samples = list(await asyncio.gather(*tasks))
    span = max(s.done for s in samples) - first
    return Phase(samples, in_flight_max, span)


def _delta_histogram(
    before: Dict, after: Dict, name: str
) -> Tuple[float, int]:
    """(sum, count) a histogram gained between two /metrics scrapes."""
    old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
    new = after["histograms"].get(name, {"sum": 0.0, "count": 0})
    return new["sum"] - old["sum"], new["count"] - old["count"]


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run_serve(
    root: str, seed: int, seconds: float, trace: bool,
    golden_documents, golden_expected, switches: Switches = Switches(),
) -> RunResult:
    result = RunResult("serve-http")
    world, kb = workloads.serve_world()
    plan = workloads.serve_plan(seconds, samples_for_tail(0.99, MIN_TAIL))
    documents = workloads.serve_documents(world, seed, plan.low + plan.high)
    work = os.path.join(root, WORK_DIR, f"serve-{os.getpid()}")
    kb_dir = os.path.join(work, "kb")
    os.makedirs(work, exist_ok=True)
    server = None
    try:
        save_knowledge_base(kb, kb_dir)
        builds, readies = [], []
        for _ in range(workloads.SETUP_REPEATS["serve-http"]):
            if server is not None:
                server.stop()
            server, build_s, ready_s = set_up(root, work, kb_dir, switches)
            builds.append(build_s)
            readies.append(ready_s)
        limit = os.cpu_count() or 1
        gate = asyncio.run(_replay(server.port, golden_documents))
        problems = mismatches("http", golden_documents, gate, golden_expected)
        if problems:
            result.problems.extend(f"golden gate: {p}" for p in problems)
            result.attempted = len(golden_documents)
            result.failed = len(problems)
            return result
        bodies = [request_body(d.document) for d in documents]
        low = asyncio.run(
            open_loop(
                server.port, bodies[: plan.low],
                workloads.SERVE_RATE_LOW, limit,
            )
        )
        stats_before = get_json(server.port, "/stats")
        metrics_before = get_json(server.port, "/metrics")
        high = asyncio.run(
            open_loop(
                server.port, bodies[plan.low :],
                workloads.SERVE_RATE_HIGH, limit,
            )
        )
        stats_after = get_json(server.port, "/stats")
        metrics_after = get_json(server.port, "/metrics")
        rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    answers = _parse(low.samples + high.samples)
    _check_answers(result, kb, documents, answers)
    _end_to_end(result, documents, builds, readies, low, high, answers, rss)
    if trace:
        _per_layer(
            result, builds, readies, high, answers[plan.low :],
            (stats_before, stats_after), (metrics_before, metrics_after),
        )
    return result


async def _replay(port: int, documents) -> List[Optional[list]]:
    answers = []
    for annotated in documents:
        status, payload = await http(
            port, "POST", "/disambiguate", request_body(annotated.document)
        )
        answers.append(
            json.loads(payload)["assignments"] if status == 200 else None
        )
    return answers


def _parse(samples: Sequence[Sample]) -> List[Optional[Dict]]:
    return [
        json.loads(s.payload) if s.status == 200 else None for s in samples
    ]


def _check_answers(result: RunResult, kb, documents, answers) -> None:
    """Full-rung answers must equal the in-process pipeline's, to 1e-9."""
    pipeline = AidaDisambiguator(kb, config=AidaConfig.full())
    expected, checked, got = {}, [], []
    for annotated, answer in zip(documents, answers):
        if answer is None or answer["rung"] != "full":
            continue
        expected[annotated.doc_id] = records(
            pipeline.disambiguate(annotated.document)
        )
        checked.append(annotated)
        got.append(answer["assignments"])
    result.problems.extend(mismatches("serve", checked, got, expected))
    result.notes["answers_checked"] = len(checked)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _lags_ms(phase: Phase) -> List[float]:
    return [(s.sent - s.scheduled) * 1000.0 for s in phase.samples]


def _end_to_end(
    result, documents, builds, readies, low, high, answers, rss
) -> None:
    samples = low.samples + high.samples
    result.attempted = len(samples)
    result.failed = sum(1 for s in samples if s.status != 200)
    ok = [a for a in answers if a is not None]
    full_high = sum(
        1 for a in answers[len(low.samples) :]
        if a is not None and a["rung"] == "full"
    )
    predictions = [
        {
            Mention(r["surface"], r["start"], r["end"]): r["entity"]
            for r in a["assignments"]
        }
        if a is not None else None
        for a in answers
    ]
    micro, macro = accuracy(documents, predictions)
    setups = [b + r for b, r in zip(builds, readies)]
    high_ms = [s.latency_ms for s in high.samples]
    low_ms = [s.latency_ms for s in low.samples]
    result.put("setup_s", quantile(setups, 0.5), "s", len(setups))
    result.put(
        "docs_per_s", full_high / high.span_s, "docs/s", len(high.samples)
    )
    put_latency(result, high_ms)
    result.put("p50_ms.low", quantile(low_ms, 0.5), "ms", len(low_ms))
    result.put("micro_acc", micro, "fraction", len(documents))
    result.put("macro_acc", macro, "fraction", len(documents))
    put_fail_frac(result)
    result.put(
        "full_rung_frac",
        _share(sum(1 for a in ok if a["rung"] == "full"), len(ok)),
        "fraction",
        len(ok),
    )
    result.put("rss_mib", rss, "MiB")
    lags = _lags_ms(high)
    result.put_reported(
        "loadgen.lag_p99_ms", quantile(lags, 0.99), "ms", len(lags)
    )


def _per_layer(
    result, builds, readies, high, answers, stats, metrics
) -> None:
    put = result.put_layer
    ok = [a for a in answers if a is not None]
    done = [s for s in high.samples if s.status == 200]
    server_ms = [a["latency_ms"] for a in ok]
    wire_ms = [
        (s.done - s.sent) * 1000.0 - a["latency_ms"]
        for s, a in zip(done, ok)
    ]
    put("setup.snapshot_build_s", quantile(builds, 0.5), "s")
    put("setup.server_ready_s", quantile(readies, 0.5), "s")
    put(
        "faults.attempts_per_doc",
        _share(sum(a["attempts"] for a in ok), len(ok)),
        "count",
    )
    put(
        "faults.degraded_frac",
        _share(sum(1 for a in ok if a["rung"] != "full"), len(ok)),
        "fraction",
    )
    put("serving.server_ms.p50", quantile(server_ms, 0.5) if ok else 0, "ms")
    put("serving.wire_ms.p50", quantile(wire_ms, 0.5) if ok else 0, "ms")
    size_sum, batches = _delta_histogram(*metrics, "serving.batch.size")
    put("serving.batch_docs.mean", _share(size_sum, batches), "count")
    before, after = stats
    admitted = sum(after["admitted"].values()) - sum(
        before["admitted"].values()
    )
    shed = after["shed"] - before["shed"]
    put("serving.shed_frac", _share(shed, admitted), "fraction")
    put("serving.rejected", after["rejected"] - before["rejected"], "count")
    for stage in SERVING_STAGES:
        total, count = _delta_histogram(
            *metrics, f"pipeline.stage.{stage}.seconds"
        )
        put(f"serving.stage.{stage}.ms", 1000.0 * _share(total, count), "ms")
    put("loadgen.lag_p99_ms", quantile(_lags_ms(high), 0.99), "ms")
    put("loadgen.in_flight_max", high.in_flight_max, "count")
    # The server is measured from outside only; the traced run differs
    # from the untraced one by nothing inside the timed phases.
    put("trace.overhead_frac", 0.0, "fraction")
