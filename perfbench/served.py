"""serve-mix: a closed loop of HTTP clients against ``repro serve``.

The benchmark writes the generated datasets as N-Triples, boots
``python -m repro serve`` on them (default strategy, default fallback
ladder, two execution workers) and drives ``POST /query`` from
``CLIENTS`` threads, each holding one keep-alive connection and sending
its next request only when the previous response has been read.  Every
response body is compared with the oracle's rows.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import inputs
import stats
from library import DEFAULT, Scale, expected_answers
from measure import MIN_TAIL_SAMPLES, BenchmarkFailure, Samples, Traced, note
from oracle import WrongAnswer

#: The cheap slice of the paper queries the service benchmark uses.
SLICE = {
    "lubm": ("Q01", "Q03", "Q04", "Q05", "Q10", "Q11", "Q14"),
    "dblp": ("Q01", "Q02", "Q04", "Q05", "Q07"),
}
#: Closed-loop clients.  One: with two, the client and the server's
#: workers contend for the host's two processors, and the figures
#: followed the host's load (see README.md, *serve-mix*).
CLIENTS = 1
WORKERS = 2
#: Latency limit a request must meet; a failed request misses it.
LIMIT_MS = 50.0
BOOT_TIMEOUT_S = 60.0
#: The measured phase runs as this many sub-phases; throughput is their
#: median.
SUBPHASES = 5


@dataclass
class Served:
    """Per-request observations beyond the client latency."""

    queue_wait_ms: List[float] = field(default_factory=list)
    answer_ms: List[float] = field(default_factory=list)
    overhead_ms: List[float] = field(default_factory=list)
    attempts: int = 0
    fallbacks: int = 0
    requests: int = 0
    within_limit: int = 0


def render(rows) -> List[str]:
    """Answer rows as the service renders them."""
    return sorted("\t".join(str(term) for term in row) for row in rows)


def record_response(
    samples: Samples,
    served: Served,
    label: str,
    status: int,
    body: bytes,
    latency_s: float,
    expected: List[str],
    detailed: bool,
) -> None:
    """Account one response.  A non-200 response is a failed operation
    and misses the latency limit; a 200 whose rows differ from the
    oracle's raises :class:`WrongAnswer`."""
    samples.attempted += 1
    served.requests += 1
    if status != 200:
        samples.fail(label, RuntimeError(f"HTTP {status}: {body[:200]!r}"))
        return
    payload = json.loads(body)
    if payload.get("rows") != expected:
        raise WrongAnswer(
            f"{label}: {payload.get('answer_count')} rows, expected {len(expected)}"
        )
    samples.answered(latency_s)
    latency_ms = 1000.0 * latency_s
    if latency_ms <= LIMIT_MS:
        served.within_limit += 1
    if detailed:
        queue_ms = 1000.0 * payload.get("queue_wait_s", 0.0)
        answer_ms = 1000.0 * (payload.get("optimization_s", 0.0) + payload.get("evaluation_s", 0.0))
        served.queue_wait_ms.append(queue_ms)
        served.answer_ms.append(answer_ms)
        served.overhead_ms.append(latency_ms - queue_ms - answer_ms)
        attempts = payload.get("attempts") or []
        served.attempts += max(1, len(attempts))
        if payload.get("strategy_used") != payload.get("strategy"):
            served.fallbacks += 1


class Server:
    """One ``repro serve`` subprocess, stopped and reaped on :meth:`stop`."""

    def __init__(self, root: str, work: str, datasets: Dict[str, str]) -> None:
        self.port_file = os.path.join(work, "serve.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--port-file", self.port_file, "--workers", str(WORKERS)]
        for name, path in sorted(datasets.items()):
            argv += ["--data", f"{name}={path}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log_path = os.path.join(work, "serve.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv, cwd=work, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> int:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise BenchmarkFailure(f"repro serve exited with {self.process.returncode}; see {self.log_path}")
            try:
                with open(self.port_file, encoding="utf-8") as source:
                    text = source.read().strip()
            except FileNotFoundError:
                text = ""
            if text:
                self.port = int(text)
                return self.port
            time.sleep(0.005)
        raise BenchmarkFailure(f"repro serve not ready after {BOOT_TIMEOUT_S:.0f}s")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, body: bytes) -> Tuple[int, bytes, float]:
        started = time.perf_counter()
        self.connection.request("POST", "/query", body=body, headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def close(self) -> None:
        self.connection.close()


def serve_mix(root: str, seed: int, seconds: float, traced: Optional[Traced], scale: Scale = DEFAULT) -> Samples:
    """Closed-loop ``POST /query`` load on a ``repro serve`` subprocess."""
    work = os.path.join(root, ".perfbench", "serve")
    os.makedirs(work, exist_ok=True)
    facts = {
        "lubm": inputs.lubm_triples(scale.update_universities),
        "dblp": inputs.dblp_triples(scale.plan_dblp_publications),
    }
    paths = {}
    jobs = []
    expected: Dict[str, List[str]] = {}
    for dataset, names in SLICE.items():
        paths[dataset] = os.path.join(work, f"{dataset}.nt")
        inputs.to_ntriples(inputs.schema(dataset), facts[dataset], paths[dataset])
        workload = inputs.queries(dataset, names)
        answers = expected_answers(dataset, facts[dataset], workload)
        for query in workload:
            expected[query.label] = render(answers[query.label])
            body = json.dumps({"query": query.text, "dataset": dataset}).encode()
            jobs.append((query.label, body))
    samples = Samples()
    served = Served()
    warm = Samples()

    def boot() -> Server:
        server = Server(root, work, paths)
        try:
            client = Client(server.wait_ready())
            try:
                for label, body in jobs:
                    status, data, latency = client.post(body)
                    record_response(warm, Served(), label, status, data, latency, expected[label], False)
            finally:
                client.close()
        except BaseException:
            server.stop()
            raise
        if warm.failed:
            server.stop()
            raise BenchmarkFailure(f"warm-up failed: {warm.failures[:3]}")
        return server

    server: Optional[Server] = None
    try:
        setups = 1 if traced is not None else scale.setups
        for index in range(setups):
            samples.ruler.sample()
            started = time.perf_counter()
            server = boot()
            samples.set_up(time.perf_counter() - started)
            if index < setups - 1:
                server.stop()
                server = None
        assert server is not None and server.port is not None
        units = [False, True, False, True] if traced is not None else [False] * SUBPHASES
        for index, detailed in enumerate(units):
            samples.ruler.sample()
            requests_before, correct_before = served.requests, samples.correct
            elapsed, busy = _closed_loop(
                server.port, jobs, expected, seed, index, seconds / len(units),
                samples, served, detailed, traced,
            )
            samples.measured_s += busy
            if traced is None:
                samples.unit((samples.correct - correct_before) / busy, elapsed)
            else:
                rate = (served.requests - requests_before, busy)
                (traced.traced_rate if detailed else traced.untraced_rate).append(rate)
        samples.ruler.sample()
        while traced is None and served.requests < MIN_TAIL_SAMPLES:
            samples.measured_s += _closed_loop(
                server.port, jobs, expected, seed, -1, 0.5, samples, served, False, None
            )[1]
    finally:
        if server is not None:
            server.stop()
    note(
        f"serve-mix: {served.requests} requests from {CLIENTS} closed-loop clients, "
        f"{served.within_limit} within {LIMIT_MS:g} ms"
    )
    if traced is not None and served.answer_ms:
        traced.extra["service.queue_wait_ms.p50"] = stats.median(served.queue_wait_ms)
        traced.extra["service.answer_ms.p50"] = stats.median(served.answer_ms)
        traced.extra["service.overhead_ms.p50"] = stats.median(served.overhead_ms)
        traced.extra["resilience.attempts_per_request"] = served.attempts / len(served.answer_ms)
        traced.extra["resilience.fallbacks"] = float(served.fallbacks)
    return samples


def _closed_loop(port, jobs, expected, seed, phase, seconds, samples, served, detailed, traced) -> float:
    """Run ``CLIENTS`` closed-loop clients for ``seconds``; returns the
    phase's wall time and the time its requests took (the benchmark's
    own checks and reference samples between requests excluded)."""
    order = inputs.shuffled(jobs, seed, f"serve-order:{phase}")
    lock = threading.Lock()
    errors: List[BaseException] = []
    busy = [0.0]
    started = time.perf_counter()
    deadline = started + seconds

    def client_loop(offset: int) -> None:
        client = Client(port)
        position = offset
        try:
            while time.perf_counter() < deadline and not errors:
                label, body = order[position % len(order)]
                position += 1
                span_start = time.perf_counter()
                try:
                    status, data, latency = client.post(body)
                except (OSError, http.client.HTTPException) as error:
                    status, data, latency = 599, str(error).encode(), time.perf_counter() - span_start
                    client.close()
                    client = Client(port)
                with lock:
                    if traced is not None and detailed:
                        traced.log.request_id = served.requests
                        traced.log.add("request", span_start, span_start + latency)
                    record_response(samples, served, label, status, data, latency, expected[label], detailed)
                    busy[0] += latency
                samples.ruler.tick()
        except BaseException as error:  # surfaced after the join
            errors.append(error)
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(k * len(order) // CLIENTS,), name=f"client-{k}")
        for k in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise BenchmarkFailure("a client thread did not finish")
    if errors:
        raise errors[0]
    return time.perf_counter() - started, busy[0]
