"""The ``service-sweep`` workload: model queries through the socket.

A fresh ``repro-bt serve`` process is driven closed-loop by this
process over ``CONNECTIONS`` keep-alive HTTP connections, the way a
sweep script waits for each reply before sending the next query.  A run
starts ``STARTS`` servers, each a set-up sample, and drives the first
``PASSES`` of them with the same request stream; each load figure is
the median over the passes (the mean of two), which steadies it on a
machine whose speed drifts.  Two passes keep a run near 35 s, so the
benchmark's runs fit their time limit even in the box's slow spells.

The request stream comes from the run's seed.  The 45 models are a
fixed grid, B in {40,55,70,85,100} x k in {3,4,5} x s in {10,20,30},
so every seed asks for the same solver work.  Every distinct (model,
quantity, method) query is sent at least once; the remaining requests
repeat queries with Zipf-like popularity.  The popularity ranks go to
the twelve (quantity, method) classes in a fixed rotation, so every
seed asks for the same mix of answer kinds and sizes; the seed sets
which model holds each rank, the order of the stream and the
Monte-Carlo seeds.  That gives about 90 % result-cache hits, 9 % cold
solves, and requests that hit only the kernel cache (same model, new
quantity).
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import select
import subprocess
import sys
import threading
import time

from common import Run, median, percentile, process_peak_rss_mb, tail_percentile

CONNECTIONS = 2
STARTS = 5
PASSES = 2
REQUESTS_PER_SECOND = 300
CHECK_SAMPLE = 12
ZIPF_EXPONENT = 1.0

QUANTITIES = ("download_time", "timeline", "potential_ratio", "phases")
METHODS = ("exact", "batch", "meanfield")
PIECES = (40, 55, 70, 85, 100)


def make_requests(seed: int, seconds: int, scale: float):
    """Request bodies and the stream of indices into them, from ``seed``."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x5E4E])
    models = [
        {"num_pieces": b, "max_conns": k, "ns_size": s}
        for b in PIECES for k in (3, 4, 5) for s in (10, 20, 30)
    ]
    models = models[:max(2, int(round(len(models) * scale)))]
    bodies = []
    for params, quantity, method in itertools.product(
        models, QUANTITIES, METHODS
    ):
        body = {"params": params, "quantity": quantity, "method": method}
        if method == "batch":
            # Monte-Carlo answers are reproducible only with a fixed seed.
            body["options"] = {"seed": int(rng.integers(2**31))}
        bodies.append(body)
    distinct = len(bodies)
    total = max(4 * distinct, int(round(REQUESTS_PER_SECOND * seconds * scale)))
    # bodies[m * classes + c] is model m in (quantity, method) class c;
    # rank j * classes + c goes to class c, and the seed picks its model.
    classes = len(QUANTITIES) * len(METHODS)
    model_order = np.stack(
        [rng.permutation(len(models)) for _ in range(classes)], axis=1
    )
    popularity = (model_order * classes + np.arange(classes)).ravel()
    weights = 1.0 / np.arange(1, distinct + 1) ** ZIPF_EXPONENT
    repeats = popularity[
        rng.choice(distinct, size=total - distinct, p=weights / weights.sum())
    ]
    stream = np.concatenate([np.arange(distinct), repeats])
    rng.shuffle(stream)
    sample = rng.choice(distinct, size=min(CHECK_SAMPLE, distinct),
                        replace=False)
    return bodies, stream.tolist(), sorted(int(i) for i in sample)


class Server:
    """One ``repro-bt serve`` child process on an ephemeral port."""

    def __init__(self, src: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro-bt serve did not report its port")

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = request(self.port, "GET", "/health")
            except OSError:
                time.sleep(0.01)
                continue
            if status == 200:
                return
        raise RuntimeError("repro-bt serve never answered /health")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


def request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _drive(run: Run, port: int, payloads, stream, parent):
    """Closed loop: each connection sends its next request on a reply."""
    records = [None] * len(stream)
    cursor = itertools.count()
    errors = []

    def connection(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        headers = {"Content-Type": "application/json"}
        try:
            with run.span(f"service.conn{index}", parent=parent):
                while True:
                    slot = next(cursor)
                    if slot >= len(stream):
                        return
                    with run.span("http.solve") as span:
                        conn.request("POST", "/solve",
                                     body=payloads[stream[slot]],
                                     headers=headers)
                        response = conn.getresponse()
                        data = response.read()
                    records[slot] = (response.status, span.seconds, data)
        except Exception as exc:  # noqa: BLE001 - reported as failed ops
            errors.append(f"connection {index}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    threads = [threading.Thread(target=connection, args=(index,))
               for index in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, errors


def _check_sample(run: Run, bodies, sample, answers) -> None:
    """Sampled distinct queries must equal the in-process solve."""
    from repro.api import Query, solve_query
    from repro.runtime.cache import KernelCache

    cache = KernelCache()
    fields = ("params", "quantity", "method", "result")
    for index in sample:
        answer = answers.get(index)
        if answer is None:
            run.check(False, f"no answer recorded for query {bodies[index]}")
            continue
        local = solve_query(Query.from_request(bodies[index]), cache=cache)
        expected = json.loads(json.dumps(local.to_dict()))
        same = all(
            json.dumps(expected[f], sort_keys=True)
            == json.dumps(answer[f], sort_keys=True)
            for f in fields
        )
        run.check(same, f"served answer differs from solve_query for "
                        f"{bodies[index]}")


def run_service(run: Run, src: str) -> None:
    bodies, stream, sample = make_requests(run.seed, run.seconds, run.scale)
    payloads = [json.dumps(body).encode() for body in bodies]
    setup_times, load_times, peaks, passes = [], [], [], []
    for index in range(STARTS):
        server = None
        try:
            with run.span("service.start") as start:
                server = Server(src)
                server.wait_healthy()
            setup_times.append(start.seconds)
            if index < PASSES:
                with run.span("service.load") as load:
                    records, errors = _drive(run, server.port, payloads,
                                             stream, run.recorder.current())
                load_times.append(load.seconds)
                with run.span("service.stats"):
                    status, raw_stats = request(server.port, "GET", "/stats")
                peaks.append(process_peak_rss_mb(server.proc.pid))
                passes.append((records, errors, status, raw_stats))
        finally:
            if server is not None:
                with run.span("service.stop"):
                    server.stop()

    with run.span("check.outputs"):
        pass_latencies, overheads, hits = [], [], []
        solve_ms = {method: [] for method in METHODS}
        answers = {}
        sample_set = set(sample)
        for records, errors, status, _raw in passes:
            for message in errors:
                run.check(False, message)
            run.check(status == 200, f"GET /stats answered HTTP {status}")
            outcomes = {"hit": 0, "miss": 0, "coalesced": 0}
            latencies = []
            for slot, record in enumerate(records):
                if record is None:
                    run.op(False, f"request {slot} was never answered")
                    continue
                code, seconds, data = record
                run.op(code == 200, f"request {slot} answered HTTP {code}")
                if code != 200:
                    continue
                answer = json.loads(data)
                latency_ms = 1000.0 * seconds
                latencies.append(latency_ms)
                overheads.append(latency_ms - answer["elapsed_ms"])
                outcomes[answer["outcome"]] += 1
                if answer["outcome"] == "hit":
                    hits.append(latency_ms)
                elif answer["outcome"] == "miss":
                    solve_ms[answer["method"]].append(answer["elapsed_ms"])
                if stream[slot] in sample_set:
                    answers.setdefault(stream[slot], answer)
            run.check(outcomes["miss"] + outcomes["coalesced"] >= len(bodies),
                      "fewer solves than distinct queries")
            pass_latencies.append(latencies)
        _check_sample(run, bodies, sample, answers)

    # Each pass is a whole measurement of the same stream; the figures
    # are medians (with two passes, means) over the passes.
    stats = json.loads(passes[-1][3])
    run.samples["setup_s"] = setup_times
    run.samples["load_s"] = load_times
    count = min(len(latencies) for latencies in pass_latencies)
    tail_q = tail_percentile(count)
    rates = [len(latencies) / seconds
             for latencies, seconds in zip(pass_latencies, load_times)]
    p50s = [percentile(latencies, 0.5) for latencies in pass_latencies]
    tails = [percentile(latencies, tail_q) for latencies in pass_latencies]
    run.end_to_end.update({
        "setup_s": median(setup_times),
        "ops_per_s": median(rates),
        "op_p50_ms": median(p50s),
        "op_tail_ms": median(tails),
        "work_s": median(load_times),
        "peak_rss_mb": median(peaks),
    })
    beyond = count - math.ceil(tail_q * count)
    run.note("setup_s", median(setup_times), "s",
             f"median of {STARTS} server starts to /health")
    run.note("queries_per_s", median(rates), "queries/s",
             f"median of {PASSES} passes x {len(stream)} requests over "
             f"{CONNECTIONS} connections; per pass "
             + ", ".join(f"{rate:.1f}" for rate in rates))
    run.note("query_p50_ms", median(p50s), "ms", "median over passes")
    run.note(f"query_p{tail_q * 100:g}_ms", median(tails), "ms",
             f"median over passes; {count} samples, {beyond} beyond, "
             "per pass")
    run.note("peak_rss_mb", median(peaks), "MB",
             "server process, median over passes")

    layer = run.per_layer
    layer["service.http_overhead_ms.p50"] = median(overheads)
    layer["service.hit_ms.p50"] = median(hits) if hits else 0.0
    # Every pass replays the same stream on a fresh server; the counts
    # are the last pass's.
    layer["service.hit_count"] = outcomes["hit"]
    layer["service.miss_count"] = outcomes["miss"]
    layer["service.coalesced_count"] = outcomes["coalesced"]
    kernel = stats["kernel_cache"]
    layer["cache.kernel_hits"] = kernel["hits"]
    layer["cache.kernel_misses"] = kernel["misses"]
    layer["cache.sparse_hits"] = kernel["sparse_hits"]
    layer["cache.sparse_misses"] = kernel["sparse_misses"]
    layer["cache.evictions"] = kernel["evictions"]
    layer["cache.bytes"] = kernel["bytes"]
    for method, samples in solve_ms.items():
        if samples:
            layer[f"core.{method}_solve_ms.p50"] = median(samples)
