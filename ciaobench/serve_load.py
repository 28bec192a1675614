"""The ``serve-hot`` and ``serve-zipf`` workloads against a real ``repro serve``.

Each workload drives a ``repro serve`` process over HTTP from this one
process, with at most two connections (the container has two CPUs).  Both
send open-loop schedules and time each request from when it was due.

* ``serve-hot``: the server is warmed with the 12 standard requests at
  ``jobs.HOT_SCALE`` (those responses are checked but not timed), then a
  fixed open-loop schedule (:func:`hot_schedule`) cycles over them at
  :data:`RATE` requests per second.  Every measured response must come from the cache and carry the
  same bytes as the checked warm-up response.  Engines stay idle, so this
  isolates the hit path: HTTP, request decode, cache key,
  ``ResultCache.peek``, result decode/encode and digests.
* ``serve-zipf``: a fresh server with an empty cache gets a fixed, seeded
  open-loop schedule (:func:`zipf_schedule`).  Keys are introduced one at
  a time, with one request right behind it that coalesces onto its
  execution, or two at a time, due together, so the server batches them
  into one ``run_batch`` call.  A key's later requests (Zipf-distributed,
  sent once the executions have had :data:`QUIET_S` to themselves) are
  hits, so the mix of sources and batch sizes repeats from seed to seed.
  Requests are timed from when they were due.
"""

from __future__ import annotations

import http.client
import json
import math
import queue
import random
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import common
import digests
import jobs
import layers
from common import BenchError, Metric, Report

#: Both serve workloads send on two connections at this many requests per
#: second: the server is busy a fifth to a third of the time.
CONNECTIONS = 2
RATE = 40.0
ZIPF_EXPONENT = 1.0
#: Keys are introduced over the first 80% of the schedule.
INTRO_SPAN = 0.8
#: No hits are sent for this long after an introduction, so its executions
#: (0.06-0.16 s each, a pair runs one after the other) run alone.  A hit
#: that overlaps an execution waits for the interpreter lock the engine
#: holds; mixing those into the hit percentiles would put p90 on the edge
#: between the two populations.
QUIET_S = 0.6
HTTP_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# the server under test
# ---------------------------------------------------------------------------
@dataclass
class Response:
    status: int
    source: str
    body: bytes


class Server:
    """One ``repro serve --port 0`` process with a private cache."""

    def __init__(self, env: dict, private: Path) -> None:
        self.stderr = open(private / f"serve-{time.monotonic_ns()}.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [common.python(), "-m", "repro", "serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=self.stderr, env=env, text=True,
            cwd=str(common.ROOT),
        )
        try:
            line = common.read_line(self.proc, 60)
            if "listening on http://" not in line:
                raise BenchError(f"repro serve did not start: {line!r}")
            host_port = line.rsplit("http://", 1)[1].strip()
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            status, _ = self.get("/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp, resp.read()
        finally:
            conn.close()

    def get(self, path: str) -> tuple[int, dict]:
        resp, data = self._request("GET", path)
        return resp.status, json.loads(data) if resp.status == 200 else {}

    def simulate(self, payload: bytes) -> Response:
        resp, data = self._request("POST", "/simulate", payload)
        return Response(resp.status, resp.getheader("X-Repro-Source", ""), data)

    def rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        return common.cpu_seconds(self.proc.pid)

    def stop(self) -> None:
        """Graceful drain via ``POST /shutdown``; killed if it hangs."""
        try:
            self._request("POST", "/shutdown")
            self.proc.communicate(timeout=60)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.stderr.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self.stderr.close()


def _cold_starts(env: dict, private: Path, n: int) -> list:
    """Seconds to ready of ``n`` servers, each stopped once ready."""
    ready = []
    for _ in range(n):
        server = Server(env, private)
        server.stop()
        ready.append(server.ready_s)
    return ready


def _payload(benchmark: str, scheduler: str, scale: float) -> bytes:
    request = jobs.request(benchmark, scheduler, scale, "reference")
    return json.dumps(request.to_dict()).encode()


class BodyChecker:
    """Checks response bodies against pinned digests, once per distinct body."""

    def __init__(self, verifier: digests.Verifier) -> None:
        self.verifier = verifier
        self.good: dict = {}

    def sim_totals(self) -> dict:
        """``sim.*`` over the checked result of every case served."""
        from repro.gpu.gpu import SimulationResult

        return jobs.sim_totals([jobs.sim_counts(SimulationResult.from_dict(json.loads(body)))
                                for body in self.good.values()])

    def check(self, case: str, response: Response, want_source: Optional[str] = None) -> bool:
        if response.status != 200:
            self.verifier.fail("serve", case, f"HTTP {response.status}")
            return False
        if want_source is not None and response.source != want_source:
            self.verifier.fail("serve", case, f"source {response.source!r}, not {want_source!r}")
            return False
        if self.good.get(case) == response.body:
            self.verifier.ok()
            return True
        digest = digests.result_digest(json.loads(response.body))
        if self.verifier.check("serve", case, digest):
            self.good[case] = response.body
            return True
        return False


# ---------------------------------------------------------------------------
# the open-loop generator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Slot:
    due: float
    case: str
    expect: str  # "executed", "coalesced" or "cache" -- what the schedule intends


@dataclass
class Sent:
    slot: Slot
    sent: float
    done: float
    response: Optional[Response]


def open_loop(schedule: list, send, connections: int = CONNECTIONS) -> list:
    """Send ``schedule`` on time from ``connections`` threads.

    The generator thread hands each slot to the connection threads at its
    due time; a slot waits in the hand-off queue when every connection is
    busy.  Returns one :class:`Sent` per slot with times relative to the
    schedule's start: latency is ``done - due`` and lateness ``sent - due``.
    """
    handoff: queue.Queue = queue.Queue()
    out: list = []
    lock = threading.Lock()
    start = time.perf_counter()

    def connection() -> None:
        while True:
            slot = handoff.get()
            if slot is None:
                return
            sent = time.perf_counter() - start
            try:
                response = send(slot)
            except (OSError, http.client.HTTPException):
                response = None
            done = time.perf_counter() - start
            with lock:
                out.append(Sent(slot, sent, done, response))

    threads = [threading.Thread(target=connection) for _ in range(connections)]
    for t in threads:
        t.start()
    try:
        for slot in schedule:
            wait = slot.due - (time.perf_counter() - start)
            if wait > 0:
                time.sleep(wait)
            handoff.put(slot)
    finally:
        for _ in threads:
            handoff.put(None)
        for t in threads:
            t.join()
    return sorted(out, key=lambda s: s.slot.due)


def lateness(sent: list) -> list:
    """Seconds each request was sent after it was due (never negative)."""
    return [max(0.0, s.sent - s.slot.due) for s in sent]


def send_checked(server: Server, schedule: list, payloads: dict, checker: BodyChecker,
                 want_source: Optional[str] = None, tracer=None) -> dict:
    """Run ``schedule`` against ``server`` and check every response.

    Returns the server's CPU seconds over the schedule, the :class:`Sent`
    rows and one ``(case, source, latency)`` per request, where a failed
    request has source ``None`` and an infinite latency.
    """

    def send(slot: Slot) -> Response:
        if tracer is None:
            return server.simulate(payloads[slot.case])
        with tracer.span("client.request", case=slot.case):
            return server.simulate(payloads[slot.case])

    cpu = server.cpu_s()
    sent = open_loop(schedule, send)
    cpu = server.cpu_s() - cpu
    answers = []
    for s in sent:
        if s.response is None:
            checker.verifier.fail("serve", s.slot.case, "connection failed")
            answers.append((s.slot.case, None, math.inf))
        elif checker.check(s.slot.case, s.response, want_source):
            answers.append((s.slot.case, s.response.source, s.done - s.slot.due))
        else:
            answers.append((s.slot.case, None, math.inf))
    return {"cpu": cpu, "sent": sent, "answers": answers}


def _latencies(run: dict) -> list:
    return [latency for _, _, latency in run["answers"]]


def _engine_replay(cases: list, private: Path, verifier: digests.Verifier) -> tuple:
    """The jobs a server executed, replayed in process for the engine layers.

    ``cases`` are ``[(case id, request)]``.  One spanned and one profiled
    ``run_jobs(workers=1)`` pass (see :mod:`layers`), each result checked;
    returns the engine metrics, the extra numbers (less the ``run_jobs``
    overhead, which serve does not pay) and the spanned pass.
    """
    spanned = layers.traced_part("spans", cases, private / "replay-spans")
    profiled = layers.traced_part("profile", cases, private / "replay-profile")
    for row in spanned["results"] + profiled["results"]:
        verifier.check("reference", row["case"], row["digest"])
    metrics, extras = layers.engine_metrics([spanned], [profiled])
    extras.pop("harness.parallel.overhead_s")
    return metrics, extras, spanned


# ---------------------------------------------------------------------------
# serve-hot
# ---------------------------------------------------------------------------
def hot_schedule(seed: int, seconds: float, cases: list) -> list:
    """``serve-hot``'s open-loop schedule: every case in turn, evenly spaced.

    Slots are :data:`RATE` per second; the seed orders the cases.
    """
    order = sorted(cases)
    random.Random(f"serve-hot:{seed}:loop").shuffle(order)
    return [Slot(i / RATE, order[i % len(order)], "cache") for i in range(int(seconds * RATE))]


def _traced_hot(server: Server, private: Path, payloads: dict, seed: int, seconds: float,
                checker: BodyChecker) -> tuple[dict, list, Path]:
    """Per-layer metrics, extra lines and trace file of traced ``serve-hot``.

    Half the schedule runs plain, half with a span around each request; the
    hit path is replayed against the server's cache and the 12 warm-up jobs
    are replayed for the engine layers.
    """
    from spans import Tracer

    tracer = Tracer()
    plain = send_checked(server, hot_schedule(seed, seconds / 2, list(payloads)), payloads,
                         checker, "cache")
    traced = send_checked(server, hot_schedule(seed, seconds / 2, list(payloads)), payloads,
                          checker, "cache", tracer)
    plain_p50 = common.median(_latencies(plain))
    traced_p50 = common.median(_latencies(traced))
    metrics = layers.replay_hit_path(private, sorted(payloads.items()), tracer)
    cases = [(jobs.case_id(*c), jobs.request(*c, "reference"))
             for c in jobs.standard_cases(jobs.HOT_SCALE)]
    engine, extras, _ = _engine_replay(cases, private, checker.verifier)
    metrics.update(engine)
    metrics["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1) * 100
    metrics.update(checker.sim_totals())
    # What the client saw of a hit beyond the in-process hit path: HTTP,
    # sockets, the event loop and the client itself.
    extras["serve.transport_ms"] = traced_p50 * 1000 - metrics["hit_path_ms"]
    path = common.TRACE_DIR / f"serve-hot-seed{seed}.json"
    tracer.write(path, {"workload": "serve-hot", "seed": seed, "extras": extras})
    return metrics, [common.extra_line(k, v) for k, v in sorted(extras.items())], path


def run_hot(seed: int, seconds: float, trace: bool) -> Report:
    verifier = digests.Verifier(digests.load_pins())
    checker = BodyChecker(verifier)
    payloads = {jobs.case_id(*c): _payload(*c) for c in jobs.standard_cases(jobs.HOT_SCALE)}
    warm = sorted(payloads)
    random.Random(f"serve-hot:{seed}").shuffle(warm)
    with common.PrivateDir() as private:
        env = common.isolated_env(private)
        ready = [] if trace else _cold_starts(env, private, 1 + common.SETUP_STARTS // 2)[1:]
        server = Server(env, private)
        try:
            for case in warm:
                checker.check(case, server.simulate(payloads[case]), "executed")
            for case in warm:
                checker.check(case, server.simulate(payloads[case]), "cache")
            if trace:
                metrics, notes, path = _traced_hot(server, private, payloads, seed, seconds,
                                                   checker)
                return Report({k: Metric(v, "traced run") for k, v in metrics.items()},
                              verifier, notes, path)
            run = send_checked(server, hot_schedule(seed, seconds, list(payloads)), payloads,
                               checker, "cache")
            rss = server.rss_mb()
        finally:
            server.stop()
        ready += _cold_starts(env, private, common.SETUP_STARTS // 2)
    latencies, sent = _latencies(run), run["sent"]
    metrics = {
        "setup_s": common.setup_metric(ready),
        "peak_rss_mb": Metric(rss, "serve process"),
        "cpu_ms_per_op": Metric(run["cpu"] / len(sent) * 1000,
                                f"server CPU {run['cpu']:.2f} s / {len(sent)} hits"),
        "latency_p50_ms": common.percentile_metric(latencies, 50, "hits"),
    }
    p90 = common.percentile_metric(latencies, 90, "hits")
    late = common.percentile(lateness(sent), 90)
    notes = [f"open loop, {RATE:g} hits/s on {CONNECTIONS} connections",
             common.extra_line("latency_p90_ms", p90.value, p90.samples),
             common.extra_line("client.late_ms_p90", late.value * 1000,
                               f"p90 of {late.samples} requests")]
    return Report(metrics, verifier, notes)


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------
def zipf_schedule(seed: int, seconds: float, cases: list) -> list:
    """The fixed open-loop schedule of ``serve-zipf``.

    Slots are evenly spaced at :data:`RATE` per second.  The cases,
    in sorted order, make the introductions: two of one case each, whose
    next slot repeats it (that request coalesces onto the execution), then
    one of two cases due at the same time (the server batches them), and
    so on.  Two connections carry either shape.  Which cases come alone
    and which in pairs is the same for every seed, so the requests an
    engine answers are too.  Both jobs of a batch are answered when the
    second finishes; with twice as many single introductions as pairs,
    the median of the engine-answered latencies lies among the single
    runs, away from the slower batches.  The seed orders the
    introductions, spread evenly over the first :data:`INTRO_SPAN` of the
    schedule, and ranks the cases' popularity.  The slots of the next
    :data:`QUIET_S` stay empty while the engine runs; every other slot
    goes to an introduced case, drawn with Zipf weights
    ``1 / (rank + 1) ** ZIPF_EXPONENT``.
    """
    rng = random.Random(f"serve-zipf:{seed}")
    ordered = sorted(cases)
    events, k = [], 0
    while k < len(ordered):
        size = 2 if len(events) % 3 == 2 else 1
        events.append(ordered[k:k + size])
        k += size
    rng.shuffle(events)
    ranked = list(cases)
    rng.shuffle(ranked)
    weight = {case: 1.0 / (rank + 1) ** ZIPF_EXPONENT for rank, case in enumerate(ranked)}
    n = int(seconds * RATE)
    intro = {int(e * n * INTRO_SPAN / len(events)): event for e, event in enumerate(events)}
    slots = []
    introduced: list = []
    follower, quiet_until = None, 0.0
    for i in range(n):
        due = i / RATE
        if i in intro:
            event = intro[i]
            introduced += event
            slots += [Slot(due, case, "executed") for case in event]
            follower = event[0] if len(event) == 1 else None
            quiet_until = due + QUIET_S
        elif follower is not None:
            slots.append(Slot(due, follower, "coalesced"))
            follower = None
        elif due >= quiet_until and introduced:
            case = rng.choices(introduced, weights=[weight[c] for c in introduced])[0]
            slots.append(Slot(due, case, "cache"))
    return slots


def _zipf_once(env: dict, private: Path, seed: int, seconds: float, checker: BodyChecker,
               payloads: dict, tracer=None) -> dict:
    server = Server(env, private)
    try:
        run = send_checked(server, zipf_schedule(seed, seconds, sorted(payloads)), payloads,
                           checker, tracer=tracer)
        _, run["stats"] = server.get("/stats")
        run["rss"] = server.rss_mb()
    finally:
        server.stop()
    run["sources"] = {}
    for _, source, _ in run["answers"]:
        if source is not None:
            run["sources"][source] = run["sources"].get(source, 0) + 1
    run["engine_waits"] = [a for a in run["answers"] if a[1] in ("executed", "coalesced")]
    return run


def _traced_zipf(private: Path, seed: int, seconds: float, checker: BodyChecker,
                 payloads: dict) -> tuple[dict, list, Path]:
    """Per-layer metrics, extra lines and trace file of traced ``serve-zipf``.

    The schedule runs twice, on two fresh servers: plain, then with a span
    around each request.  The executed jobs are replayed in process for the
    engine layers; a request an engine answered waited its latency minus
    its job's replayed run time (the queue wait).
    """
    from spans import Tracer

    tracer = Tracer()
    plain_dir, traced_dir = private / "plain", private / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = _zipf_once(common.isolated_env(plain_dir), plain_dir, seed, seconds, checker, payloads)
    run = _zipf_once(common.isolated_env(traced_dir), traced_dir, seed, seconds, checker,
                     payloads, tracer)
    metrics = layers.replay_hit_path(traced_dir, sorted(payloads.items()), tracer)
    cases = [(jobs.case_id(*c), jobs.request(*c, "reference")) for c in jobs.zipf_cases()]
    engine, extras, spanned = _engine_replay(cases, private, checker.verifier)
    metrics.update(engine)
    metrics["trace.overhead_pct"] = (common.median(_latencies(run))
                                     / common.median(_latencies(plain)) - 1) * 100
    metrics.update(checker.sim_totals())
    run_s = dict(zip((case for case, _ in cases), spanned["job_s"]))
    stats = run["stats"]
    requests = max(1, stats.get("requests", 0))
    extras.update({
        "serve.queue_wait_ms_p50": common.median(
            [latency - run_s[case] for case, _, latency in run["engine_waits"]]) * 1000,
        "serve.batch_size_mean": stats.get("executed", 0) / max(1, stats.get("batches", 0)),
        "serve.hit_share": stats.get("hits", 0) / requests,
        "serve.coalesced_share": stats.get("coalesced", 0) / requests,
        "serve.executed": stats.get("executed", 0),
        "client.late_ms_p90": common.percentile(lateness(run["sent"]), 90).value * 1000,
    })
    path = common.TRACE_DIR / f"serve-zipf-seed{seed}.json"
    tracer.write(path, {"workload": "serve-zipf", "seed": seed, "stats": stats,
                        "extras": extras})
    return metrics, [common.extra_line(k, v) for k, v in sorted(extras.items())], path


def run_zipf(seed: int, seconds: float, trace: bool) -> Report:
    verifier = digests.Verifier(digests.load_pins())
    checker = BodyChecker(verifier)
    payloads = {jobs.case_id(*c): _payload(*c) for c in jobs.zipf_cases()}
    with common.PrivateDir() as private:
        if trace:
            metrics, notes, path = _traced_zipf(private, seed, seconds, checker, payloads)
            return Report({k: Metric(v, "traced run") for k, v in metrics.items()},
                          verifier, notes, path)
        env = common.isolated_env(private)
        ready = _cold_starts(env, private, 1 + common.SETUP_STARTS // 2)[1:]
        run = _zipf_once(env, private, seed, seconds, checker, payloads)
        ready += _cold_starts(env, private, common.SETUP_STARTS // 2)
    sent = run["sent"]
    metrics = {
        "setup_s": common.setup_metric(ready),
        "peak_rss_mb": Metric(run["rss"], "serve process"),
        "cpu_ms_per_op": Metric(run["cpu"] / len(sent) * 1000,
                                f"server CPU {run['cpu']:.2f} s / {len(sent)} requests"),
        "latency_p50_ms": common.percentile_metric(_latencies(run), 50, "requests"),
    }
    miss = common.percentile_metric([lat for _, _, lat in run["engine_waits"]], 50,
                                    "executed or coalesced requests")
    late = common.percentile(lateness(sent), 90)
    notes = [f"sources {run['sources']}",
             common.extra_line("miss_latency_p50_ms", miss.value, miss.samples),
             common.extra_line("client.late_ms_p90", late.value * 1000,
                               f"p90 of {late.samples} requests")]
    return Report(metrics, verifier, notes)
