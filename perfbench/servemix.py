"""The ``serve-mix`` workload: ``repro serve --http`` under open-loop load.

A run is ``ROUNDS`` rounds.  Each starts its own server process on the
default process backend with two worker seats and a fresh
``--cache-dir``, warms it (the timed set-up), and sends it the same
request plan over an equal share of ``--seconds``.  A single-process load
generator sends the plan's requests at seeded arrival times, at most two
in flight, and times each one from when it was *due*, so a stall also
charges the requests queued behind it.  The mix, fixed per block of ten
requests:

* 2 repeat ``top`` pages over a small popular pool, pre-warmed in set-up,
  so each is an answer-cache hit served without a worker seat;
* 4 ``top`` pages on graphs the server has never seen: a worker seat
  runs a cold initialisation and writes the prefix back;
* 4 token resumes, one of each earlier fresh page: a live continuation
  on the seat that holds the warm context (a popular page when no fresh
  page is old enough yet).

Every seed sends the same fresh graphs; the seed sets their order, the
arrival times, the popular picks and so which fresh pages get resumed.

The time metrics take each planned request's best time over the rounds.
The host spends most of its time in a slow phase broken by fast phases
of a few seconds; of the ways of reducing a request's five times tried
on the same runs (NOTES.md, "Host noise"), the best round varied least
from run to run.  A change to the program moves it as it moves every
other time.  ``slo_ok_ratio`` counts every request as made.

The rate keeps the server well under capacity even in the host's slow
phases.  After the timed phase every answer stream is compared byte for
byte with ``serialize_answers`` of a serial ``Session.stream``, and every
round's server counters with what the plan fixes.

The traced run (``--trace 1``) additionally sends the same plan over the
raw TCP protocol (``ServiceClient``) to one more fresh server, so the
HTTP gateway's cost can be read against raw TCP.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from common import (
    SLO_FIRST_ANSWER_S,
    Report,
    scrubbed_env,
    tree_peak_rss_mb,
    write_spans,
)
from corpus import build_graph, load, seeded_order

now = time.perf_counter

RATE_PER_S = 12.5
#: Kinds per block of ten.  A resume with no page old enough to resume
#: becomes a popular page, so a 100-request plan holds 26-30 popular,
#: 30-34 resume and 40 fresh requests: the median falls inside the
#: resume cluster and the p90 inside the fresh one, not on the edge
#: between two kinds, where a few samples would move them.
BLOCK = ("popular",) * 2 + ("fresh",) * 4 + ("resume",) * 4
K_PAGE = 8
COST = "fill"
WORKERS = 2
IN_FLIGHT = 2
#: A resume is sent no earlier than this long after the page it resumes
#: was due, so that page has finished in every run.
RESUME_AFTER_S = 1.0
#: Fresh servers per run, each sent the same plan over an equal share of
#: ``--seconds``; every time metric is a request's best over the rounds.
ROUNDS = 5
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --http`` process tree with its own cache dir."""

    def __init__(self, root: Path, tag: str) -> None:
        self.dir = root / ".perfbench_tmp" / f"{os.getpid()}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        env = scrubbed_env()
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(self.dir / "tmp")
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--http", "0", "--workers", str(WORKERS),
             "--cache-dir", str(self.dir / "cache")],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(lines,), daemon=True
        )
        self._reader.start()
        self.tcp = self.http = None
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.http is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("server did not come up") from None
            if line is None:
                self.stop()
                raise RuntimeError("server exited during start-up")
            found = re.search(r"listening on ([\d.]+):(\d+)", line)
            if found and "http" in line:
                self.http = (found.group(1), int(found.group(2)))
            elif found:
                self.tcp = (found.group(1), int(found.group(2)))

    def _drain(self, lines: queue.Queue) -> None:
        for raw in self.proc.stdout:
            lines.put(raw.decode("utf-8", "replace"))
        lines.put(None)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server's orderly stop), then kill what is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass
class Planned:
    index: int
    kind: str
    due: float
    graph_name: str
    offset: int  # rank of the first answer this page should carry
    ref: int | None = None  # the fresh page a resume continues


@dataclass
class Done:
    plan: Planned
    start: float = 0.0
    first: float | None = None
    end: float = 0.0
    stamps: list[float] = field(default_factory=list)
    lines: list[bytes] = field(default_factory=list)
    terminal: dict | None = None
    token: object = None
    error: str | None = None
    ok: bool = False


def schedule(seed: int, seconds: float, fresh_bank: list[str],
             popular: list[str]) -> list[Planned]:
    """Whole blocks of requests at ``RATE_PER_S`` over ``seconds``, gaps
    drawn uniformly between half and one and a half mean gaps, rescaled
    to end at ``seconds`` so every seed sends the same number.  (Poisson
    gaps made the queueing, and so the tails, depend on the seed's
    bursts.)  The fresh pages ask for the first graphs of the bank, so
    every seed sends the same fresh graphs, in its own order."""
    rng = random.Random(f"serve-mix:{seed}")
    blocks = max(1, round(RATE_PER_S * seconds / len(BLOCK)))
    count = blocks * len(BLOCK)
    needed = blocks * BLOCK.count("fresh")
    if needed > len(fresh_bank):
        raise RuntimeError("--seconds outruns the fresh-graph bank")
    fresh = iter(seeded_order(fresh_bank[:needed], seed, "serve-mix:fresh"))
    arrivals, due = [], 0.0
    for _ in range(count + 1):
        due += rng.uniform(0.5, 1.5) / RATE_PER_S
        arrivals.append(due)
    arrivals = [t * seconds / arrivals[-1] for t in arrivals[:-1]]
    plans: list[Planned] = []
    waiting: list[Planned] = []  # fresh pages not yet resumed
    kinds: list[str] = []
    for due in arrivals:
        if not kinds:
            kinds = list(BLOCK)
            rng.shuffle(kinds)
        kind = kinds.pop()
        index = len(plans)
        if kind == "resume" and waiting and waiting[0].due <= due - RESUME_AFTER_S:
            ref = waiting.pop(0)
            plans.append(Planned(index, kind, due, ref.graph_name, K_PAGE,
                                 ref.index))
            continue
        if kind == "fresh":
            plan = Planned(index, kind, due, next(fresh), 0)
            waiting.append(plan)
        else:
            # Popular, or a resume with nothing old enough to resume yet.
            plan = Planned(index, "popular", due, rng.choice(popular), 0)
        plans.append(plan)
    return plans


class HttpDriver:
    """Sends one planned request over the HTTP gateway (NDJSON)."""

    def __init__(self, address, graphs: dict) -> None:
        from repro.gateway.client import GatewayClient
        from repro.service.protocol import graph_to_wire

        self.client = GatewayClient(*address, timeout=120.0)
        self.wire = {name: graph_to_wire(g) for name, g in graphs.items()}

    def send(self, done: Done, token) -> None:
        from repro.gateway.client import GatewayError

        if token is None:
            body = {"op": "top", "graph": self.wire[done.plan.graph_name],
                    "cost": COST, "k": K_PAGE, "kernel": "auto"}
        else:
            body = {"op": "top", "token": token, "k": K_PAGE,
                    "kernel": "auto"}
        try:
            stream = self.client.submit(body)
        except GatewayError as exc:
            done.error = str(exc)
            return
        try:
            for event, line in stream:
                if event == "answer":
                    done.stamps.append(now())
                    done.lines.append(line)
        finally:
            stream.close()
        done.terminal = stream.terminal
        if stream.status != 200:
            done.error = f"HTTP {stream.status}"
        elif done.terminal is not None:
            done.token = done.terminal.get("checkpoint")


class TcpDriver:
    """Sends one planned request over the raw TCP protocol."""

    def __init__(self, address, graphs: dict) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(*address, timeout=120.0)
        self.graphs = graphs

    def send(self, done: Done, token) -> None:
        from repro.service.protocol import AnswerFrame, ServiceRequest

        if token is None:
            request = ServiceRequest(
                op="top", graph=self.graphs[done.plan.graph_name], cost=COST,
                k=K_PAGE, kernel="auto",
            )
        else:
            request = ServiceRequest(op="top", token=token, k=K_PAGE,
                                     kernel="auto")
        with self.client.open(request) as stream:
            for frame in stream:
                if isinstance(frame, AnswerFrame):
                    done.stamps.append(now())
                    done.lines.append(frame.raw)
        terminal = stream.terminal
        done.terminal = json.loads(terminal.raw) if terminal.raw else {}
        done.token = getattr(terminal, "checkpoint", None)


def drive(driver, plans: list[Planned]) -> list[Done]:
    """Open-loop: each request is handed to the pool when due."""
    results = [Done(plan) for plan in plans]
    finished = [threading.Event() for _ in plans]

    def one(done: Done, due_at: float) -> None:
        try:
            token = None
            if done.plan.ref is not None:
                source = results[done.plan.ref]
                finished[done.plan.ref].wait()
                token = source.token
                if token is None:
                    done.error = "no token to resume"
                    return
            done.start = now() - due_at
            driver.send(done, token)
        except Exception as exc:  # a failed request, counted below
            done.error = f"{type(exc).__name__}: {exc}"
        finally:
            done.end = now() - due_at
            done.stamps = [t - due_at for t in done.stamps]
            if done.stamps:
                done.first = done.stamps[0]
            finished[done.plan.index].set()

    origin = now() + 0.05
    with ThreadPoolExecutor(max_workers=IN_FLIGHT) as pool:
        futures = []
        for done in results:
            due_at = origin + done.plan.due
            pause = due_at - now()
            if pause > 0:
                time.sleep(pause)
            futures.append(pool.submit(one, done, due_at))
        for future in futures:
            future.result()
    return results


# ----------------------------------------------------------------------
# Set-up, metrics scrape, output check
# ----------------------------------------------------------------------
def warm(server: Server, popular: dict) -> dict:
    """Everything lazy, paid before timing: a seat ping, four cold jobs
    for the seats, and the popular pages in the answer cache."""
    from repro.gateway.client import GatewayClient
    from repro.graphs.generators import connected_erdos_renyi
    from repro.service.protocol import graph_to_wire

    client = GatewayClient(*server.http, timeout=120.0)
    if client.health().status != 200:
        raise RuntimeError("server health check failed")
    timings = {}
    for i in range(4):
        graph = connected_erdos_renyi(9, 0.4, seed=900 + i)
        started = now()
        stream = client.submit({"op": "top", "graph": graph_to_wire(graph),
                                "cost": COST, "k": 3, "kernel": "auto"})
        stream.collect()
        if i == 0:
            timings["cold_first_request_s"] = now() - started
    for rounds in range(2):
        for name, graph in popular.items():
            stream = client.submit({"op": "top", "graph": graph_to_wire(graph),
                                    "cost": COST, "k": K_PAGE,
                                    "kernel": "auto"}).collect()
            if rounds and stream.terminal.get("engine") != "cache":
                raise RuntimeError(f"popular page {name} is not cached")
    return timings


def scrape(server: Server) -> dict:
    from repro.gateway.client import GatewayClient

    text = GatewayClient(*server.http, timeout=60.0).metrics()
    out: dict = {"slice_buckets": {}}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        value = float(value)
        if name == "repro_answers_served_total":
            out["answers_served"] = value
        elif name == "repro_worker_respawns_total":
            out["respawns"] = value
        elif name.startswith('repro_disk_cache_hits_total{kind="answers"'):
            out["answer_hits"] = value
        elif name.startswith('repro_disk_cache_misses_total{kind="answers"'):
            out["answer_misses"] = value
        elif name.startswith("repro_slice_seconds_bucket"):
            bound = re.search(r'le="([^"]+)"', name).group(1)
            out["slice_buckets"][bound] = value
    return out


def histogram_p50(before: dict, after: dict) -> float:
    """Median of a cumulative histogram's delta, interpolated in bucket."""
    bounds = sorted(
        (float("inf") if b == "+Inf" else float(b), b) for b in after
    )
    deltas = [(v, after[b] - before.get(b, 0.0)) for v, b in bounds]
    total = deltas[-1][1]
    if total <= 0:
        return 0.0
    lower, below = 0.0, 0.0
    for upper, cumulative in deltas:
        if cumulative >= total / 2:
            if upper == float("inf"):
                return lower
            inside = cumulative - below
            share = (total / 2 - below) / inside if inside else 0.0
            return lower + share * (upper - lower)
        lower, below = upper, cumulative
    return lower


def check(results: list[Done], graphs: dict) -> None:
    """Mark each request ok when its answer bytes equal the serial ones."""
    from repro.api import Session
    from repro.service.protocol import serialize_answers

    expected: dict = {}
    with Session() as session:
        for done in results:
            plan = done.plan
            key = (plan.graph_name, plan.offset)
            if key not in expected:
                stream = session.stream(graphs[plan.graph_name], COST)
                expected[key] = serialize_answers(
                    islice(stream, plan.offset, plan.offset + K_PAGE)
                )
                stream.close()
            done.ok = (
                done.error is None
                and done.terminal is not None
                and done.terminal.get("type") == "stats"
                and done.lines == expected[key]
            )


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
@dataclass
class Round:
    """One fresh server: its set-up, the plan sent to it, its counters."""

    setup_s: float
    cold_first_s: float
    results: list[Done]
    before: dict
    after: dict
    rss_mb: float

    def counts(self) -> dict:
        def delta(key: str) -> float:
            return self.after.get(key, 0) - self.before.get(key, 0)

        return {
            "answers_served": delta("answers_served"),
            "answer_hits": delta("answer_hits"),
            "answer_misses": delta("answer_misses"),
            "respawns": delta("respawns"),
            "answers": sum(len(d.lines) for d in self.results if d.ok),
        }


def serve_round(root: Path, tag: str, popular: dict, plans: list[Planned],
                make_driver) -> Round:
    """Start and warm a server (the timed set-up), send ``plans``, stop."""
    started = now()
    server = Server(root, tag)
    try:
        timings = warm(server, popular)
        setup_s = now() - started
        before = scrape(server)
        results = drive(make_driver(server), plans)
        after = scrape(server)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return Round(setup_s, timings["cold_first_request_s"], results, before,
                 after, rss)


@dataclass
class Best:
    """One planned request's best times over the rounds."""

    plan: Planned
    first: float  # due time to answer 0
    end: float  # due time to the terminal frame
    service: float  # send to the terminal frame
    gap: float  # mean gap between its answers
    answers: int


def best_of_rounds(rounds: list[Round]) -> list[Best]:
    best = []
    for same in zip(*(r.results for r in rounds)):
        best.append(Best(
            same[0].plan,
            first=min(d.first if d.first is not None else d.end
                      for d in same),
            end=min(d.end for d in same),
            service=min(d.end - d.start for d in same),
            gap=min((d.stamps[-1] - d.stamps[0]) / (len(d.stamps) - 1)
                    if len(d.stamps) > 1 else d.end for d in same),
            answers=len(same[0].lines),
        ))
    return best


def run(workload: str, seed: int, seconds: float, trace: bool):
    root = Path.cwd()
    report = Report()
    data = load()
    popular = {e["name"]: build_graph(e) for e in data["serve_popular"]}
    fresh = {e["name"]: build_graph(e) for e in data["serve_fresh"]}
    graphs = {**popular, **fresh}
    plans = schedule(seed, seconds / ROUNDS,
                     sorted(fresh, key=lambda n: int(n.split("-")[1])),
                     sorted(popular))

    rounds = [
        serve_round(root, f"round{r}", popular, plans,
                    lambda server: HttpDriver(server.http, graphs))
        for r in range(ROUNDS)
    ]
    report.note("setup_s per round: "
                + ", ".join(f"{r.setup_s:.4f}" for r in rounds))
    tcp = None
    if trace:
        tcp = serve_round(root, "tcp", popular, plans,
                          lambda server: TcpDriver(server.tcp, graphs))

    results = [d for r in rounds for d in r.results]
    check(results + (tcp.results if tcp else []), graphs)
    attempted = len(results) + (len(tcp.results) if tcp else 0)
    failed = sum(not d.ok for d in results)
    if tcp is not None:
        failed += sum(not d.ok for d in tcp.results)
    kinds = {k: sum(p.kind == k for p in plans)
             for k in ("popular", "fresh", "resume")}
    report.note(f"requests: {ROUNDS} rounds of {len(plans)} {kinds} over "
                f"{seconds / ROUNDS:.3f} s; failed {failed}")
    for d in results:
        if not d.ok:
            report.note(f"  failed #{d.plan.index} {d.plan.kind}: "
                        f"{d.error or 'wrong bytes'}")
            break

    # The plan fixes these: each popular page is served from the answer
    # cache without a seat; it reads its prefix record once, and a resume
    # reads its page's record twice (the scheduler's probe, then the
    # seat's session).  A miss count depends on timing and is not checked.
    expected = {
        "answers_served": kinds["popular"],
        "answer_hits": kinds["popular"] + 2 * kinds["resume"],
        "respawns": 0,
        "answers": len(plans) * K_PAGE,
    }
    diverged = {}
    for i, r in enumerate(rounds + ([tcp] if tcp else [])):
        counts = r.counts()
        diverged.update({f"{key}@{i}": (counts[key], value)
                         for key, value in expected.items()
                         if counts[key] != value})
    counts = rounds[0].counts()
    report.note(f"counts per round: {counts}"
                + (f" NONDETERMINISTIC: {diverged}" if diverged else ""))
    if diverged:
        failed = attempted
    if trace:
        _per_layer(report, rounds, tcp, counts)
        spans = client_spans(results, "gateway.request")
        spans += client_spans(tcp.results, "service.tcp.request",
                              first_id=len(results))
        path = write_spans(workload, seed, spans)
        report.note(f"spans: {len(spans)} written to {path.name}")
        return report, attempted, failed

    best = best_of_rounds(rounds)
    report.put("setup_s", statistics.median(r.setup_s for r in rounds), "s")
    report.put("ok_ratio", (attempted - failed) / attempted, "ratio")
    report.put("peak_rss_mb", statistics.median(r.rss_mb for r in rounds),
               "MB")
    report.dist("first_answer_s", [b.first for b in best])
    report.dist("request_s", [b.end for b in best])
    # Live requests only: a cache hit's frames arrive together.  Per
    # request, as a live stream's frames also arrive in bursts.
    report.dist("delay_s", [b.gap for b in best if b.plan.kind != "popular"])
    report.put("answers_per_s", sum(b.answers for b in best)
               / sum(b.service for b in best), "1/s")
    limit = SLO_FIRST_ANSWER_S[workload]
    report.put("slo_ok_ratio", sum(
        d.ok and d.first is not None and d.first <= limit
        for d in results) / len(results), "ratio")
    return report, attempted, failed


def client_spans(results: list[Done], transport: str,
                 first_id: int = 0) -> list[list]:
    """The client's spans per request, on the clock of its due time:
    the whole request, the send itself, and the wait for answer 0."""
    spans: list[list] = []
    for i, d in enumerate(results):
        due = d.plan.due
        root = len(spans)
        request_id = first_id + i
        spans.append([f"loadgen.{d.plan.kind}", due, due + d.end, -1,
                      request_id, d.ok])
        spans.append([transport, due + d.start, due + d.end, root,
                      request_id, d.ok])
        if d.first is not None:
            spans.append(["first_answer", due + d.start, due + d.first,
                          root + 1, request_id, d.ok])
    return spans


def _per_layer(report, rounds: list[Round], tcp: Round, counts: dict) -> None:
    def p50(values):
        return statistics.median(values) if values else 0.0

    results = [d for r in rounds for d in r.results]
    hits, misses = counts["answer_hits"], counts["answer_misses"]
    report.put("cache.answers.hit_ratio",
               hits / (hits + misses) if hits + misses else 0.0, "ratio")
    report.put("cache.answers.hits", hits, "count")
    report.put("service.scheduler.answers_served", counts["answers_served"],
               "count")
    slices: dict = {}
    for r in rounds:
        for bound, value in r.after["slice_buckets"].items():
            slices[bound] = (slices.get(bound, 0.0) + value
                             - r.before["slice_buckets"].get(bound, 0.0))
    report.put("service.scheduler.slice_s.p50", histogram_p50({}, slices), "s")
    overheads = [
        (d.end - d.start) - d.terminal["elapsed_seconds"]
        for d in results if d.ok and "elapsed_seconds" in d.terminal
    ]
    report.dist("gateway.overhead_s", overheads)
    report.put("service.workers.respawns", counts["respawns"], "count")
    report.put("loadgen.lag_s.max", max(d.start for d in results), "s")
    report.put("answers.count", counts["answers"], "count")
    report.put("gateway.request_s.p50",
               p50([d.end - d.start for d in results if d.ok]), "s")
    report.put("service.tcp.request_s.p50",
               p50([d.end - d.start for d in tcp.results if d.ok]), "s")
    report.put("serve.cold_first_request_s",
               p50([r.cold_first_s for r in rounds]), "s")
    for kind in ("fresh", "popular", "resume"):
        report.put(
            f"serve.{kind}.first_answer_s.p50",
            p50([d.first for d in results
                 if d.ok and d.plan.kind == kind and d.first is not None]),
            "s",
        )
    for kind in ("fresh", "popular", "resume"):
        http = p50([d.end - d.start for d in results
                    if d.ok and d.plan.kind == kind])
        tcp_p50 = p50([d.end - d.start for d in tcp.results
                       if d.ok and d.plan.kind == kind])
        report.note(f"{kind}: request p50 http {http:.6f} s, "
                    f"tcp {tcp_p50:.6f} s")
