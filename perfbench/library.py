"""The in-process workload: ``cold-start``.

It runs whole *passes* over a fixed pool of graphs, each through a fresh
``Session`` for its first answers, in an order drawn from the seed, until
``--seconds`` have passed and at least a minimum number of passes are
done.  Every pass holds the same requests, and every count a pass
produces must repeat exactly in the next pass and in every run.

The time metrics are taken per graph as its second-slowest time over the
run's passes, then summarised over the pool.  The host spends most of
its time in a slow phase, broken by fast phases of a few seconds at
irregular intervals (see NOTES.md, "Host noise"), so a pooled percentile
or a graph's best time moves with how much of a run fell into fast
phases; a graph's second-slowest time over a dozen passes spread across
the run is its time in the slow phase, which every run catches, without
the one slowest pass, which may be a one-off stall.  A change to the
program moves it as it moves every other time.  ``slo_ok_ratio`` counts
every request as made.

Traced runs (``--trace 1``) make every request twice in a row, once with
the layer spans of :mod:`tracing` installed and once without, taking
turns which goes first.  The per-layer times come from the traced copy;
the difference between the two copies is the tracing overhead.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from common import SLO_FIRST_ANSWER_S, Report, peak_rss_mb, write_spans
from corpus import build_graph, load, result_digest, seeded_order
from tracing import Tracer

now = time.perf_counter

COLD_K = 5
#: Passes at least, untraced / traced.  A 40 s untraced run makes 9-13.
MIN_PASSES = (3, 2)


@dataclass
class Request:
    name: str
    graph: object
    cost: str
    k: int
    expected: list[str]


@dataclass
class Record:
    request: Request
    started: float
    first_s: float = 0.0
    total_s: float = 0.0
    delays: list[float] = field(default_factory=list)
    answers: int = 0
    expansions: int = 0
    ok: bool = False


def execute(request: Request, tracer: Tracer | None) -> Record:
    """One request: a fresh session, ``k`` answers, checked."""
    from repro.api import Session

    record = Record(request, now())
    span = tracer.open("bench.request") if tracer else None
    try:
        with Session() as session:
            results, stamps, expansions = _consume(session, request)
    finally:
        if tracer:
            tracer.close(span)
    end = now()
    record.total_s = end - record.started
    if stamps:
        record.first_s = stamps[0] - record.started
        record.delays = [b - a for a, b in zip(stamps, stamps[1:])]
    record.answers = len(results)
    record.expansions = expansions
    record.ok = [result_digest(r) for r in results] == request.expected
    return record


def _consume(session, request: Request):
    stream = session.stream(request.graph, request.cost)
    results, stamps = [], []
    try:
        for result in stream:
            stamps.append(now())
            results.append(result)
            if len(results) == request.k:
                break
    finally:
        expansions = stream.expansions
        stream.close()
    return results, stamps, expansions


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def cold_start_setup():
    """The graph pool, plus one throwaway request so lazy imports and
    the kernel probe are paid here rather than by the first graph."""
    from repro.api import Session
    from repro.graphs.generators import connected_erdos_renyi

    requests = [
        Request(entry["name"], build_graph(entry), "width", COLD_K,
                entry["digests"]["width"][:COLD_K])
        for entry in load()["cold_start"]
    ]
    with Session() as session:
        for cost in ("width", "fill"):
            stream = session.stream(connected_erdos_renyi(9, 0.4, seed=1), cost)
            list(zip(range(3), stream))
            stream.close()
    return requests


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Report, int, int]:
    report = Report()
    setup_times: list[float] = []
    requests: list[Request] = []
    min_passes = MIN_PASSES[1 if trace else 0]
    tracer = Tracer() if trace else None
    passes: list[list[Record]] = []
    traced: list[Record] = []
    pass_counts: list[dict] = []
    started = now()
    while len(passes) < min_passes or now() - started < seconds:
        # Each pass starts from its own set-up, so the set-ups are spread
        # over the run like the requests and reduced the same way.  They
        # all build the same pool; one is kept, so memory does not grow
        # with the number of passes.
        setup_started = now()
        pool = cold_start_setup()
        setup_times.append(now() - setup_started)
        requests = requests or pool
        order = seeded_order(requests, seed, f"{workload}:{len(passes)}")
        records = []
        before = dict(tracer.counts) if tracer else {}
        for i, request in enumerate(order):
            if not trace:
                records.append(execute(request, None))
                continue
            plain_first = (i + len(passes)) % 2 == 0
            if plain_first:
                records.append(execute(request, None))
            tracer.request_id = len(traced)
            tracer.install()
            try:
                traced.append(execute(request, tracer))
            finally:
                tracer.uninstall()
            if not plain_first:
                records.append(execute(request, None))
        passes.append(records)
        if tracer:
            pass_counts.append({
                key: tracer.counts[key] - before.get(key, 0)
                for key in tracer.counts
            })
        else:
            pass_counts.append({
                "answers": sum(r.answers for r in records),
                "expansions": sum(r.expansions for r in records),
            })
    wall = now() - started

    records = [r for p in passes for r in p]
    checked = records + traced
    attempted = len(checked)
    failed = sum(not r.ok for r in checked)
    report.note(f"passes: {len(passes)} in {wall:.3f} s, requests: {len(records)}")
    report.note("setup_s per pass: "
                + ", ".join(f"{t:.4f}" for t in setup_times))
    deterministic = all(c == pass_counts[0] for c in pass_counts)
    report.note(
        f"counts per pass: {pass_counts[0]}"
        + ("" if deterministic else f" NONDETERMINISTIC: {pass_counts}")
    )
    if not deterministic:
        failed = attempted

    per_pass = len(requests)
    if trace:
        _per_layer(report, tracer, traced, records, pass_counts[0], per_pass)
        path = write_spans(workload, seed, tracer.spans)
        report.note(f"spans: {len(tracer.spans)} written to {path.name}")
    else:
        # The first set-up also pays the interpreter's lazy imports.
        report.put("setup_s", second_slowest(setup_times[1:]), "s")
        report.put("ok_ratio", (attempted - failed) / attempted, "ratio")
        report.put("peak_rss_mb", peak_rss_mb(), "MB")
        level = slow_level(passes)
        report.dist("first_answer_s", [r.first_s for r in level])
        report.dist("request_s", [r.total_s for r in level])
        report.dist("delay_s", [d for r in level for d in r.delays])
        report.put("answers_per_s", sum(r.answers for r in level)
                   / sum(r.total_s for r in level), "1/s")
        report.put(
            "slo_ok_ratio",
            sum(r.ok and r.first_s <= SLO_FIRST_ANSWER_S[workload]
                for r in records)
            / len(records),
            "ratio",
        )
    return report, attempted, failed


def second_slowest(values) -> float:
    return sorted(values)[-2]


def slow_level(passes: list[list[Record]]) -> list[Record]:
    """Per request: the second-slowest first-answer time, request time and
    delay before each answer over the run's passes."""
    by_name: dict[str, list[Record]] = {}
    for records in passes:
        for record in records:
            by_name.setdefault(record.request.name, []).append(record)
    return [
        Record(
            same[0].request, 0.0,
            first_s=second_slowest(r.first_s for r in same),
            total_s=second_slowest(r.total_s for r in same),
            delays=[second_slowest(gaps)
                    for gaps in zip(*(r.delays for r in same))],
            answers=same[0].answers,
        )
        for same in by_name.values()
    ]


def _per_layer(report: Report, tracer: Tracer, traced: list[Record],
               plain: list[Record], counts: dict, per_pass: int) -> None:
    """Per-layer self times as means per request, counts per pass."""
    n = len(traced)
    selfs = tracer.self_times()

    def mean_self(*names: str) -> float:
        return sum(selfs.get(name, 0.0) for name in names) / n

    layers = {
        "separators.minimal_separators_s":
            mean_self("separators.minimal_separators"),
        "pmc.potential_maximal_cliques_s":
            mean_self("pmc.potential_maximal_cliques"),
        "core.context.build_s": mean_self("core.context.build"),
        "preprocess.plan_s": mean_self("preprocess.plan"),
        "preprocess.compose_s": mean_self("preprocess.compose"),
        "core.mintriang.base_dp_s": mean_self("core.mintriang.base_dp"),
        "engine.expand_s": mean_self("engine.expand"),
        "api.stream.step_s":
            mean_self("api.stream.first_pop", "api.stream.next"),
        "api.session.overhead_s":
            mean_self("api.session.init", "api.session.stream"),
        "trace.unexplained_s": mean_self("bench.request"),
    }
    for name, value in layers.items():
        report.put(name, value, "s")
    traced_mean = statistics.fmean(r.total_s for r in traced)
    plain_mean = statistics.fmean(r.total_s for r in plain)
    report.put("trace.request_s", traced_mean, "s")
    report.put("trace.overhead_s", traced_mean - plain_mean, "s")

    first_pop = tracer.durations("api.stream.first_pop")
    first_pop_mean = sum(first_pop) / n
    first_answer_mean = statistics.fmean(r.first_s for r in traced)
    report.put("api.stream.first_pop_s", first_pop_mean, "s")
    report.put("api.stream.first_pop_share",
               first_pop_mean / first_answer_mean, "ratio")
    report.dist("api.stream.next_s", tracer.durations("api.stream.next"))

    report.put("separators.count", counts.get("separators", 0), "count")
    report.put("pmc.count", counts.get("pmcs", 0), "count")
    report.put("core.context.blocks", counts.get("blocks", 0), "count")
    report.put("preprocess.atoms", counts.get("atoms", 0), "count")
    report.put("api.stream.expansions", counts.get("expansions", 0), "count")
    answers = sum(r.answers for r in traced[:per_pass])
    report.put("answers.count", answers, "count")
    report.put(
        "api.stream.answers_per_expansion",
        answers / max(1, counts.get("expansions", 0)),
        "ratio",
    )

    report.note("per-request accounting (traced mean, seconds):")
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        report.note(f"  {name:36s} {value:.6f}  {value / traced_mean:6.1%}")
    report.note(
        f"  sum of layers + unexplained = {sum(layers.values()):.6f}; "
        f"traced {traced_mean:.6f}; untraced {plain_mean:.6f}; "
        f"overhead {traced_mean - plain_mean:+.6f} "
        f"({(traced_mean - plain_mean) / plain_mean:+.1%})"
    )
    report.note(
        f"first answer (traced mean) {first_answer_mean:.6f} s, of which "
        f"first pop {first_pop_mean:.6f} s ({first_pop_mean / first_answer_mean:.1%})"
    )
