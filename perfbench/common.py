"""Shared pieces: statistics, the report header, memory and metric output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

#: Percentiles a ``.tail`` may take, highest first.  The tail is the
#: highest of these with at least ``TAIL_BEYOND`` samples above it, so a
#: run's tail is never one request's time.  It stops at p90: on this host
#: a p95 over the 320 serve-mix requests swung by 0.24–0.27 of its median
#: between runs, too close to the largest bound a metric may have.
TAIL_TIERS = (90, 75)
TAIL_BEYOND = 10

#: First-answer limit behind ``slo_ok_ratio`` per workload, in seconds
#: (serve-mix counts from when a request was due).  Each is about twice
#: the workload's p90 first answer measured here, so the ratio drops
#: when latency regresses rather than only on a several-fold slowdown.
#: Also recorded in BENCHMARK.json's workload notes.
SLO_FIRST_ANSWER_S = {"cold-start": 0.25, "serve-mix": 0.1}


#: Every workload reports every one of these with ``--trace 0``.
END_TO_END = (
    "setup_s", "ok_ratio", "peak_rss_mb",
    "first_answer_s.p50", "first_answer_s.tail",
    "delay_s.p50", "delay_s.tail",
    "request_s.p50", "request_s.tail",
    "answers_per_s", "slo_ok_ratio",
)

#: ``--trace 1`` reports all of these; a layer a workload never enters
#: reads 0 there (the library layers run inside the server process on
#: ``serve-mix``, the service layers do not exist in the library runs).
PER_LAYER = (
    "separators.minimal_separators_s", "pmc.potential_maximal_cliques_s",
    "core.context.build_s", "preprocess.plan_s", "preprocess.compose_s",
    "core.mintriang.base_dp_s", "engine.expand_s", "api.stream.step_s",
    "api.session.overhead_s", "trace.unexplained_s", "trace.request_s",
    "trace.overhead_s", "api.stream.first_pop_s",
    "api.stream.first_pop_share", "api.stream.next_s.p50",
    "api.stream.next_s.tail",
    "separators.count", "pmc.count", "core.context.blocks",
    "preprocess.atoms", "api.stream.expansions",
    "api.stream.answers_per_expansion", "answers.count",
    "cache.answers.hit_ratio", "cache.answers.hits",
    "service.scheduler.answers_served", "service.scheduler.slice_s.p50",
    "gateway.overhead_s.p50", "gateway.overhead_s.tail",
    "service.workers.respawns", "loadgen.lag_s.max",
    "gateway.request_s.p50", "service.tcp.request_s.p50",
    "serve.cold_first_request_s", "serve.fresh.first_answer_s.p50",
    "serve.popular.first_answer_s.p50", "serve.resume.first_answer_s.p50",
)

#: Units of the per-layer metrics that are not seconds.
PER_LAYER_UNITS = {
    name: ("count" if name.endswith((".count", ".blocks", ".atoms",
                                     ".expansions", ".hits", "_served",
                                     ".respawns"))
           else "ratio" if name.endswith(("_share", "_ratio",
                                          "_per_expansion"))
           else "s")
    for name in PER_LAYER
}


def tail_tier(n: int) -> int | None:
    for tier in TAIL_TIERS:
        if n * (100 - tier) / 100 >= TAIL_BEYOND:
            return tier
    return None


def percentile(values: list[float], tier: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(tier / 100 * len(ordered)))
    return ordered[rank - 1]


class Report:
    """Collects metrics for the result line and notes for the log lines."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def note(self, text: str) -> None:
        self.notes.append(text)

    def dist(self, name: str, values: list[float], unit: str = "s") -> None:
        """``name.p50`` and ``name.tail`` of ``values``."""
        n = len(values)
        tier = tail_tier(n)
        if tier is None:
            raise RuntimeError(f"{name}: {n} samples are too few for a tail")
        self.put(f"{name}.p50", statistics.median(values), unit)
        self.put(f"{name}.tail", percentile(values, tier), unit)
        self.note(f"{name}: n={n} tail=p{tier}")


def write_spans(workload: str, seed: int, spans: list) -> Path:
    """Write a traced run's spans, kept in memory until now, as JSON lines
    ``[name, start, end, parent index, request id, ok]``."""
    out = Path.cwd() / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def scrubbed_env() -> dict[str, str]:
    """This process's environment without any ``REPRO_*`` setting.

    The workloads measure the defaults users get; in particular
    ``REPRO_CACHE_DIR`` must not turn a live run into a cache replay.
    """
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and all its descendants."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        parents[int(entry.name)] = int(fields[1])
    tree = {pid}
    grew = True
    while grew:
        grew = False
        for child, parent in parents.items():
            if parent in tree and child not in tree:
                tree.add(child)
                grew = True
    total_kb = 0
    for member in tree:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def header(root: Path) -> list[str]:
    """Report header: cores, interpreter, kernel, source revision, LOC."""
    from repro.graphs.kernels import resolve_kernel

    src = root / "src"
    files = sorted(src.rglob("*.py"))
    loc = 0
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        loc += data.count(b"\n")
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
    # The ceiling keeps git from searching above the checkout, which need
    # not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, env=env,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    return [
        f"nproc: {os.cpu_count()}",
        f"python: {platform.python_version()} ({sys.implementation.name})",
        f"kernel auto -> {resolve_kernel('auto').name}",
        f"git sha: {sha}",
        f"src sha256: {digest.hexdigest()[:16]}",
        f"src loc: {loc} lines in {len(files)} files",
    ]
