"""Regenerate ``data/corpus.json``: the benchmark's graphs and answer digests.

Run once from the repository root::

    python3 perfbench/record.py

It draws graphs from the repository's workload generators, relabels each
to vertices ``0..n-1`` and stores it as an edge list, so later changes to
the generators cannot change the benchmark's inputs.  It records the
digest of every answer the cold-start workload checks, computed with the
default session (``kernel="auto"``, preprocess on), and cross-checks each
digest once against the ``kernel="sets"`` reference kernel.  A mismatch
aborts without writing anything.

Cold-start graphs are kept when one cold five-answer request takes between
3 ms and 250 ms here; heavier graphs would leave too few requests per run
for stable percentiles.  The kept graphs' separator and PMC counts are
printed by the traced benchmark run.  Serve-mix fresh graphs are kept when
one cold eight-answer ``fill`` page takes 25–70 ms here, so that which of
them a seed draws moves the serve-mix tails as little as possible.
"""

from __future__ import annotations

import json
import random
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from corpus import DATA, answer_digest  # noqa: E402

COLD_K = 5
COLD_PER_FAMILY = 12
COLD_BAND_S = (0.003, 0.250)
SERVE_POPULAR = 6
SERVE_FRESH = 96
SERVE_PAGE = 8
SERVE_FRESH_BAND_S = (0.025, 0.070)


def relabel(graph) -> dict:
    from repro.api.fingerprint import canonical_edges, canonical_vertices

    index = {v: i for i, v in enumerate(canonical_vertices(graph))}
    edges = sorted(
        sorted((index[u], index[v])) for u, v in canonical_edges(graph)
    )
    return {"n": len(index), "edges": [list(e) for e in edges]}


def digests(graph, cost: str, k: int) -> list[str]:
    from repro.api import Session

    out = []
    for kernel in ("auto", "sets"):
        with Session(kernel=kernel) as session:
            stream = session.stream(graph, cost)
            got = [
                answer_digest(r.cost, r.triangulation.bags)
                for r in islice(stream, k)
            ]
            stream.close()
        out.append(got)
    if out[0] != out[1]:
        raise SystemExit(f"kernel mismatch on {cost}: auto != sets")
    return out[0]


def stored(name: str, graph) -> tuple[dict, object]:
    from corpus import build_graph

    entry = {"name": name, **relabel(graph)}
    return entry, build_graph(entry)


def cold_candidates(family: str, i: int):
    from repro.graphs.generators import (
        complete_bipartite_graph,
        connected_erdos_renyi,
        gnm_random,
        hypercube_graph,
        petersen_graph,
    )
    from repro.workloads import dbn_instances, promedas_instances
    from repro.workloads.pace import control_flow_graph

    rng = random.Random(f"{family}:{i}")
    if family == "dbn":
        return dbn_instances(count=1, seed=1000 + i)[0][1]
    if family == "promedas":
        return promedas_instances(count=1, seed=2000 + i)[0][1]
    if family == "csp":
        # The sparse random constraint graphs of ``csp_instances``.
        n = rng.randint(14, 22)
        return connected_erdos_renyi(
            n, rng.uniform(0.15, 0.3), seed=rng.randrange(10**6)
        )
    if family == "pace100":
        named = [petersen_graph(), hypercube_graph(3),
                 complete_bipartite_graph(4, 4)]
        if i < len(named):
            return named[i]
        if i % 2:
            return control_flow_graph(rng.randint(12, 20), seed=4000 + i)
        n = rng.randint(12, 16)
        return gnm_random(n, rng.randint(n + 4, 2 * n), seed=5000 + i)
    if family == "gnp":
        n = rng.randint(18, 24)
        return connected_erdos_renyi(n, 3.0 / n, seed=rng.randrange(10**6))
    raise ValueError(family)


def cold_request_seconds(graph) -> float:
    from repro.api import Session

    started = time.perf_counter()
    with Session() as session:
        stream = session.stream(graph, "width")
        list(islice(stream, COLD_K))
        stream.close()
    return time.perf_counter() - started


def cold_start_pool() -> list[dict]:
    out = []
    for family in ("dbn", "promedas", "csp", "pace100", "gnp"):
        kept = 0
        for i in range(200):
            entry, graph = stored(f"{family}-{i}", cold_candidates(family, i))
            seconds = cold_request_seconds(graph)
            if not COLD_BAND_S[0] <= seconds <= COLD_BAND_S[1]:
                continue
            entry["family"] = family
            entry["digests"] = {"width": digests(graph, "width", COLD_K)}
            out.append(entry)
            kept += 1
            if kept == COLD_PER_FAMILY:
                break
        print(family, "kept", kept, flush=True)
    return out


def serve_bank(prefix: str, count: int, salt: int,
               band: tuple[float, float] | None = None) -> list[dict]:
    """Small graphs with at least two pages of ``fill`` answers, so that
    every page the serve-mix load requests can be resumed; with ``band``,
    only those whose cold first page takes that long."""
    from repro.api import Session
    from repro.graphs.generators import connected_erdos_renyi

    rng = random.Random(salt)
    out = []
    seen = set()
    while len(out) < count:
        g = connected_erdos_renyi(
            rng.randint(10, 12), rng.uniform(0.3, 0.4),
            seed=rng.randrange(10**6),
        )
        entry, graph = stored(f"{prefix}-{len(out)}", g)
        key = json.dumps([entry["n"], entry["edges"]])
        if key in seen:
            continue
        started = time.perf_counter()
        with Session() as session:
            stream = session.stream(graph, "fill")
            answers = sum(1 for _ in islice(stream, SERVE_PAGE))
            seconds = time.perf_counter() - started
            answers += sum(1 for _ in islice(stream, SERVE_PAGE + 1))
            stream.close()
        in_band = band is None or band[0] <= seconds <= band[1]
        if answers > 2 * SERVE_PAGE and in_band:
            seen.add(key)
            out.append(entry)
    return out


def main() -> None:
    from repro.graphs.kernels import resolve_kernel

    corpus = {
        "recorded_with": {
            "auto_kernel": resolve_kernel("auto").name,
            "cross_checked_kernel": "sets",
            "cold_start_k": COLD_K,
            "cold_start_band_s": list(COLD_BAND_S),
            "serve_min_answers": 2 * SERVE_PAGE + 1,
            "serve_fresh_band_s": list(SERVE_FRESH_BAND_S),
        },
        "cold_start": cold_start_pool(),
    }
    corpus["serve_popular"] = serve_bank("popular", SERVE_POPULAR, 7001)
    corpus["serve_fresh"] = serve_bank(
        "fresh", SERVE_FRESH, 7002, SERVE_FRESH_BAND_S
    )
    contents = {
        json.dumps([e["n"], e["edges"]])
        for key in ("serve_popular", "serve_fresh")
        for e in corpus[key]
    }
    if len(contents) != SERVE_POPULAR + SERVE_FRESH:
        raise SystemExit("serve-mix banks share a graph; pick other salts")
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, separators=(",", ":"))
        fh.write("\n")
    print("wrote", DATA)


if __name__ == "__main__":
    main()
