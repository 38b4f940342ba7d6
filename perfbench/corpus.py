"""Benchmark inputs: the stored graph corpus and the answer digests.

Every graph the benchmark feeds the program lives in ``data/corpus.json``
as an edge list over vertices ``0..n-1``, so the inputs do not change when
the repository's own generators do.  ``record.py`` wrote the file once;
each answer's digest there is the reference the cold-start workload checks
its ranked sequences against.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "corpus.json"


def load() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def build_graph(entry: dict):
    from repro.graphs.graph import Graph

    return Graph(vertices=range(entry["n"]), edges=entry["edges"])


def answer_digest(cost: float, bags) -> str:
    """A short digest of one ranked answer: its cost and its bag set."""
    canon = sorted(tuple(sorted(bag)) for bag in bags)
    text = f"{float(cost)!r}|{canon}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def result_digest(result) -> str:
    return answer_digest(result.cost, result.triangulation.bags)


def seeded_order(items: list, seed: int, salt: str) -> list:
    """``items`` in an order drawn from ``seed`` (stable per salt)."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out
