#!/usr/bin/env python3
"""Kernel selection: ``sets`` vs ``bitset`` behind ``Session``.

Every enumeration call runs on a *graph kernel* — the data structure
the hot subroutines (neighborhoods, components, PMC checks) execute on.
Two kernels exist (`repro.graphs.kernels.KERNELS`): ``sets``, the
label-level oracle, and ``bitset``, the default; ``kernel="auto"`` is an
alias of ``bitset``.  Both produce bit-for-bit identical ranked output.

This example times the same enumeration under each kernel and checks
that the answers match.

Run:  python examples/kernel_selection.py
"""

import time

from repro.api import Session
from repro.graphs.generators import grid_graph
from repro.graphs.kernels import KERNELS, resolve_kernel


def main() -> None:
    print(f"kernels: {tuple(KERNELS)}; 'auto' -> {resolve_kernel('auto').name!r}")
    graph = grid_graph(4, 4)
    sequences = {}
    for name in KERNELS:
        session = Session(kernel=name)
        started = time.perf_counter()
        response = session.top(graph, "fill", k=5)
        elapsed = time.perf_counter() - started
        sequences[name] = [
            (r.cost, frozenset(r.triangulation.bags)) for r in response
        ]
        print(f"  {name:>6}: top-5 in {elapsed:.3f}s  "
              f"(stats.kernel={response.stats.kernel!r})")
    assert sequences["sets"] == sequences["bitset"], "kernels diverged!"
    print("  both kernels emitted the identical ranked sequence")


if __name__ == "__main__":
    main()
