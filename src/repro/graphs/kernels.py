"""The graph kernels: a fixed name → builder map.

Two kernels exist, and every layer that takes a kernel name — the
``Session`` API, the context builder, the service wire protocol, the
gateway, the CLI ``--kernel`` choices — validates it against
:data:`KERNELS`:

* ``"sets"`` — the label-level frozenset oracle.  It has no builder and
  runs the original label-level code paths.
* ``"bitset"`` — the default.  Its builder encodes the graph as a
  :class:`~repro.graphs.bitgraph.BitGraph`, and the algorithms take
  their mask-level paths.

``"auto"`` is an alias for ``"bitset"``, resolved by
:func:`resolve_kernel` before anything keys on the name, so cache keys
and wire frames only ever see concrete names.  Both kernels produce
byte-identical ranked output.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .bitgraph import BitGraph

__all__ = [
    "AUTO_KERNEL",
    "KERNELS",
    "Kernel",
    "resolve_kernel",
    "validate_kernel",
]

#: Alias accepted everywhere a kernel name is; resolves to ``"bitset"``.
AUTO_KERNEL = "auto"


@dataclass(frozen=True)
class Kernel:
    """One graph kernel: its name and its graph builder.

    ``build(graph, indexer=None)`` encodes a label-level graph for the
    mask-level paths; it is ``None`` for the label-level ``"sets"``
    oracle.
    """

    name: str
    build: Callable[..., BitGraph] | None


KERNELS: dict[str, Kernel] = {
    "sets": Kernel("sets", None),
    "bitset": Kernel("bitset", BitGraph.from_graph),
}


def resolve_kernel(name: str = AUTO_KERNEL) -> Kernel:
    """The :class:`Kernel` called ``name``; ``"auto"`` gives ``"bitset"``.

    An unknown name raises ``ValueError`` listing the accepted names.
    """
    kernel = KERNELS.get("bitset" if name == AUTO_KERNEL else name)
    if kernel is None:
        known = (AUTO_KERNEL, *sorted(KERNELS))
        raise ValueError(f"unknown graph kernel {name!r}; expected one of {known}")
    return kernel


def validate_kernel(name: str) -> str:
    """The concrete kernel name for ``name`` (``"auto"`` → ``"bitset"``)."""
    return resolve_kernel(name).name
