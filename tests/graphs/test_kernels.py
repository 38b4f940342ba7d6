"""Unit tests for the kernel map (``repro.graphs.kernels``).

The map is the single source of truth for kernel names across the
Session API, the context builder, the wire protocol, the gateway, and
the CLI, so its rules — two kernels, ``"auto"`` as an alias of
``"bitset"``, unknown names refused — are pinned here in isolation.
"""

import pytest

from repro.graphs.bitgraph import BitGraph
from repro.graphs.generators import cycle_graph
from repro.graphs.kernels import (
    AUTO_KERNEL,
    KERNELS,
    Kernel,
    resolve_kernel,
    validate_kernel,
)


class TestMap:
    def test_exactly_two_kernels(self):
        assert set(KERNELS) == {"sets", "bitset"}
        for name, kernel in KERNELS.items():
            assert kernel.name == name


class TestResolution:
    def test_builtins_resolve_by_name(self):
        assert resolve_kernel("sets") is KERNELS["sets"]
        assert resolve_kernel("bitset") is KERNELS["bitset"]

    def test_auto_is_bitset(self):
        assert resolve_kernel(AUTO_KERNEL) is KERNELS["bitset"]
        assert resolve_kernel().name == "bitset"  # default argument

    def test_unknown_name_lists_known_kernels(self):
        for name in ("numpy", "quantum", ""):
            with pytest.raises(
                ValueError, match=r"\('auto', 'bitset', 'sets'\)"
            ):
                resolve_kernel(name)

    def test_validate_kernel_returns_concrete_name(self):
        assert validate_kernel(AUTO_KERNEL) == "bitset"
        assert validate_kernel("sets") == "sets"


class TestSpec:
    def test_label_level_spec_has_no_builder(self):
        assert resolve_kernel("sets").build is None

    def test_mask_spec_builds_equivalent_graph(self):
        g = cycle_graph(5)
        built = resolve_kernel("bitset").build(g)
        assert isinstance(built, BitGraph)
        assert built.to_graph() == g


class TestSessionIntegration:
    def test_session_exposes_resolved_spec(self):
        from repro.api import Session

        session = Session(kernel="bitset")
        assert isinstance(session.kernel, Kernel)
        assert session.kernel.name == "bitset"
        assert session.kernel_name == "bitset"

    def test_session_auto_resolves_before_anything_runs(self):
        from repro.api import Session

        assert Session(kernel="auto").kernel_name == "bitset"
        assert Session().kernel_name == "bitset"

    def test_session_stats_carry_concrete_kernel(self):
        from repro.api import Session

        g = cycle_graph(5)
        response = Session(kernel="bitset").top(g, "fill", k=2)
        assert response.stats.kernel == "bitset"

    def test_session_refuses_unknown_kernel(self):
        from repro.api import Session

        with pytest.raises(ValueError, match="unknown graph kernel 'numpy'"):
            Session(kernel="numpy")
