"""Wire validation against the kernel map: only ``auto``, ``bitset`` and
``sets`` get past the service boundary.

``parse_request`` (the TCP path) and the HTTP gateway validate the
``kernel`` field by looking it up in :data:`repro.graphs.kernels.KERNELS`.
A name outside the map — ``"numpy"`` included, which is no kernel of
this library — is refused with a typed :class:`ProtocolError` (a 400 at
the gateway) whose message lists the accepted names, and ``"auto"`` is
normalised to ``"bitset"`` before anything keys on it.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.graphs.generators import paper_example_graph
from repro.service.protocol import (
    ProtocolError,
    ServiceRequest,
    graph_to_wire,
    parse_request,
    serialize_answers,
)

#: What every refusal message must list, in this order.
ACCEPTED = r"\('auto', 'bitset', 'sets'\)"


def _frame(kernel):
    return {
        "type": "request",
        "op": "top",
        "graph": graph_to_wire(paper_example_graph()),
        "cost": "fill",
        "k": 3,
        "kernel": kernel,
    }


class TestRequestValidation:
    @pytest.mark.parametrize("kernel", ["numpy", "gpu"])
    def test_refused_in_parse_request(self, kernel):
        with pytest.raises(ProtocolError, match=ACCEPTED) as excinfo:
            parse_request(_frame(kernel))
        assert repr(kernel) in str(excinfo.value)

    def test_unregistered_kernel_rejected_with_registry_names(self):
        with pytest.raises(ProtocolError, match=ACCEPTED):
            ServiceRequest(
                op="top", graph=paper_example_graph(), k=3, kernel="gpu"
            )

    @pytest.mark.parametrize("kernel", ["sets", "bitset"])
    def test_concrete_kernels_accepted(self, kernel):
        request = parse_request(_frame(kernel))
        assert request.kernel == kernel
        assert parse_request(request.to_frame()).kernel == kernel

    def test_auto_normalized_to_concrete_name_at_parse_time(self):
        assert parse_request(_frame("auto")).kernel == "bitset"
        request = ServiceRequest(
            op="top", graph=paper_example_graph(), k=3, kernel="auto"
        )
        assert request.kernel == "bitset"
        assert "kernel" not in request.to_frame()  # bitset is the default


class TestEndToEnd:
    def test_gateway_refuses_unknown_kernels_with_400(self):
        from repro.gateway import GatewayClient, GatewayError, GatewayThread

        graph = graph_to_wire(paper_example_graph())
        expected = serialize_answers(
            Session(kernel="bitset").top(paper_example_graph(), "fill", k=3)
            .results
        )
        with GatewayThread(max_workers=1) as handle:
            client = GatewayClient(*handle.address, timeout=60.0)
            for kernel in ("numpy", "gpu"):
                with pytest.raises(GatewayError, match=ACCEPTED) as excinfo:
                    client.submit(
                        {"op": "top", "graph": graph, "cost": "fill", "k": 3,
                         "kernel": kernel}
                    )
                assert excinfo.value.status == 400
            # The refusals cost nothing: the server still serves "auto".
            result = client.submit(
                {"op": "top", "graph": graph, "cost": "fill", "k": 3,
                 "kernel": "auto"}
            ).collect()
            assert result.answer_lines == expected
            page = client.metrics()
        assert "# TYPE repro_kernel_info gauge" in page
        for name in ("bitset", "sets"):
            assert f'repro_kernel_info{{auto="bitset",kernel="{name}"}} 1' in page
        assert 'kernel="numpy"' not in page

    def test_kernel_registry_stats_lists_registered_kernel(self):
        from repro.service.scheduler import kernel_registry_stats

        assert kernel_registry_stats() == {
            "available": ["sets", "bitset"],
            "auto": "bitset",
        }
