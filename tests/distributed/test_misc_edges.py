"""Edge cases in the control-plane building blocks."""

from __future__ import annotations

import pytest

from repro.distributed import Message, MessageKind, elect


class TestElectEdges:
    def test_mixed_comparable_ids(self):
        # repr-ordering fallback keeps mixed types total-ordered
        winner = elect([1, 2, "z"])
        assert winner in (1, 2, "z")
        # deterministic across calls
        assert elect([1, 2, "z"]) == winner

    def test_string_ids(self):
        assert elect(["node-a", "node-c", "node-b"]) == "node-c"


class TestMessageEdges:
    def test_mapping_without_payload_has_base_size(self):
        msg = Message(0, 1, MessageKind.MAPPING, payload=None)
        assert msg.wire_size == 24

    def test_mapping_with_flat_payload(self):
        # payload without .values() falls back to len()
        msg = Message(0, 1, MessageKind.MAPPING, payload=[1, 2, 3])
        assert msg.wire_size == 24 + 3 * 24

    def test_all_kinds_have_sizes(self):
        for kind in MessageKind.ALL:
            assert Message(0, 1, kind).wire_size > 0
