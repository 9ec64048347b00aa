"""Strict parsing of the REPRO_PARALLEL_WORKERS environment knob."""

from __future__ import annotations

import pytest

from repro.experiments.fanout import default_workers


class TestParallelWorkersEnv:
    def test_valid_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "4")
        assert default_workers() == 4

    def test_unset_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_WORKERS", raising=False)
        assert default_workers() >= 1

    def test_blank_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "  ")
        assert default_workers() >= 1

    @pytest.mark.parametrize("value", ["three", "4.5", "many"])
    def test_non_integer_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_PARALLEL_WORKERS"):
            default_workers()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", value)
        with pytest.raises(ValueError, match=">= 1"):
            default_workers()
