"""``ServiceConfig.with_env_overrides``: the service's strict env knobs."""

from __future__ import annotations

import pytest

from repro.service.config import smoke_config

KNOBS = ("REPRO_SERVICE_PORT", "REPRO_SERVICE_EPOCH_SECONDS", "REPRO_SERVICE_CLIENTS")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)


class TestWithEnvOverrides:
    def test_unset_knobs_return_same_object(self):
        config = smoke_config(seed=3)
        assert config.with_env_overrides() is config

    def test_blank_knobs_return_same_object(self, monkeypatch):
        for name in KNOBS:
            monkeypatch.setenv(name, " ")
        config = smoke_config(seed=3)
        assert config.with_env_overrides() is config

    def test_valid_values_applied(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "39123")
        monkeypatch.setenv("REPRO_SERVICE_EPOCH_SECONDS", "0.25")
        monkeypatch.setenv("REPRO_SERVICE_CLIENTS", "3")
        config = smoke_config(seed=3)
        overridden = config.with_env_overrides()
        assert (overridden.port, overridden.epoch_seconds, overridden.clients) == (
            39123,
            0.25,
            3,
        )
        # Everything the knobs do not name is the profile's.
        assert overridden.server_powers == config.server_powers
        assert overridden.seed == 3

    def test_one_knob_leaves_the_others(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "0")
        config = smoke_config()
        overridden = config.with_env_overrides()
        assert overridden.port == 0
        assert overridden.epoch_seconds == config.epoch_seconds
        assert overridden.clients == config.clients

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_SERVICE_PORT", "65536"),
            ("REPRO_SERVICE_PORT", "-1"),
            ("REPRO_SERVICE_PORT", "http"),
            ("REPRO_SERVICE_EPOCH_SECONDS", "0"),
            ("REPRO_SERVICE_EPOCH_SECONDS", "nan"),
            ("REPRO_SERVICE_CLIENTS", "0"),
        ],
    )
    def test_invalid_values_rejected_by_name(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            smoke_config().with_env_overrides()
