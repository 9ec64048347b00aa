"""Deterministic chaos harness: fault injection + continuous auditing.

The subsystem splits into four pieces, composable on their own:

* :mod:`repro.faults.schedule` — replayable fault scripts
  (:class:`FaultSchedule`) and the seeded generator
  (:func:`random_schedule`);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the sim
  process that executes a schedule against a target cluster;
* :mod:`repro.faults.invariants` — :class:`InvariantChecker`, hooked
  into every reconfiguration, raising :class:`ChaosInvariantError`
  with a replayable :class:`ReplayArtifact`;
* :mod:`repro.faults.chaos` — :func:`chaos_fingerprint`, the
  bit-reproducibility digest of a
  :class:`~repro.engine.record.ChaosResult` (the full harness —
  hardened client + heartbeat detection + injector + auditor — is
  assembled by ``ExperimentSpec(..., **chaos_layers(...)).build()``).
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "chaos": ["chaos_fingerprint"],
        "injector": ["FaultInjector"],
        "invariants": ["ChaosInvariantError", "InvariantChecker", "ReplayArtifact"],
        "schedule": ["FaultEvent", "FaultKind", "FaultSchedule", "random_schedule"],
    },
)
