"""The chaos-run fingerprint.

The harness itself is a layer composition —
:class:`~repro.engine.control.DistributedControlPlane` (seeded
network) + :class:`~repro.engine.client_path.HardenedClientPath`
(seeded jitter) + :class:`~repro.engine.fault_layer.ChaosFaultLayer`
(heartbeat detection, fault injection, continuous invariant auditing),
assembled by ``ExperimentSpec(..., **chaos_layers(schedule, chaos))``; its
result/record types live in :mod:`repro.engine.record`. Everything
stochastic derives from ``ChaosConfig.seed``, so a run is a pure
function of ``(workload, config, schedule, chaos)`` and replays
bit-identically. :func:`chaos_fingerprint` is the equality the
determinism and golden tests assert.
"""

from __future__ import annotations

import hashlib

from ..engine.record import ChaosResult

__all__ = ["chaos_fingerprint"]


def chaos_fingerprint(result: ChaosResult) -> str:
    """Canonical digest of a chaos run (bit-reproducibility equality).

    Covers the base cluster result (per-request latencies, series,
    movement log) plus every robustness observable: the applied fault
    log, failure timelines, client ledger, and detector activity.
    """
    from ..experiments.cache import result_fingerprint  # late: avoid cycle

    h = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode("utf-8"))
            h.update(b"\x00")

    put("chaos", result.seed, result.schedule.to_json())
    put(result_fingerprint(result.base))
    put(
        result.faults_injected,
        result.faults_skipped,
        result.applied,
        result.requests_injected,
        result.requests_completed,
        result.requests_failed,
        result.requests_in_flight,
        result.retries,
        result.redirects,
        result.timeouts,
        result.failure_declarations,
        result.recovery_declarations,
        result.invariant_checks,
        result.invariant_violations,
    )
    for rec in result.failures:
        put("failure", rec.server_id, rec.kind, rec.t_fault, rec.t_detect, rec.t_heal, rec.t_readmit)
    return h.hexdigest()
