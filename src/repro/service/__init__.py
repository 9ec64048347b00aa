"""repro.service — ANU as a live placement service.

The paper's delegate run as a daemon: an asyncio locator serving the
authoritative ANU map over a length-prefixed JSON wire protocol, echo
file servers whose service times follow the paper's power ratios, a
multi-process hardened load generator, a real wall-clock tuning loop on
epoch-batched latency reports, and a digital-twin parity harness that
replays every live run through the simulator.

Layering: this package sits *above* the engine — the bench, load
generator and twin may import ``repro.core`` / ``repro.control`` /
``repro.engine`` / ``repro.workloads``, but nothing below may import it
back. The serving path — ``client``, ``protocol``, ``fileserver`` and
``locator`` — imports no engine module, and this package re-exports
nothing, so a service process loads only what it runs
(``tools/check_layering.py`` enforces the layering).

The serving closure is NumPy-free: ``client``, ``protocol``,
``fileserver`` and ``locator``, plus ``repro.engine.record`` (the load
generator's :func:`~repro.engine.record.derive_seed`), import no NumPy
and, of the engine, only ``record`` and ``probes``.
``test_serving_path_and_cluster_import_without_the_engine`` in
``tests/engine/test_layering.py`` pins both.

Start with ``python -m repro.service bench --smoke``.
"""
