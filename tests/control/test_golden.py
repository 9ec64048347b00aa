"""Bit-for-bit pin of the paper's tuning rule against recorded numbers.

``PARENT_DIGEST`` is one SHA-256 over ``float.hex`` of every raw target
and every ``system_average`` the multiplicative rule produces on the
``drifting_battery`` runs below: seeds 0–4 on five servers with the
layout advanced each round, then the seed-99 battery on a fixed
seven-server layout. The digest was recorded at commit ``96a99f8``,
where the rule still lived in ``repro.core.tuning`` behind a wrapper
controller, so these tests hold the folded class to the numbers of the
code it replaced — including idle servers, persistence gating, and
layouts drifting over rounds. (The engine-level golden fingerprints in
``tests/engine/test_equivalence.py`` pin the same fact end to end.)
"""

from __future__ import annotations

import hashlib
import random

from repro.control import MultiplicativeController, default_controller
from repro.core.layout import LayoutEngine

from .conftest import make_report

PARENT_DIGEST = "206f0f8b28d24b34d20335f42d8a5a68168581e19b6a05ef6c41449a39d6e693"


def drifting_battery(server_ids, seed, rounds=40):
    """Rounds of reports with idle spells and persistent slow servers."""
    rng = random.Random(seed)
    battery = []
    idle_streak = {sid: 0 for sid in server_ids}
    last = {sid: 1.0 for sid in server_ids}
    for _ in range(rounds):
        reports = []
        for sid in server_ids:
            if rng.random() < 0.15:
                idle_streak[sid] += 1
                reports.append(make_report(sid, None, idle_rounds=idle_streak[sid]))
                continue
            idle_streak[sid] = 0
            prev = last[sid]
            last[sid] = rng.uniform(0.1, 4.0)
            reports.append(
                make_report(
                    sid,
                    last[sid],
                    request_count=rng.randrange(1, 200),
                    prev=prev,
                )
            )
        battery.append(reports)
    return battery


def battery_digest(make):
    """SHA-256 of every target and average ``make()``'s rule emits."""
    digest = hashlib.sha256()

    def feed(ctrl, lengths, reports):
        targets = ctrl.observe(lengths, reports)
        for value in targets.values():
            digest.update(float.hex(value).encode())
        digest.update(float.hex(ctrl.system_average(reports)).encode())
        return targets

    for seed in range(5):
        ctrl = make()
        engine = LayoutEngine(floor_length=ctrl.floor_length)
        server_ids = list(range(5))
        lengths = {sid: 0.1 for sid in server_ids}
        for reports in drifting_battery(server_ids, seed):
            # Advance the layout the way every consumer does.
            lengths = engine.floor_and_normalize(feed(ctrl, lengths, reports))
    ctrl = make()
    server_ids = list(range(7))
    lengths = {sid: 0.5 / 7 for sid in server_ids}
    for reports in drifting_battery(server_ids, seed=99, rounds=10):
        feed(ctrl, lengths, reports)
    return digest.hexdigest()


class TestBitForBit:
    def test_observe_matches_parent_digest(self):
        assert battery_digest(MultiplicativeController) == PARENT_DIGEST

    def test_default_controller_uses_default_policy_settings(self):
        ctrl = default_controller()
        assert isinstance(ctrl, MultiplicativeController)
        assert (
            ctrl.averaging,
            ctrl.gain,
            ctrl.max_step,
            ctrl.grow_step,
            ctrl.deadband,
            ctrl.idle_seed,
            ctrl.idle_backoff,
            ctrl.floor_length,
        ) == ("weighted", 0.3, 1.5, 1.2, 0.4, 0.03, 5, 1e-4)
        assert battery_digest(default_controller) == PARENT_DIGEST
