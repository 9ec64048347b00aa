#!/usr/bin/env python3
"""Quickstart: ANU randomization in five minutes.

Builds the paper's five-server heterogeneous cluster, registers a
namespace of file sets, runs a few tuning rounds against synthetic
latency reports, and exercises failure/recovery — all against the
public API, no simulator required.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import math

from repro.control import MultiplicativeController
from repro.core import ANUManager, LatencyReport, render_layout

#: The paper's cluster: "Servers 0..4 have processing power 1,3,5,7,9".
POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def fake_reports(manager: ANUManager) -> list[LatencyReport]:
    """Pretend each server's latency is (file sets held) / power.

    In a deployment every server measures its own request latency; here
    we synthesize the same signal so the example is self-contained.
    """
    counts = manager.load_counts()
    reports = []
    for sid, power in POWERS.items():
        n = counts[sid]
        latency = n / power if n else math.nan
        reports.append(
            LatencyReport(
                server_id=sid,
                mean_latency=latency,
                request_count=n,
                idle_rounds=0 if n else 1,
                prev_mean_latency=latency,
            )
        )
    return reports


def show(title: str, manager: ANUManager) -> None:
    lengths = manager.lengths()
    counts = manager.load_counts()
    print(f"\n{title}")
    print(f"  {'server':>6}  {'power':>5}  {'region':>8}  {'file sets':>9}")
    for sid in sorted(lengths, key=repr):
        power = POWERS.get(sid, 1.0)
        print(f"  {sid!r:>6}  {power:>5.0f}  {lengths[sid]:>8.4f}  {counts[sid]:>9}")


def main() -> None:
    # 1. Create the manager. Regions start equal: the system has no
    #    a-priori knowledge of server capability.
    manager = ANUManager(
        server_ids=list(POWERS),
        controller=MultiplicativeController(),  # the delegate's scaling rule (defaults)
    )
    print(f"unit interval: {manager.layout.n_partitions} partitions "
          f"(2^(ceil(lg 5)+1]); half occupancy = "
          f"{manager.layout.total_mapped:.3f}")

    # 2. Register the namespace. Each file set hashes to the interval;
    #    misses re-hash (expect ~2 probes under half occupancy).
    names = [f"/projects/team-{i:02d}" for i in range(60)]
    manager.register_filesets(names)
    show("initial placement (uniform regions, hash-random load):", manager)
    print(f"  mean lookup probes: {manager.mean_probes:.2f} (theory: 2.0)")

    # 3. Tune. The delegate scales regions around the reported average;
    #    loads drift toward proportional-to-power.
    for round_no in range(1, 16):
        rec = manager.tune(fake_reports(manager))
        if round_no <= 3 or rec.moved:
            print(f"  round {round_no:>2}: moved {rec.moved:>2} file sets "
                  f"(avg latency {rec.average_latency:.2f})")
    show("after tuning (regions ~ capability):", manager)
    print("\nthe unit interval itself (one glyph per region slice):")
    print(render_layout(manager.layout))

    # 4. Fail a server. Only its file sets re-hash; survivors scale up
    #    to restore half occupancy. Recovery reverses it.
    rec = manager.fail_server(3)
    print(f"\nserver 3 failed: {rec.moved} file sets re-hashed to survivors")
    rec = manager.recover_server(3)
    print(f"server 3 recovered: {rec.moved} file sets moved back "
          f"(free partition was guaranteed by half occupancy)")
    show("after failure + recovery:", manager)

    # 5. Shared state: the interval map is all any node replicates.
    print(f"\nreplicated state: {manager.shared_state_entries()} region "
          f"descriptors for {len(names)} file sets "
          f"(a lookup table would need {len(names)} rows)")


if __name__ == "__main__":
    main()
