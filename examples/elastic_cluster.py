#!/usr/bin/env python3
"""Clusters on demand: servers joining, leaving, failing, recovering.

The paper argues ANU "facilitates the trend of building 'clusters on
demand' ... the same server might be deployed in different clusters at
different times during the same day" (§1). This example runs a live
simulation with scheduled churn and shows that

* failures re-hash only the victim's file sets;
* recoveries/additions always find a free partition (half occupancy);
* re-partitioning (Figure 3) happens transparently as the cluster
  grows past its partition budget — moving no load;
* the service keeps completing requests throughout.

Run:  python examples/elastic_cluster.py
"""

from __future__ import annotations

from repro.engine import ClusterConfig, ExperimentSpec
from repro.core import required_partitions
from repro.policies import ANURandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def main() -> None:
    workload = generate_synthetic(
        SyntheticConfig(duration=3600.0, target_requests=20000), seed=8
    )
    policy = ANURandomization(list(POWERS))
    sim = ExperimentSpec(
        workload, policy, ClusterConfig(server_powers=POWERS)
    ).build()

    # A day in the life: the big server leaves for another cluster at
    # t=15 min and comes back at t=40 min; a mid server crashes at 25.
    sim.schedule_failure(900.0, 4)
    sim.schedule_failure(1500.0, 2)
    sim.schedule_recovery(2400.0, 4)
    sim.schedule_recovery(3000.0, 2)

    print("partition budget for 5 servers:",
          required_partitions(5), "partitions")
    result = sim.run()

    print(f"\ncompleted {result.completed}/{result.submitted} requests "
          f"({result.aggregate_mean_latency:.2f}s mean latency) despite churn")
    print("\nreconfiguration log:")
    print(f"  {'round':>5}  {'t(min)':>7}  {'kind':>8}  {'moves':>5}  "
          f"{'workload moved':>14}")
    for rec in result.movement:
        if rec.kind == "tune" and rec.moves == 0:
            continue
        print(f"  {rec.round_index:>5}  {rec.time / 60:>7.1f}  {rec.kind:>8}  "
              f"{rec.moves:>5}  {rec.moved_work_share * 100:>13.1f}%")

    total_churn_moves = sum(
        m.moves for m in result.movement if m.kind in ("fail", "recover")
    )
    print(f"\nchurn-driven moves: {total_churn_moves} "
          f"(out of {len(workload.catalog)} file sets; each event only "
          f"re-hashes what it must)")
    print("final region lengths:",
          {k: round(v, 4) for k, v in policy.region_lengths.items()})
    print("layout invariants: OK" if policy.manager.layout.check_invariants() is None else "")


if __name__ == "__main__":
    main()
