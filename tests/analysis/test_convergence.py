"""Controller fixed-point analysis vs the actual system."""

from __future__ import annotations

import pytest

from repro.analysis.convergence import equilibrium_lengths, iterate_controller
from repro.control import MultiplicativeController
from repro.core.interval import HALF

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


class TestEquilibrium:
    def test_sums_to_half(self):
        eq = equilibrium_lengths(POWERS, offered_rate=15.0)
        assert sum(eq.values()) == pytest.approx(HALF)

    def test_monotone_in_power(self):
        eq = equilibrium_lengths(POWERS, offered_rate=15.0)
        assert eq[1] <= eq[2] <= eq[3] <= eq[4]

    def test_weakest_server_parks_under_load(self):
        """The analytical counterpart of §5.2.2's idle weak server:
        the equal-latency condition drives server 0's share negative,
        so the water-filling parks it."""
        eq = equilibrium_lengths(POWERS, offered_rate=15.0)
        assert eq[0] == 0.0

    def test_light_load_concentrates_on_fastest(self):
        """Strict latency equalization at light load concentrates work
        on the fastest server (its unloaded latency already beats the
        others' — the M/M/1 fixed point is a corner). ANU's deadband
        deliberately keeps real clusters away from this corner."""
        eq = equilibrium_lengths(POWERS, offered_rate=2.0)
        assert eq[4] == pytest.approx(HALF)
        assert all(eq[s] == 0.0 for s in (0, 1, 2, 3))

    def test_moderate_load_keeps_big_servers_active(self):
        eq = equilibrium_lengths(POWERS, offered_rate=20.0)
        assert all(eq[s] > 0 for s in (1, 2, 3, 4))

    def test_homogeneous_is_equal_shares(self):
        eq = equilibrium_lengths({i: 5.0 for i in range(4)}, offered_rate=10.0)
        for v in eq.values():
            assert v == pytest.approx(HALF / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            equilibrium_lengths(POWERS, offered_rate=0.0)
        with pytest.raises(ValueError):
            equilibrium_lengths(POWERS, offered_rate=30.0)  # > capacity 25


class TestIteration:
    def test_converges_to_equilibrium_neighborhood(self):
        eq = equilibrium_lengths(POWERS, offered_rate=15.0)
        trace = iterate_controller(POWERS, offered_rate=15.0, rounds=80)
        final = trace.final_lengths
        # The deadband stops the controller inside a neighborhood of the
        # exact fixed point; every active server must land within a
        # factor-of-2 band of its analytic share.
        for sid in (2, 3, 4):
            assert eq[sid] / 2 <= final[sid] <= eq[sid] * 2, (sid, final)
        assert final[0] <= 0.06  # weakest (near-)parked

    def test_convergence_within_tens_of_rounds(self):
        trace = iterate_controller(POWERS, offered_rate=15.0, rounds=80)
        conv = trace.converged_round(tolerance=0.05)
        assert conv is not None and conv <= 60

    def test_tighter_deadband_converges_closer(self):
        eq = equilibrium_lengths(POWERS, offered_rate=15.0)
        loose = iterate_controller(
            POWERS,
            15.0,
            rounds=80,
            controller=MultiplicativeController(deadband=0.6),
        ).final_lengths
        tight = iterate_controller(
            POWERS,
            15.0,
            rounds=80,
            controller=MultiplicativeController(deadband=0.05),
        ).final_lengths
        err = lambda lens: sum(abs(lens[s] - eq[s]) for s in POWERS)
        assert err(tight) <= err(loose) + 1e-9

    def test_trace_shapes(self):
        trace = iterate_controller(POWERS, 15.0, rounds=10)
        assert trace.rounds == 10
        assert len(trace.latencies) == 10
        assert all(
            sum(l.values()) == pytest.approx(HALF) for l in trace.lengths
        )

    def test_matches_simulation_equilibrium(self):
        """The deterministic iteration predicts the simulator: the
        converged region lengths of a real ANU run land in the same
        neighborhood as the model's fixed point."""
        from repro.core import HashFamily
        from repro.engine import ClusterConfig, ExperimentSpec
        from repro.policies import ANURandomization
        from repro.workloads import SyntheticConfig, generate_synthetic

        wl = generate_synthetic(
            SyntheticConfig(duration=4800.0, target_requests=26000), seed=1
        )
        policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
        sim = ExperimentSpec(wl, policy, ClusterConfig(server_powers=POWERS)).build()
        sim.run()
        simulated = policy.region_lengths
        eq = equilibrium_lengths(POWERS, offered_rate=15.0)
        # The ±40% deadband leaves a broad neighborhood of admissible
        # layouts around the exact fixed point, so compare aggregates:
        # the big servers (2,3,4) collectively hold what the analysis
        # says they should, and the weak end is near-parked in both.
        sim_big = sum(simulated[s] for s in (2, 3, 4))
        eq_big = sum(eq[s] for s in (2, 3, 4))
        assert sim_big == pytest.approx(eq_big, rel=0.25), simulated
        assert simulated[0] < 0.08
        assert simulated[4] > simulated[1]
