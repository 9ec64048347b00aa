"""The batched kernels agree with their scalar originals.

Every kernel in :mod:`repro.core.vector` is a vectorization of an
existing scalar routine; these tests pin the agreement (bit-identical
where the contract says so) and the edge cases the batch forms add:
empty batches, one file set, one server, probe wraparound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ANUManager, HashFamily
from repro.core.errors import LookupExhaustedError
from repro.core.interval import IntervalLayout
from repro.core.layout import LayoutEngine
from repro.core.vector import (
    _PADDED_CUT,
    DrainedCohort,
    ProbeMatrix,
    SegmentTable,
    batched_locate,
    fifo_drain,
    run_bounds,
    sorted_unique,
)

SIDS = [f"s{i}" for i in range(7)]


def _slots(sids):
    return {sid: i for i, sid in enumerate(sids)}


def _shuffled_layout(sids, seed):
    """A layout reshaped through a few random target rounds."""
    rng = np.random.default_rng(seed)
    layout = IntervalLayout.initial(list(sids))
    engine = LayoutEngine()
    for _ in range(4):
        targets = {sid: float(rng.uniform(0.2, 2.0)) for sid in sids}
        engine.apply_targets(layout, targets)
    return layout


class TestSegmentTable:
    def test_matches_searchsorted_reference(self):
        layout = _shuffled_layout(SIDS, seed=3)
        table = SegmentTable.from_layout(layout, _slots(SIDS))
        offsets = np.random.default_rng(0).uniform(0.0, 1.0, size=50_000)
        got = table.locate(offsets)
        # The reference form the grid accelerator replaces.
        idx = np.searchsorted(table.starts, offsets, side="right") - 1
        hit = (idx >= 0) & (offsets < table.ends[np.maximum(idx, 0)])
        want = np.where(hit, table.owners[np.maximum(idx, 0)], -1)
        np.testing.assert_array_equal(got, want)

    def test_matches_owner_at(self):
        layout = _shuffled_layout(SIDS, seed=11)
        slots = _slots(SIDS)
        table = SegmentTable.from_layout(layout, slots)
        offsets = np.random.default_rng(1).uniform(0.0, 1.0, size=500)
        got = table.locate(offsets)
        for offset, slot in zip(offsets, got):
            owner = layout.owner_at(float(offset))
            assert slot == (slots[owner] if owner is not None else -1)

    def test_segment_boundaries_half_open(self):
        layout = IntervalLayout.initial(SIDS[:2])
        slots = _slots(SIDS[:2])
        table = SegmentTable.from_layout(layout, slots)
        starts = table.starts
        got = table.locate(starts)  # each start belongs to its own segment
        np.testing.assert_array_equal(got, table.owners)
        ends_inside = table.ends - 1e-12
        np.testing.assert_array_equal(table.locate(ends_inside), table.owners)

    def test_empty_layout_returns_unmapped(self):
        table = SegmentTable(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), n_servers=0
        )
        out = table.locate(np.array([0.0, 0.5, 0.999]))
        np.testing.assert_array_equal(out, [-1, -1, -1])

    def test_single_server_owns_its_region_only(self):
        layout = IntervalLayout.initial(["only"])
        table = SegmentTable.from_layout(layout, {"only": 0})
        offsets = np.linspace(0.0, 0.999999, 257)
        got = table.locate(offsets)
        for offset, slot in zip(offsets, got):
            owner = layout.owner_at(float(offset))
            assert slot == (0 if owner is not None else -1)


class TestProbeMatrix:
    def test_columns_match_scalar_offsets(self):
        fam = HashFamily(seed=9)
        names = [f"/fs/{i}" for i in range(64)]
        probes = ProbeMatrix(names, fam)
        for round_ in (0, 1, 5):
            col = probes.column(round_)
            for i, name in enumerate(names):
                assert col[i] == fam.offset(name, round_)

    def test_columns_cached(self):
        probes = ProbeMatrix(["a", "b"], HashFamily(seed=0))
        assert probes.rounds_materialized == 0
        c0 = probes.column(0)
        assert probes.column(0) is c0
        assert probes.rounds_materialized == 1


class TestBatchedLocate:
    def test_agrees_with_anu_lookup_after_reconfigurations(self):
        fam = HashFamily(seed=2)
        mgr = ANUManager(list(SIDS), hash_family=fam)
        rng = np.random.default_rng(5)
        engine = LayoutEngine()
        for _ in range(4):
            targets = {sid: float(rng.uniform(0.2, 2.0)) for sid in SIDS}
            engine.apply_targets(mgr.layout, targets)
        names = [f"/vol{i}/tree" for i in range(2_000)]
        probes = ProbeMatrix(names, fam)
        slots = _slots(SIDS)
        table = SegmentTable.from_layout(mgr.layout, slots)
        owner, used = batched_locate(probes, table)
        for i, name in enumerate(names):
            sid, n_probes = mgr.lookup(name)
            assert slots[sid] == owner[i]
            assert n_probes == used[i]

    def test_empty_batch(self):
        probes = ProbeMatrix([], HashFamily(seed=0))
        table = SegmentTable.from_layout(
            IntervalLayout.initial(SIDS[:3]), _slots(SIDS[:3])
        )
        owner, used = batched_locate(probes, table)
        assert owner.size == 0 and used.size == 0

    def test_single_fileset_single_server(self):
        fam = HashFamily(seed=1)
        layout = IntervalLayout.initial(["solo"])
        table = SegmentTable.from_layout(layout, {"solo": 0})
        owner, used = batched_locate(ProbeMatrix(["/one"], fam), table)
        assert owner.tolist() == [0]
        assert used[0] >= 1

    def test_probe_wraparound_uses_deep_rounds(self):
        # Shrink the mapped interval to a sliver: most first-round
        # offsets miss, so resolutions must walk deep probe rounds.
        fam = HashFamily(seed=4)
        layout = IntervalLayout.initial(SIDS[:2])
        LayoutEngine(floor_length=1e-4).apply_targets(
            layout, {SIDS[0]: 1e-4, SIDS[1]: 1e-4}
        )
        names = [f"/deep/{i}" for i in range(400)]
        probes = ProbeMatrix(names, fam)
        table = SegmentTable.from_layout(layout, _slots(SIDS[:2]))
        owner, used = batched_locate(probes, table)
        assert (owner >= 0).all()
        assert used.max() > 1  # somebody needed a re-hash
        mgr = ANUManager(SIDS[:2], hash_family=fam)
        LayoutEngine(floor_length=1e-4).apply_targets(
            mgr.layout, {SIDS[0]: 1e-4, SIDS[1]: 1e-4}
        )
        for i in (0, 17, 399):
            sid, n_probes = mgr.lookup(names[i])
            assert _slots(SIDS[:2])[sid] == owner[i]
            assert n_probes == used[i]

    def test_exhaustion_raises(self):
        fam = HashFamily(seed=0, max_probes=2)
        table = SegmentTable(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), n_servers=2
        )
        with pytest.raises(LookupExhaustedError):
            batched_locate(ProbeMatrix(["/lost"], fam), table)


class TestBatchedLocateBlocked:
    """The alive-mask guarantee: blocked slots are never routed to."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_never_routes_to_blocked_slot(self, data):
        k = data.draw(st.integers(min_value=3, max_value=7), label="k")
        seed = data.draw(st.integers(min_value=0, max_value=12), label="seed")
        n_blocked = data.draw(st.integers(min_value=0, max_value=k // 2), label="nb")
        which = data.draw(st.permutations(list(range(k))), label="which")
        sids = SIDS[:k]
        table = SegmentTable.from_layout(_shuffled_layout(sids, seed=seed), _slots(sids))
        blocked = np.zeros(k, dtype=bool)
        blocked[which[:n_blocked]] = True
        probes = ProbeMatrix([f"/fs/{i}" for i in range(150)], HashFamily(seed=seed))
        owner, used = batched_locate(probes, table, blocked=blocked)
        assert (owner >= 0).all()
        assert not blocked[owner].any()
        # Blocking only removes acceptances: a walk never gets shorter,
        # and a walk of unchanged length accepted the identical probe.
        base_owner, base_used = batched_locate(probes, table)
        assert (used >= base_used).all()
        same = used == base_used
        np.testing.assert_array_equal(owner[same], base_owner[same])

    def test_all_clear_mask_is_identity(self):
        sids = SIDS[:5]
        table = SegmentTable.from_layout(_shuffled_layout(sids, seed=2), _slots(sids))
        probes = ProbeMatrix([f"/fs/{i}" for i in range(300)], HashFamily(seed=2))
        owner, used = batched_locate(probes, table)
        owner_m, used_m = batched_locate(
            probes, table, blocked=np.zeros(5, dtype=bool)
        )
        np.testing.assert_array_equal(owner, owner_m)
        np.testing.assert_array_equal(used, used_m)

    def test_majority_blocked_still_resolves_clean(self):
        # Three of five slots dead: every resolution must land on the
        # two survivors, walking as deep as the probe budget demands.
        sids = SIDS[:5]
        table = SegmentTable.from_layout(_shuffled_layout(sids, seed=6), _slots(sids))
        blocked = np.array([True, True, True, False, False])
        probes = ProbeMatrix([f"/fs/{i}" for i in range(500)], HashFamily(seed=6))
        owner, used = batched_locate(probes, table, blocked=blocked)
        assert set(np.unique(owner)) <= {3, 4}
        assert used.max() > 1  # somebody had to re-hash past a dead slot


def _scalar_fifo(arrival, service, server_idx, free_at):
    """The per-request recurrence fifo_drain vectorizes."""
    free = dict(enumerate(free_at))
    out = np.empty_like(arrival)
    for i in range(arrival.shape[0]):
        s = int(server_idx[i])
        start = max(arrival[i], free[s])
        out[i] = start + service[i]
        free[s] = out[i]
    return out, free


class TestFifoDrain:
    def test_matches_scalar_recurrence(self):
        rng = np.random.default_rng(7)
        n, k = 5_000, 9
        arrival = np.sort(rng.uniform(0, 100, n))
        service = rng.uniform(0.01, 2.0, n)
        server_idx = rng.integers(0, k, n)
        free_at = np.zeros(k)
        want, want_free = _scalar_fifo(arrival, service, server_idx, free_at.copy())
        cohort = fifo_drain(arrival, service, server_idx, free_at)
        got = cohort.completion_in_input_order()
        # Prefix-sum association differs from the scalar chain by float
        # rounding only — the documented tolerance.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)
        for s, t in want_free.items():
            if (server_idx == s).any():
                assert math.isclose(free_at[s], t, rel_tol=1e-12, abs_tol=1e-9)

    def test_grouped_contract(self):
        rng = np.random.default_rng(3)
        n, k = 1_000, 5
        arrival = np.sort(rng.uniform(0, 10, n))
        service = rng.uniform(0.01, 0.5, n)
        server_idx = rng.integers(0, k, n)
        cohort = fifo_drain(arrival, service, server_idx, np.zeros(k))
        assert isinstance(cohort, DrainedCohort)
        assert cohort.bounds[0] == 0 and cohort.bounds[-1] == n
        for i in range(cohort.bounds.size - 1):
            lo, hi = cohort.bounds[i], cohort.bounds[i + 1]
            seg = cohort.server[lo:hi]
            assert (seg == seg[0]).all()  # one server per segment
            # FIFO within the segment: arrivals and completions ascend.
            assert (np.diff(cohort.arrival[lo:hi]) >= 0).all()
            assert (np.diff(cohort.completion[lo:hi]) >= 0).all()
        # order scatters the grouped arrays back to input order.
        np.testing.assert_array_equal(
            np.sort(cohort.order), np.arange(n)
        )
        back = np.empty(n)
        back[cohort.order] = cohort.arrival
        np.testing.assert_array_equal(back, arrival)

    def test_power_division_bit_identical(self):
        rng = np.random.default_rng(11)
        n, k = 2_000, 6
        arrival = np.sort(rng.uniform(0, 20, n))
        work = rng.uniform(0.1, 3.0, n)
        server_idx = rng.integers(0, k, n)
        power = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 2.0])
        a = fifo_drain(
            arrival, work / power[server_idx], server_idx, np.zeros(k)
        )
        b = fifo_drain(arrival, work.copy(), server_idx, np.zeros(k), power=power)
        np.testing.assert_array_equal(a.completion, b.completion)
        np.testing.assert_array_equal(a.service, b.service)

    def test_backlog_chains_across_cohorts(self):
        free_at = np.zeros(1)
        first = fifo_drain(
            np.array([0.0, 0.0]), np.array([5.0, 5.0]), np.zeros(2, int), free_at
        )
        assert free_at[0] == 10.0
        second = fifo_drain(
            np.array([1.0]), np.array([1.0]), np.zeros(1, int), free_at
        )
        # Queued behind the first cohort's backlog, not its own arrival.
        assert second.completion[0] == 11.0
        assert free_at[0] == 11.0

    def test_empty_cohort(self):
        free_at = np.array([2.5])
        cohort = fifo_drain(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), free_at
        )
        assert cohort.completion.size == 0
        assert cohort.bounds.tolist() == [0]
        assert free_at[0] == 2.5  # untouched

    def test_single_request(self):
        free_at = np.zeros(3)
        cohort = fifo_drain(
            np.array([4.0]), np.array([0.5]), np.array([2]), free_at
        )
        assert cohort.completion[0] == 4.5
        assert free_at.tolist() == [0.0, 0.0, 4.5]


def _reference_drain(arrival, service, server_idx, free_at, power=None):
    """fifo_drain's float operations in pure Python, one segment at a time.

    Groups requests by server in arrival order, then per segment: the
    division by power, a sequential prefix sum ``P``, ``P - s``, the
    slack ``a - (P - s)``, a running max seeded with the server's
    ``free_at``, and ``+ P``. Returns (completion, service) in grouped
    order and the updated ``free_at`` list.
    """
    free = [float(f) for f in free_at]
    completion, served = [], []
    for slot in sorted(set(int(x) for x in server_idx)):
        idx = [i for i in range(len(arrival)) if int(server_idx[i]) == slot]
        svc = [float(service[i]) for i in idx]
        if power is not None:
            svc = [x / float(power[slot]) for x in svc]
        prefix, acc = [], None
        for x in svc:
            acc = x if acc is None else acc + x
            prefix.append(acc)
        running = None
        for j, i in enumerate(idx):
            slack = float(arrival[i]) - (prefix[j] - svc[j])
            if running is None:
                running = free[slot] if slack < free[slot] else slack
            else:
                running = max(running, slack)
            completion.append(prefix[j] + running)
        served.extend(svc)
        free[slot] = completion[-1]
    return np.array(completion), np.array(served), free


def _mixed_cohort(rng, lengths, horizon=100.0):
    """A cohort whose server ``i`` receives ``lengths[i]`` requests,
    interleaved in arrival order."""
    server_idx = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    arrival = np.sort(rng.uniform(0.0, horizon, server_idx.size))
    work = rng.exponential(1.0, server_idx.size)
    return arrival, work, server_idx


def _assert_drain_matches_reference(arrival, work, server_idx, free_at, power):
    want_c, want_s, want_free = _reference_drain(
        arrival, work, server_idx, free_at, power
    )
    got_free = free_at.copy()
    cohort = fifo_drain(arrival, work.copy(), server_idx, got_free, power=power)
    np.testing.assert_array_equal(cohort.completion, want_c)
    np.testing.assert_array_equal(cohort.service, want_s)
    np.testing.assert_array_equal(got_free, np.array(want_free))


class TestFifoDrainBitExact:
    """Both drain layouts — the padded block for short segments, the
    per-segment loop for long ones — give the reference's exact bits."""

    LENGTHS = (1, _PADDED_CUT - 1, _PADDED_CUT, _PADDED_CUT + 1, 12 * _PADDED_CUT)

    @pytest.mark.parametrize("with_power", [False, True])
    def test_segments_either_side_of_the_cut(self, with_power):
        rng = np.random.default_rng(21)
        arrival, work, server_idx = _mixed_cohort(rng, self.LENGTHS)
        k = len(self.LENGTHS)
        power = rng.uniform(1.0, 9.0, k) if with_power else None
        _assert_drain_matches_reference(
            arrival, work, server_idx, np.zeros(k), power
        )

    @pytest.mark.parametrize("with_power", [False, True])
    def test_backlog_ahead_of_arrivals(self, with_power):
        rng = np.random.default_rng(22)
        arrival, work, server_idx = _mixed_cohort(rng, self.LENGTHS)
        k = len(self.LENGTHS)
        # Some queues are still busy past every arrival, some only
        # partway into the cohort, one is idle.
        free_at = np.array([250.0, 40.0, 0.0, 1e3, 55.5])
        power = rng.uniform(1.0, 9.0, k) if with_power else None
        _assert_drain_matches_reference(arrival, work, server_idx, free_at, power)

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=3 * _PADDED_CUT), min_size=1, max_size=12
        ).filter(any),
        backlog=st.lists(st.floats(0.0, 150.0), min_size=12, max_size=12),
        with_power=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_reference(self, lengths, backlog, with_power, seed):
        rng = np.random.default_rng(seed)
        arrival, work, server_idx = _mixed_cohort(rng, lengths)
        k = len(lengths)
        free_at = np.array(backlog[:k])
        power = rng.uniform(0.5, 9.0, k) if with_power else None
        _assert_drain_matches_reference(arrival, work, server_idx, free_at, power)


class TestRunHelpers:
    """The ``np.r_`` / ``np.unique`` replacements give the same arrays."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60))
    def test_run_bounds_match_the_index_trick(self, keys):
        keys = np.sort(np.array(keys, dtype=np.int16))
        want = np.r_[np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]), keys.size]
        got = run_bounds(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_run_bounds_of_nothing(self):
        assert run_bounds(np.empty(0, dtype=np.int16)).tolist() == [0]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0 / 3.0, 0.75, 1.0]),
            max_size=40,
        )
    )
    def test_sorted_unique_matches_np_unique(self, values):
        values = np.array(values, dtype=np.float64)
        want = np.unique(values)
        got = sorted_unique(values)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_sorted_unique_of_ints(self):
        idx = np.array([5, 1, 5, 3, 1], dtype=np.int32)
        got = sorted_unique(idx)
        assert got.dtype == np.int32
        assert got.tolist() == [1, 3, 5]

