"""The probe store hashes what is read, and only that, bit for bit.

:class:`~repro.core.vector.ProbeMatrix` keeps one dense round-0 column,
pooled rows for the deeper rounds and one offset-sorted index over all
of it. These tests pin the properties the relocation path stands on —
values equal :meth:`HashFamily.offset` whatever the order of reads and
merges, the index holds exactly what was hashed, the interval scan
equals a brute-force one — and the names ``bench/`` rebinds at run time.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.core.vector as core_vector
from repro.core import HashFamily
from repro.core.vector import ProbeMatrix, SegmentTable

NAMES = st.lists(
    st.text(min_size=1, max_size=12), min_size=1, max_size=40, unique=True
)


@st.composite
def reads(draw):
    """A name list, a family, and a sequence of ``(indices, round)`` reads
    — any order, with repeats, skipping rounds — some followed by an
    index merge."""
    names = draw(NAMES)
    family = HashFamily(seed=draw(st.integers(0, 2**32)), max_probes=12)
    index = st.integers(0, len(names) - 1)
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(index, min_size=0, max_size=2 * len(names)),
                st.integers(0, family.max_probes - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return names, family, steps


class TestOffsetsAt:
    @settings(max_examples=150, deadline=None)
    @given(reads())
    def test_equals_scalar_offset_through_growth_and_merges(self, case):
        names, family, steps = case
        probes = ProbeMatrix(names, family)
        for indices, round_, merge in steps:
            idx = np.asarray(indices, dtype=np.int64)
            got = probes.offsets_at(idx, round_)
            want = [family.offset(names[i], round_) for i in indices]
            assert got.tolist() == want
            if merge:
                probes.index()
        # Earlier reads survived every later row move.
        for indices, round_, _ in steps:
            idx = np.asarray(indices, dtype=np.int64)
            assert np.array_equal(
                probes.offsets_at(idx, round_), probes.column(round_)[idx]
            )

    @settings(max_examples=100, deadline=None)
    @given(reads())
    def test_index_holds_each_hashed_probe_once(self, case):
        names, family, steps = case
        digests = []
        hashed = family.batch_offsets
        family.batch_offsets = lambda batch, r=0: (
            digests.append(len(batch)) or hashed(batch, r)
        )
        probes = ProbeMatrix(names, family)
        read = set()
        for indices, round_, merge in steps:
            probes.offsets_at(np.asarray(indices, dtype=np.int64), round_)
            read.update((i, round_) for i in indices)
            if merge:
                probes.index()
        offsets, name_idx, rounds = probes.index()
        assert np.all(offsets[1:] >= offsets[:-1])
        entries = list(zip(name_idx.tolist(), rounds.tolist()))
        assert len(set(entries)) == len(entries) == sum(digests)
        assert read <= set(entries)
        for off, (i, r) in zip(offsets.tolist(), entries):
            assert off == family.offset(names[i], r)

    def test_non_ascii_names_hash_as_utf8(self):
        names = ["/fs/ünï", "/fs/文件集", "/fs/🗂", "/fs/plain"]
        family = HashFamily(seed=5)
        probes = ProbeMatrix(names, family)
        for round_ in (0, 1, 4):
            got = probes.offsets_at(np.arange(len(names)), round_)
            assert got.tolist() == [family.offset(n, round_) for n in names]

    def test_empty_batch_is_an_empty_float_array(self):
        out = HashFamily(seed=1).batch_offsets([], 3)
        assert out.shape == (0,) and out.dtype == np.float64
        probes = ProbeMatrix(["a"], HashFamily(seed=1))
        assert probes.offsets_at(np.empty(0, dtype=np.int64), 2).shape == (0,)


class TestInIntervals:
    @settings(max_examples=100, deadline=None)
    @given(
        reads(),
        st.lists(st.floats(0.0, 1.0), min_size=0, max_size=10, unique=True),
    )
    def test_equals_brute_force_over_the_index(self, case, cuts):
        names, family, steps = case
        probes = ProbeMatrix(names, family)
        cuts = sorted(cuts)[: len(cuts) // 2 * 2]
        starts = np.asarray(cuts[0::2], dtype=np.float64)
        ends = np.asarray(cuts[1::2], dtype=np.float64)
        for indices, round_, merge in steps:
            probes.offsets_at(np.asarray(indices, dtype=np.int64), round_)
            if merge:
                probes.index()
            # Scanned before the merge (two runs) and after it (one).
            got = sorted(zip(*(a.tolist() for a in probes.in_intervals(starts, ends))))
            offsets, name_idx, rounds = probes.index()
            inside = np.zeros(offsets.size, dtype=bool)
            for lo, hi in zip(starts, ends):
                inside |= (offsets >= lo) & (offsets < hi)
            assert got == sorted(zip(name_idx[inside].tolist(), rounds[inside].tolist()))


class TestBenchBindings:
    """``bench/layers.py`` wraps these by ``owner.__dict__[name]`` on every
    traced pass (``bench/test_bench.py`` is outside tier-1): a rename is
    a ``KeyError`` there, so it has to fail here first."""

    def test_names_the_tracer_rebinds_exist_where_it_looks(self):
        for owner, attrs in (
            (HashFamily, ("batch_offsets",)),
            (ProbeMatrix, ("column", "sorted_column", "rounds_materialized")),
            (SegmentTable, ("from_layout", "patched")),
            (core_vector, ("batched_locate", "segment_delta", "fifo_drain")),
        ):
            for attr in attrs:
                assert attr in vars(owner), f"{owner.__name__}.{attr}"

    def test_their_results_have_the_shape_the_tracer_reads(self):
        family = HashFamily(seed=2)
        # core.hashing.digests is batch_offsets(...).shape[0].
        assert family.batch_offsets(["a", "b", "c"], 1).shape[0] == 3
        probes = ProbeMatrix(["a", "b", "c"], family)
        assert probes.column(2).shape == (3,)
        probes.offsets_at(np.array([0, 2]), 1)
        offsets, name_idx = probes.sorted_column(1)
        assert offsets.tolist() == sorted(family.offset(n, 1) for n in ("a", "c"))
        assert sorted(name_idx.tolist()) == [0, 2]
        assert probes.rounds_materialized == 2  # 1 (read) and 2 (dense)
