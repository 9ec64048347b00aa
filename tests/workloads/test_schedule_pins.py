"""Every workload producer's schedule, pinned bit for bit.

Each pin is the :func:`workload_fingerprint` of the producer's output
(duration, catalog names, arrival-sorted columns) and a digest of its
catalog's per-file-set totals. A producer may change how it builds its
schedule, never what it builds: both digests must stay put.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.experiments.cache import workload_fingerprint
from repro.experiments.control import SMOKE_POINTS, _scalar_workload, _vector_workload
from repro.workloads import (
    ScaleConfig,
    ShiftConfig,
    SyntheticConfig,
    TraceConfig,
    generate_scale,
    generate_shifting,
    generate_synthetic,
    generate_trace_shaped,
    load_trace,
    save_trace,
)

PAPER_POINT, VECTOR_POINT = SMOKE_POINTS


def _round_trip():
    buf = io.StringIO()
    save_trace(
        generate_synthetic(
            SyntheticConfig(n_filesets=6, duration=300.0, target_requests=400), seed=5
        ),
        buf,
    )
    buf.seek(0)
    return load_trace(buf)


PRODUCERS = {
    "trace_shaped": lambda: generate_trace_shaped(
        TraceConfig(n_filesets=7, duration=600.0, target_requests=2_000), seed=3
    ),
    "shifting": lambda: generate_shifting(
        ShiftConfig(
            base=SyntheticConfig(n_filesets=12, duration=600.0, target_requests=1_500)
        ),
        seed=3,
    )[0],
    "scale": lambda: generate_scale(
        ScaleConfig(n_filesets=300, target_requests=5_000, duration=60.0), seed=3
    ),
    "control_vector_hotspot": lambda: _vector_workload(VECTOR_POINT, "hotspot", 1),
    "control_vector_flash": lambda: _vector_workload(VECTOR_POINT, "flash", 1),
    "control_vector_churn": lambda: _vector_workload(VECTOR_POINT, "churn", 1),
    "control_flash_merge": lambda: _scalar_workload(PAPER_POINT, "flash", 1),
    "trace_round_trip": _round_trip,
}

#: name -> (workload_fingerprint, catalog totals digest)
PINS = {
    "control_flash_merge": (
        "eda3999c373498369bf0e506fb1ad39ccaa1c25fcddaebbfcf639632d9eec5ec",
        "0a4064b8a4ae6fefa70d49a41b42096434127380175ba6f2d9a069cbfc81f7e1",
    ),
    "control_vector_churn": (
        "4df368152ace96921da038ffc96607888ec34f69281b48026652df8b54db4c14",
        "8546f9f386e08b99ec6c53644ee045f83009453fd12f605433771f22dac8dcbc",
    ),
    "control_vector_flash": (
        "ff869436f18dca14c67bae2ab5b82cb89047b81c1ad868ad528f57c53617a058",
        "9fe004bc3e06ab14d00927bf23012319d968a0d66547379580301b0e30d0bb60",
    ),
    "control_vector_hotspot": (
        "bd52f6c399cd822e56cc3ec56b7f4cc4d865afc7ebadd5b545b9cf151495c4fb",
        "deb50e6176343486cb7476a4af26d244e9219be72eed5c94b7a7102aebdb42f2",
    ),
    "scale": (
        "576a6b5dd375191178bf24ac686cf06c31832ba4c3553686defeb5a0b7f28bad",
        "2ba4cafad6e6bb09c26fa5c213965196ee2fb555cd62b1df60bbd1667753f02b",
    ),
    "shifting": (
        "3a989076be07b67e47fc8fa82c5a780bec8f44233c172ef258a95b5b9571dbca",
        "104b581703563c57d6ca4a1b890e85608f3bf603316967569b6665a338a56525",
    ),
    "trace_round_trip": (
        "b1da434b1e68fc74b78ea7bddf21a0c53991217e651f8abc21ee934dc5392221",
        "1452a05fce3b6c6118956744f5a548d2a60c0da79325d60c4192e1c2d7dd464d",
    ),
    "trace_shaped": (
        "e1d467c0b2789ad7b04b691a122eca0b6e37980d29696a52b82975bf9a13f239",
        "bc7f7a406dddcac89f3724baf63570a1b36ea00714dda326c55b541dda955623",
    ),
}

#: The ``work_share`` denominator of the paper-scale producers' catalogs:
#: a sequential sum in name order (Figure 7's movement shares divide by it).
TOTAL_WORK = {
    "control_flash_merge": 19289.484289718177,
    "shifting": 9192.112515247602,
    "trace_round_trip": 4557.479279631572,
    "trace_shaped": 8146.598522915201,
}


def catalog_digest(catalog) -> str:
    """Digest of every file set's ``(name, total_work, n_requests)``."""
    h = hashlib.sha256()
    for name in catalog.names:
        fs = catalog.get(name)
        h.update(repr((fs.name, fs.total_work, fs.n_requests)).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_schedule_pinned(producer):
    workload = PRODUCERS[producer]()
    assert (workload_fingerprint(workload), catalog_digest(workload.catalog)) == (
        PINS[producer]
    )


@pytest.mark.parametrize("producer", sorted(TOTAL_WORK))
def test_catalog_total_work_pinned(producer):
    assert PRODUCERS[producer]().catalog.total_work == TOTAL_WORK[producer]
