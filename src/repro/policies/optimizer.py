"""Assignment optimizer shared by the prescient-class policies.

Dynamic prescient "realizes the optimal load balance through
identifying the permutation of file sets onto servers that minimizes
average latency" (§5.1); the virtual-processor system runs the same
procedure with VPs as the items. This module implements that search:

* an **estimated-average-latency objective** under an M/M/1-style
  queueing model per server (service rate = power, offered rate = the
  items' work), with a steep-but-finite penalty above a utilization
  cap so overloaded configurations compare monotonically;
* **LPT greedy seeding** (largest item first onto the server where the
  objective grows least) when no warm start exists;
* **local search** (single-item moves, then pairwise swaps) to a local
  optimum, warm-started from the incumbent assignment so optimal
  placements that are already optimal do not churn items.

Everything is deterministic: ties break on item/server order.
:class:`BalanceMemo` is the search as the policies call it each round:
it skips a solve whose inputs equal the last one's.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["estimated_average_latency", "balance_items", "BalanceMemo"]

#: Utilization above which the queueing estimate switches to a linear
#: penalty (an M/M/1 latency diverges at ρ=1; a finite steep slope keeps
#: the search space totally ordered).
_RHO_CAP = 0.95
_PENALTY_SLOPE = 400.0


def estimated_average_latency(
    loads: Mapping[object, float],
    powers: Mapping[object, float],
    interval: float = 1.0,
) -> float:
    """Estimated mean request latency of an assignment.

    ``loads[i]`` is the work (units) offered to server ``i`` over
    ``interval`` seconds; ``powers[i]`` its service rate. Each server is
    modeled as an M/M/1 queue in units of work: utilization
    ``ρ = load / (power * interval)`` and a request's expected response
    time scales as ``1 / (power * (1 - ρ))``. The returned value is the
    work-weighted average over servers — the latency the average request
    would see — so minimizing it is the paper's objective.
    """
    return _score(loads, {sid: _term(load, powers, sid, interval) for sid, load in loads.items()})


def _term(load: float, powers: Mapping[object, float], sid: object, interval: float) -> float:
    """Server ``sid``'s ``load * t`` share of the objective (0 when idle)."""
    if load <= 0:
        return 0.0
    power = powers[sid]
    rho = load / (power * interval)
    if rho < _RHO_CAP:
        t = 1.0 / (power * (1.0 - rho))
    else:
        t = 1.0 / (power * (1.0 - _RHO_CAP)) + _PENALTY_SLOPE * (rho - _RHO_CAP) / power
    return load * t


def _score(loads: Mapping[object, float], terms: Mapping[object, float]) -> float:
    """The terms, summed in server order, over the total load."""
    total = sum(loads.values())
    if total <= 0:
        return 0.0
    acc = 0.0
    for term in terms.values():
        acc += term
    return acc / total


def balance_items(
    items: Mapping[str, float],
    powers: Mapping[object, float],
    interval: float = 1.0,
    current: Optional[Mapping[str, object]] = None,
    max_passes: int = 30,
) -> Dict[str, object]:
    """Assign items to servers minimizing estimated average latency.

    Parameters
    ----------
    items:
        Item name → offered work over the interval. Zero-work items stay
        on their current server (nothing to gain by moving them, and
        moving is never free).
    powers:
        Server id → service rate. Must be non-empty.
    interval:
        Length of the interval over which ``items`` offer their work.
    current:
        Warm-start assignment. Items on dead servers (ids absent from
        ``powers``) are treated as unassigned.
    max_passes:
        Local-search pass budget; the search almost always converges in
        a handful of passes for paper-scale instances (50 items × 5
        servers).

    Returns
    -------
    dict
        Item name → server id, a local optimum of the objective.
    """
    if not powers:
        raise ValueError("no servers to assign to")
    server_order: List[object] = list(powers)
    assignment: Dict[str, object] = {}
    loads: Dict[object, float] = {sid: 0.0 for sid in server_order}

    # Seed: warm start where valid, LPT for the rest.
    unplaced: List[Tuple[str, float]] = []
    for name, work in items.items():
        sid = current.get(name) if current else None
        if sid is not None and sid in loads:
            assignment[name] = sid
            loads[sid] += work
        else:
            unplaced.append((name, work))
    unplaced.sort(key=lambda kv: (-kv[1], kv[0]))
    for name, work in unplaced:
        best_sid, best_val = None, None
        for sid in server_order:
            loads[sid] += work
            val = estimated_average_latency(loads, powers, interval)
            loads[sid] -= work
            if best_val is None or val < best_val - 1e-15:
                best_sid, best_val = sid, val
        assignment[name] = best_sid
        loads[best_sid] += work

    # Local search: moves, then swaps, until a full quiet pass. The
    # acceptance margin must scale with the objective: candidate loads
    # are maintained incrementally, so a mathematically-equal
    # configuration (e.g. swapping items between equal-power servers)
    # re-evaluates with rounding noise proportional to the score's
    # magnitude, and an absolute epsilon would accept it as an
    # "improvement" and churn a local optimum forever.
    item_order = sorted(items, key=lambda n: (-items[n], n))
    movable = [n for n in item_order if items[n] > 0]
    # Each server's ``load * t`` term, in step with ``loads``: a candidate
    # computes the two it changes; a rejected one restores them.
    terms = {sid: _term(loads[sid], powers, sid, interval) for sid in server_order}

    def shift(s1: object, d1: float, s2: object, d2: float, bar: float) -> Optional[float]:
        """Add ``d1`` to ``s1``'s load and ``d2`` to ``s2``'s; keep the shift
        and return its score if below ``bar``, else undo it and return None."""
        load1, term1, load2, term2 = loads[s1], terms[s1], loads[s2], terms[s2]
        loads[s1] = new1 = load1 + d1
        loads[s2] = new2 = load2 + d2
        terms[s1] = _term(new1, powers, s1, interval)
        terms[s2] = _term(new2, powers, s2, interval)
        val = _score(loads, terms)
        if val < bar:
            return val
        loads[s1] = new1 = new1 - d1
        loads[s2] = new2 = new2 - d2
        terms[s1] = term1 if new1 == load1 else _term(new1, powers, s1, interval)
        terms[s2] = term2 if new2 == load2 else _term(new2, powers, s2, interval)
        return None

    for _ in range(max_passes):
        improved = False
        score = _score(loads, terms)
        margin = 1e-9 * (score if score > 1.0 else 1.0)
        # single-item moves
        for name in movable:
            work = items[name]
            src = assignment[name]
            for dst in server_order:
                if dst == src:
                    continue
                val = shift(src, -work, dst, work, score - margin)
                if val is not None:
                    assignment[name] = dst
                    score = val
                    margin = 1e-9 * (score if score > 1.0 else 1.0)
                    src = dst
                    improved = True
        # pairwise swaps (catch what moves cannot: exchanging unequal items)
        for i, a in enumerate(movable):
            for b in movable[i + 1 :]:
                sa, sb = assignment[a], assignment[b]
                if sa == sb:
                    continue
                wa, wb = items[a], items[b]
                val = shift(sa, wb - wa, sb, wa - wb, score - margin)
                if val is not None:
                    assignment[a], assignment[b] = sb, sa
                    score = val
                    margin = 1e-9 * (score if score > 1.0 else 1.0)
                    improved = True
        if not improved:
            break
    return assignment


class BalanceMemo:
    """:func:`balance_items` over one interval, remembering its last solve.

    The oracle policies re-solve every tuning round, and most rounds
    hand the search what the last one did: the run-constant demand, the
    same powers, and the incumbent the last solve returned. A call whose
    items and powers equal the last call's, in order (ties break on
    order), and whose incumbent maps every name as the last one did,
    returns the last result instead of searching again.
    :func:`balance_items` is pure, so every decision is the one a fresh
    solve makes. The result is shared between such calls: callers must
    not write into it.
    """

    __slots__ = ("interval", "_key", "_result")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self._key: Optional[tuple] = None
        self._result: Dict[str, object] = {}

    def __call__(
        self,
        items: Mapping[str, float],
        powers: Mapping[object, float],
        current: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        # The search reads items and powers in order, the incumbent by
        # name only.
        key = (tuple(items.items()), tuple(powers.items()), current and dict(current))
        if key != self._key:
            self._result = balance_items(items, powers, self.interval, current=current)
            self._key = key
        return self._result
