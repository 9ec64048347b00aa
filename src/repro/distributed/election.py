"""Delegate election.

"each server ... reports it to an elected delegate server ... If the
delegate fails, the next elected delegate runs the same protocol with
the same information." (§4)

The election is a bully-style highest-id rule. Because the delegate is
stateless, the election needs no state transfer — any node that knows
the live membership can take over, which is why the simple rule
suffices and why :func:`elect` is a pure function: every node that
sees the same live membership picks the same delegate without sending
a message.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["elect"]


def elect(live_ids: Iterable[object]) -> object:
    """The bully rule: the highest-ordered live node is the delegate.

    Deterministic and stateless — every node evaluating the same live
    set picks the same delegate, with no communication needed beyond
    membership knowledge. Ids are compared by ``(type name, repr)`` so
    heterogeneous id types still order totally.
    """
    ids: List[object] = list(live_ids)
    if not ids:
        raise ValueError("cannot elect from an empty membership")
    return max(ids, key=lambda i: (type(i).__name__, repr(i), i if isinstance(i, (int, float, str)) else 0))

