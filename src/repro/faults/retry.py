"""Resend on a timer, with capped exponential backoff.

The hardened protocol never blocks on a single delivery: every
commit-critical request (TID request, probe, mark, commit, load) gets a
:class:`Retrier` that re-sends it until a ``done`` predicate holds, and
every fire-and-forget broadcast that the protocol *depends* on for
global progress (skips, aborts) gets an :class:`AckTracker` that
re-sends to exactly the directories that have not acknowledged yet.

Both helpers live entirely in the event queue — the commit FSM keeps
its shape and simply observes acks arriving as usual.  Timers that
outlive their request degrade to no-ops (the ``done`` check runs before
any resend), so a quiesced system drains naturally.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Set

#: First resend ``RETRY_TIMEOUT`` cycles after the request; each retry
#: multiplies the wait by ``RETRY_BACKOFF``, up to ``RETRY_TIMEOUT_CAP``.
RETRY_TIMEOUT = 2000
RETRY_BACKOFF = 2
RETRY_TIMEOUT_CAP = 32_000


class Retrier:
    """Re-send one request until ``done()`` returns True.

    The first check fires ``RETRY_TIMEOUT`` cycles after creation; each
    retry multiplies the wait by ``RETRY_BACKOFF``, up to
    ``RETRY_TIMEOUT_CAP``.  There is no
    retry limit: the non-blocking guarantee wants eventual delivery, and
    the progress watchdog — not a give-up path — owns hang detection.
    """

    __slots__ = ("engine", "resend", "done", "timeout", "retries", "stats")

    def __init__(
        self,
        engine: Any,
        resend: Callable[[], None],
        done: Callable[[], bool],
        stats: Any = None,
    ) -> None:
        self.engine = engine
        self.resend = resend
        self.done = done
        self.timeout = RETRY_TIMEOUT
        self.retries = 0
        self.stats = stats
        engine.schedule_call(self.timeout, self._tick)

    def _tick(self) -> None:
        if self.done():
            return
        self.resend()
        self.retries += 1
        if self.stats is not None:
            self.stats.retries += 1
        self.timeout = min(RETRY_TIMEOUT_CAP, self.timeout * RETRY_BACKOFF)
        self.engine.schedule_call(self.timeout, self._tick)


class AckTracker:
    """Background re-send of a broadcast until every target acks.

    ``make_send(node)`` must (re)issue the message to one node.  The
    initial broadcast is the caller's job (it usually multicasts);
    the tracker only handles the retry tail.
    """

    __slots__ = ("pending", "_retrier")

    def __init__(
        self,
        engine: Any,
        targets: Iterable[int],
        make_send: Callable[[int], None],
        stats: Any = None,
    ) -> None:
        self.pending: Set[int] = set(targets)

        def resend() -> None:
            for node in sorted(self.pending):
                make_send(node)

        self._retrier = Retrier(engine, resend, self.all_acked, stats)

    def acked(self, node: int) -> None:
        self.pending.discard(node)

    def all_acked(self) -> bool:
        return not self.pending
