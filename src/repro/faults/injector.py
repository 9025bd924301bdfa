"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to the interconnect and the node models.

The interconnect hands every outbound message copy (with its endpoints
and fault-free delivery delay) to :meth:`FaultInjector.dispatch`, which
draws from the plan-seeded PRNG and either delivers the message
normally, drops it (retryable messages only — otherwise the drop is
downgraded to a delay), delivers it twice, delays it, or holds it so a
later message on the same rule overtakes it.  All decisions are
deterministic functions of (plan seed, packet order), so every faulty
run replays exactly.

When the interconnect has no injector attached, no code here runs at
all — the fault-free event stream, RNG draws, and timings are
bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan

#: Mixed into the plan seed so the fault stream never aliases the
#: interconnect's jitter stream even when both use the same seed value.
_SEED_SALT = 0x9E3779B97F4A7C15


@dataclass
class FaultStats:
    """What the injector (and the hardened protocol) actually did."""

    packets_seen: int = 0
    drops: int = 0
    downgraded_drops: int = 0  # drop chosen for a non-retryable message
    duplicates: int = 0
    delays: int = 0
    reorders: int = 0
    reorder_backstops: int = 0  # held packets released by timeout, not overtake
    retries: int = 0            # end-to-end resends by the hardened protocol
    stale_drops: int = 0        # duplicate/stale protocol messages ignored
    dir_stall_cycles: int = 0
    cpu_pause_cycles: int = 0
    livelock_episodes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "packets_seen": self.packets_seen,
            "drops": self.drops,
            "downgraded_drops": self.downgraded_drops,
            "duplicates": self.duplicates,
            "delays": self.delays,
            "reorders": self.reorders,
            "reorder_backstops": self.reorder_backstops,
            "retries": self.retries,
            "stale_drops": self.stale_drops,
            "dir_stall_cycles": self.dir_stall_cycles,
            "cpu_pause_cycles": self.cpu_pause_cycles,
            "livelock_episodes": self.livelock_episodes,
        }

    @property
    def injected_total(self) -> int:
        return (
            self.drops + self.downgraded_drops + self.duplicates
            + self.delays + self.reorders
        )


class FaultInjector:
    """Executes a fault plan against one simulated machine."""

    def __init__(
        self,
        plan: FaultPlan,
        n_nodes: int,
        stats: Optional[FaultStats] = None,
        event_log: Any = None,
    ) -> None:
        self.plan = plan
        self.n_nodes = n_nodes
        self.stats = stats if stats is not None else FaultStats()
        self.event_log = event_log
        self._rng = Random((plan.seed << 20) ^ _SEED_SALT)
        #: ``(index, rule, filtered)`` per packet rule; a rule without
        #: filters matches every packet, so its ``matches`` is skipped.
        self._rules = [
            (index, rule, rule.filtered)
            for index, rule in enumerate(plan.packet_faults)
        ]
        # Per-rule held delivery for "reorder": ((dst, msg), deliver_at).
        self._held: Dict[int, Tuple[Tuple[int, Any], int]] = {}
        # Per-node stall/pause windows, precomputed and sorted by start.
        self._dir_windows = {
            node: sorted(plan.node_windows("dir_stall", node))
            for node in range(n_nodes)
            if plan.node_windows("dir_stall", node)
        }
        self._cpu_windows = {
            node: sorted(plan.node_windows("cpu_pause", node))
            for node in range(n_nodes)
            if plan.node_windows("cpu_pause", node)
        }

    # ------------------------------------------------------------------
    # packet faults
    # ------------------------------------------------------------------

    def dispatch(
        self, engine: Any, deliver: Any, src: int, dst: int, msg: Any, delay: int
    ) -> None:
        """Deliver ``msg`` from ``src`` to ``dst`` subject to the plan's
        packet faults.

        ``deliver`` is the interconnect's delivery callback, called with
        ``(dst, msg)``; the injector owns all scheduling so drops never
        enter the event queue at all.
        """
        stats = self.stats
        stats.packets_seen += 1
        now = engine.now
        action: Optional[str] = None
        rule_index = -1
        rule = None
        for index, candidate, filtered in self._rules:
            if filtered and not candidate.matches(src, dst, msg.traffic_class, now):
                continue
            if self._rng.random() < candidate.probability:
                action, rule, rule_index = candidate.kind, candidate, index
                break
        item = (dst, msg)
        if action is None:
            engine.schedule_call(delay, deliver, item)
            return

        if action == "drop" and not getattr(type(msg), "retryable", False):
            # No end-to-end retry protects this message; model link-level
            # retransmission instead of loss.
            action = "delay"
            stats.downgraded_drops += 1

        if action == "drop":
            stats.drops += 1
            self._log(now, src, dst, msg, kind="drop")
            return
        if action == "delay":
            extra = 1 + self._rng.randrange(rule.delay)
            stats.delays += 1
            self._log(now, src, dst, msg, kind="delay", extra=extra)
            engine.schedule_call(delay + extra, deliver, item)
            return
        if action == "dup":
            extra = 1 + self._rng.randrange(rule.delay)
            stats.duplicates += 1
            self._log(now, src, dst, msg, kind="dup", extra=extra)
            engine.schedule_call(delay, deliver, item)
            engine.schedule_call(delay + extra, deliver, item)
            return
        # reorder: hold this message; the next message matching the same
        # rule overtakes it (the held one lands just after).  A backstop
        # timer bounds the hold so held messages are never lost.
        stats.reorders += 1
        self._log(now, src, dst, msg, kind="reorder")
        previous = self._held.pop(rule_index, None)
        self._held[rule_index] = (item, now + delay)
        engine.schedule_call(
            rule.delay, self._release_backstop, (rule_index, item, deliver)
        )
        if previous is not None:
            held_item, held_deliver_at = previous
            release_at = max(held_deliver_at, now + delay + 1)
            engine.schedule_call(release_at - now, deliver, held_item)

    def _release_backstop(self, args: Tuple) -> None:
        rule_index, item, deliver = args
        held = self._held.get(rule_index)
        if held is None or held[0] is not item:
            return  # already released by an overtaking message
        del self._held[rule_index]
        self.stats.reorder_backstops += 1
        deliver(item)

    # ------------------------------------------------------------------
    # node faults
    # ------------------------------------------------------------------

    @staticmethod
    def _pause_in(windows: List[Tuple[int, int]], now: int) -> int:
        pause = 0
        for start, end in windows:
            if start <= now < end:
                pause = max(pause, end - now)
        return pause

    def dir_stall_pause(self, node: int, now: int) -> int:
        """Remaining stall cycles if the node's directory is down at ``now``."""
        windows = self._dir_windows.get(node)
        if not windows:
            return 0
        pause = self._pause_in(windows, now)
        if pause:
            self.stats.dir_stall_cycles += pause
        return pause

    def cpu_pause(self, node: int, now: int) -> int:
        """Remaining pause cycles if the node's processor is down at ``now``."""
        windows = self._cpu_windows.get(node)
        if not windows:
            return 0
        pause = self._pause_in(windows, now)
        if pause:
            self.stats.cpu_pause_cycles += pause
        return pause

    @property
    def has_dir_stalls(self) -> bool:
        return bool(self._dir_windows)

    @property
    def has_cpu_pauses(self) -> bool:
        return bool(self._cpu_windows)

    # ------------------------------------------------------------------

    def _log(self, now: int, src: int, dst: int, msg: Any, **fields: Any) -> None:
        if self.event_log is not None:
            self.event_log.log(
                now, "fault", src, dst=dst, msg=type(msg).__name__, **fields,
            )
