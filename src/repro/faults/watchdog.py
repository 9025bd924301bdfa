"""Engine-level progress watchdog.

A hang is the one failure mode a discrete-event simulator cannot shrug
off: with retry timers in play the event queue never drains, so a
wedged protocol spins forever instead of hitting the old
``SimulationTimeout`` deadlock diagnosis.  The watchdog samples global
progress (machine-wide committed transactions) every
``watchdog_interval`` cycles; after :data:`STALL_CHECKS` consecutive
flat samples while work remains it raises
:class:`WatchdogStall` carrying a structured snapshot of every
processor, directory, and the TID vendor — turning a hang into a
diagnosis.

It also watches per-transaction livelock: a processor whose
consecutive-violation count reaches :data:`LIVELOCK_ABORT_THRESHOLD` gets a
structured ``watchdog`` event in the trace (once per episode) and a
``livelock_episodes`` tick in the fault stats.  Livelock is *reported*,
not raised — TID retention is the protocol's own cure, and the paper's
claim is precisely that retained transactions eventually win; the
global stall check still fires if they do not.
"""

from __future__ import annotations

from typing import Any, Dict, Set

#: Consecutive aborts of one transaction before the watchdog reports a
#: livelock episode (diagnostic only; TID retention is the cure).
LIVELOCK_ABORT_THRESHOLD = 64

#: Consecutive commit-free ``watchdog_interval`` windows, while work
#: remains, before the watchdog raises :class:`WatchdogStall`.
STALL_CHECKS = 4


class WatchdogStall(RuntimeError):
    """No global progress for the configured window; ``report`` has the
    full machine snapshot (also rendered into the message)."""

    def __init__(self, message: str, report: Dict[str, Any]) -> None:
        super().__init__(message)
        self.report = report


def _snapshot(system: Any) -> Dict[str, Any]:
    """A structured picture of where every protocol actor is stuck."""
    processors = []
    for proc in system.processors:
        processors.append({
            "node": proc.node,
            "finished": proc.finished,
            "in_transaction": proc.in_transaction,
            "current_tid": proc.current_tid,
            "validated": proc.validated,
            "retained": proc.retained,
            "consecutive_violations": proc._consecutive_violations,
            "committed": proc.stats.committed_transactions,
            "violations": proc.stats.violations,
        })
    directories = [
        {"node": directory.node, "nstid": directory.nstid,
         **directory.in_flight()}
        for directory in system.directories
    ]
    report: Dict[str, Any] = {
        "cycle": system.engine.now,
        "processors": processors,
        "directories": directories,
        "vendor_outstanding": system.vendor.outstanding,
        "vendor_highest_issued": system.vendor.highest_issued,
    }
    stats = getattr(system, "fault_stats", None)
    if stats is not None:
        report["fault_stats"] = stats.as_dict()
    return report


def format_stall_report(report: Dict[str, Any]) -> str:
    """Render the snapshot as the multi-line diagnostic users see."""
    lines = [f"cycle {report['cycle']}: no commit progress"]
    for proc in report["processors"]:
        if proc["finished"]:
            continue
        lines.append(
            f"  cpu {proc['node']}: tid={proc['current_tid']} "
            f"in_tx={proc['in_transaction']} validated={proc['validated']} "
            f"retained={proc['retained']} "
            f"consec_violations={proc['consecutive_violations']} "
            f"committed={proc['committed']}"
        )
    for d in report["directories"]:
        if (
            d["active_commit_tid"] is None
            and not d["pending_probes"]
            and not d["stalled_loads"]
            and not d["pending_forwards"]
            and not d["awaiting_words"]
        ):
            continue
        lines.append(
            f"  dir {d['node']}: nstid={d['nstid']} "
            f"active={d['active_commit_tid']} probes={d['pending_probes']} "
            f"stalled={d['stalled_loads']} forwards={d['pending_forwards']} "
            f"awaiting={d['awaiting_words']}"
        )
    if report["vendor_outstanding"]:
        lines.append(f"  vendor outstanding: {report['vendor_outstanding']}")
    if "fault_stats" in report:
        interesting = {
            k: v for k, v in report["fault_stats"].items() if v
        }
        lines.append(f"  fault stats: {interesting}")
    return "\n".join(lines)


class ProgressWatchdog:
    """Periodic progress sampler attached to one system run.

    Armed by :class:`~repro.core.system.ScalableTCCSystem` exactly when
    the config has a fault plan.
    """

    def __init__(self, system: Any, stats: Any = None) -> None:
        config = system.config
        self.system = system
        self.stats = stats
        self.interval = config.watchdog_interval
        self._last_commits = -1
        self._flat_ticks = 0
        self._livelocked: Set[int] = set()
        self.event_log = system.events

    def start(self) -> None:
        self.system.engine.schedule_call(self.interval, self._tick)

    def _tick(self) -> None:
        system = self.system
        if all(proc.finished for proc in system.processors):
            return  # done; stop ticking so the queue can drain
        self._check_livelock()
        commits = sum(
            proc.stats.committed_transactions for proc in system.processors
        )
        if commits > self._last_commits:
            self._last_commits = commits
            self._flat_ticks = 0
        else:
            self._flat_ticks += 1
            if self._flat_ticks >= STALL_CHECKS:
                report = _snapshot(system)
                if self.event_log is not None:
                    self.event_log.log(
                        system.engine.now, "watchdog", -1,
                        kind="stall", commits=commits,
                        window=self.interval * self._flat_ticks,
                    )
                raise WatchdogStall(
                    f"watchdog: no commit for "
                    f"{self.interval * self._flat_ticks} cycles\n"
                    + format_stall_report(report),
                    report,
                )
        system.engine.schedule_call(self.interval, self._tick)

    def _check_livelock(self) -> None:
        for proc in self.system.processors:
            count = proc._consecutive_violations
            if count >= LIVELOCK_ABORT_THRESHOLD:
                if proc.node not in self._livelocked:
                    self._livelocked.add(proc.node)
                    if self.stats is not None:
                        self.stats.livelock_episodes += 1
                    if self.event_log is not None:
                        self.event_log.log(
                            self.system.engine.now, "watchdog", proc.node,
                            kind="livelock", aborts=count,
                            tid=proc.current_tid, retained=proc.retained,
                        )
            else:
                self._livelocked.discard(proc.node)
