"""The TAPE violation profile, as a report over the event log.

The paper (Section 3.3) points programmers at TAPE (Chafi et al., "TAPE:
a transactional application profiling environment") to find starving
transactions.  Hardware knows, at abort time, which line caused a
violation, which processor committed it and how much work was discarded.
The event log already records those facts, so the profile is a view
over it: totals come from the processors' counters, attribution from
the ``violation`` and ``tx_abort`` events.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

#: Entries listed per ranking (lines, transactions, processor pairs).
TOP = 8


def tape_report(system: Any) -> str:
    """The TAPE profile of a finished run of ``system``.

    The first ``violation`` on a node before its ``tx_abort`` is the
    abort's cause; an abort with no cause counts as line -1 and
    committer -1, which the listings leave out.
    """
    log = system.events
    if log is None:
        raise ValueError("the TAPE report needs SystemConfig(event_log=True)")
    by_line: Counter = Counter()
    wasted_by_line: Counter = Counter()
    by_label: Counter = Counter()
    by_pair: Counter = Counter()  # (committer, victim)
    causes: Dict[int, Dict[str, Any]] = {}
    for event in log.events:
        if event.category == "violation":
            causes.setdefault(event.node, event.fields)
        elif event.category == "tx_abort":
            cause = causes.pop(event.node, {"line": -1, "committer": -1})
            abort = event.fields
            by_line[cause["line"]] += 1
            wasted_by_line[cause["line"]] += abort["wasted"]
            by_label[abort["label"] or f"tx{abort['tx']}"] += 1
            by_pair[(cause["committer"], event.node)] += 1

    stats = [p.stats for p in system.processors]
    overflows = sum(
        p.hierarchy.stats.speculative_overflows for p in system.processors
    )
    lines = [
        "TAPE report",
        f"  violations          : {sum(s.violations for s in stats)}",
        f"  wasted cycles       : {sum(s.violation_cycles for s in stats):,}",
        f"  retained (starving) : {sum(s.tid_retentions for s in stats)}",
        f"  buffer overflows    : {overflows}",
    ]
    hot = [(line, n) for line, n in by_line.most_common(TOP) if line >= 0]
    if hot:
        lines.append("  hottest conflict lines:")
        for line, count in hot:
            lines.append(
                f"    line {line:#x}: {count} violations, "
                f"{wasted_by_line[line]:,} wasted cycles"
            )
    if by_label:
        lines.append("  most-violated transactions:")
        for label, count in by_label.most_common(TOP):
            lines.append(f"    {label}: {count}")
    pairs = [(pair, n) for pair, n in by_pair.most_common(TOP) if pair[0] >= 0]
    if pairs:
        lines.append("  committer -> victim pairs:")
        for (committer, victim), count in pairs:
            lines.append(f"    P{committer} -> P{victim}: {count}")
    return "\n".join(lines)
