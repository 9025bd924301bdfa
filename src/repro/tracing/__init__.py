"""Protocol-level event tracing, timeline and TAPE profile.

Enable with ``SystemConfig(event_log=True)``: the system then records a
structured log of protocol events (transaction boundaries, violations,
commit phases, directory actions) that can be filtered programmatically,
rendered as a per-processor ASCII timeline, or summarized as the TAPE
violation profile — the tools you want when a protocol change
misbehaves or a transaction starves.
"""

from repro.tracing.eventlog import EventLog, ProtocolEvent
from repro.tracing.tape import tape_report
from repro.tracing.timeline import render_timeline

__all__ = ["EventLog", "ProtocolEvent", "render_timeline", "tape_report"]
