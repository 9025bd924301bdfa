"""Per-layer spans for one simulated machine, recorded from outside it.

Nothing in ``src/repro`` knows about this module.  :func:`install` wraps
the public entry points of one :class:`~repro.core.system.ScalableTCCSystem`
instance (and, through :func:`verify_spans`, the two verification entry
points, which the system looks up at call time), so a traced run executes
exactly the same simulation as an untraced one.

The tracer keeps one span stack.  A span's *self* time is its duration
minus the time of the spans nested inside it, so the layers' self times
add up to the root span, ``ScalableTCCSystem.run``, by construction.
Engine callbacks are wrapped as they are scheduled and attributed to
their owner:

* a ``Process`` named ``dir*`` is ``directory``, one named ``cpu*`` is
  ``processor``;
* a callback bound to an object of ``repro.network``, ``repro.directory``,
  ``repro.processor`` or ``repro.faults`` (interconnect delivery,
  delayed directory sends, ``Retrier``, the watchdog, ``FaultInjector``)
  belongs to that layer;
* everything else (event fan-out, timeouts, barriers) is ``sim``.

:func:`attribution_errors` checks what the construction does not: that
the root span covers the externally timed run, and that every engine
event but those queued before the wrappers existed ran in a span.

Raw keys starting with ``_`` feed those checks and ratios; they are not
reported.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping

from repro.sim import Process
from repro.verify import invariants
from repro.verify.serializability import SerializabilityChecker

#: Layers with spans; ``runner`` numbers come from ``RunnerStats`` instead.
LAYERS = (
    "sim", "network", "directory", "processor", "memory",
    "core", "faults", "verify",
)

#: Layers a callback's owning object can name through its module.
_OWNER_LAYERS = frozenset({"network", "directory", "processor", "faults"})
_PROCESS_LAYERS = {"dir": "directory", "cpu": "processor"}

#: ``PrivateHierarchy`` operations the processor calls (``stats`` is a
#: property and stays unwrapped).
MEMORY_OPS = (
    "load", "store", "fill", "peek", "invalidate", "invalidate_words",
    "flushed", "extract_for_writeback", "written_lines", "read_lines",
    "commit_speculative", "abort_speculative", "read_set_bytes",
    "write_set_bytes",
)
_ACCESS_OPS = frozenset({"load", "store"})

_STEP = Process._step

#: Largest share of a traced run's externally timed seconds that may lie
#: outside the root span: the wrappers' own entry and exit.
ROOT_TOLERANCE = 0.01


class SpanTracer:
    """A span stack that charges self time to layers and counts calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: Dict[str, int] = {
            "sim.proc_steps": 0, "directory.msgs": 0, "memory.accesses": 0,
            "_callbacks": 0,
        }
        self.root_s = 0.0
        self._stack: List[List[float]] = []
        self._module_layers: Dict[str, str] = {}

    def span(self, layer: str, fn: Callable, count: str = "") -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``count`` names a call
        counter to bump on every call."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if count:
                counts[count] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed

        return traced

    def callback(self, fn: Callable) -> Callable:
        """An engine callback wrapped in a span of its owner's layer.
        Every call is counted, as a process step or in ``_callbacks``."""
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Process):
            layer = _PROCESS_LAYERS.get(owner.name[:3], "sim")
            if fn.__func__ is _STEP:
                return self.span(layer, fn, "sim.proc_steps")
            return self.span(layer, fn, "_callbacks")
        module = (type(owner).__module__ if owner is not None
                  else getattr(fn, "__module__", None) or "")
        layer = self._module_layers.get(module)
        if layer is None:
            parts = module.split(".")
            layer = (parts[1] if parts[0] == "repro" and len(parts) > 2
                     and parts[1] in _OWNER_LAYERS else "sim")
            self._module_layers[module] = layer
        return self.span(layer, fn, "_callbacks")


def install(tracer: SpanTracer, system: Any) -> None:
    """Wrap one constructed system's entry points in ``tracer`` spans.

    The directory processes' first steps are queued while the system is
    constructed, before this runs; those few callbacks stay unwrapped
    and their (tiny) time is charged to ``sim``.
    """
    engine = system.engine
    schedule_call = engine.schedule_call
    schedule_many = engine.schedule_many
    callback = tracer.callback

    def traced_schedule_call(delay: int, fn: Callable, *arg: Any) -> None:
        schedule_call(delay, callback(fn), *arg)

    def traced_schedule_many(delay: int, fns: Any, *arg: Any) -> None:
        schedule_many(delay, [callback(fn) for fn in fns], *arg)

    engine.schedule_call = traced_schedule_call
    engine.schedule_many = traced_schedule_many
    engine.run = tracer.span("sim", engine.run)

    network = system.network
    network.send = tracer.span("network", network.send)
    network.multicast = tracer.span("network", network.multicast)
    for directory in system.directories:
        directory.deliver = tracer.span(
            "directory", directory.deliver, "directory.msgs")
    for processor in system.processors:
        processor.deliver = tracer.span("processor", processor.deliver)
        hierarchy = processor.hierarchy
        for op in MEMORY_OPS:
            setattr(hierarchy, op, tracer.span(
                "memory", getattr(hierarchy, op),
                "memory.accesses" if op in _ACCESS_OPS else ""))
    system.vendor.next_tid = tracer.span("core", system.vendor.next_tid)
    system.run = tracer.span("core", system.run)


@contextmanager
def verify_spans(tracer: SpanTracer) -> Iterator[None]:
    """Charge serial replay and the invariant sweep to ``verify``.

    ``ScalableTCCSystem.run`` creates its checker and imports the
    invariant check at call time, so both are patched for the duration
    of the block and restored afterwards.
    """
    check = SerializabilityChecker.check
    check_invariants = invariants.check_system_invariants
    SerializabilityChecker.check = tracer.span("verify", check)
    invariants.check_system_invariants = tracer.span("verify", check_invariants)
    try:
        yield
    finally:
        SerializabilityChecker.check = check
        invariants.check_system_invariants = check_invariants


def raw_layer_counts(tracer: SpanTracer, system: Any, result: Any,
                     wall_s: float) -> Dict[str, float]:
    """Additive per-layer numbers of one traced run: self times, the
    tracer's call counts and the run's own stats objects.  ``wall_s`` is
    the run's externally timed seconds.  Sums of these over several runs
    are still meaningful; :func:`derive` turns them into the reported
    ratios."""
    raw: Dict[str, float] = {f"{layer}.self_s": tracer.self_s[layer]
                             for layer in LAYERS}
    raw.update(tracer.counts)
    raw["trace.root_s"] = tracer.root_s
    raw["_wall_s"] = wall_s
    raw["sim.events"] = result.events_executed
    # The directories' first steps are queued while the machine is built,
    # before install(): one unwrapped callback per directory.
    raw["_prequeued"] = len(system.directories)

    traffic = result.traffic
    raw["network.packets"] = traffic.packets
    raw["network.bytes"] = traffic.total_bytes
    for cls, count in traffic.bytes_by_class.items():
        raw[f"network.bytes.{cls}"] = count

    dir_stats = result.directory_stats
    raw["directory.busy_cycles"] = sum(s.busy_cycles for s in dir_stats)
    raw["directory.loads_stalled"] = sum(s.loads_stalled for s in dir_stats)

    procs = result.proc_stats
    raw["processor.commits"] = sum(s.committed_transactions for s in procs)
    raw["processor.violations"] = sum(s.violations for s in procs)
    raw["processor.load_retries"] = sum(s.load_retries for s in procs)
    for key in ("useful", "miss", "idle", "commit", "violation"):
        raw[f"processor.cycles.{key}"] = sum(s.breakdown()[key] for s in procs)
    for key in ("tid", "probe", "ack"):
        raw[f"processor.commit_cycles.{key}"] = sum(
            s.commit_phase_breakdown()[key] for s in procs)

    cache_stats = [p.hierarchy.stats for p in system.processors]
    raw["_memory.hits"] = sum(s.hits for s in cache_stats)
    raw["_memory.lookups"] = sum(s.accesses for s in cache_stats)

    raw["core.finish_cycle"] = max(s.total_cycles for s in procs)
    raw["core.result_cycles"] = result.cycles
    raw["core.tids"] = system.vendor.highest_issued

    faults = result.fault_stats
    for key in ("retries", "drops", "duplicates", "stale_drops"):
        raw[f"faults.{key}"] = getattr(faults, key) if faults else 0
    return raw


def add_raw(total: Dict[str, float], raw: Dict[str, float]) -> None:
    """Key-wise sum into ``total`` (for a sweep's jobs)."""
    for key, value in raw.items():
        total[key] = total.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: Dict[str, float], untraced_wall_s: float,
           traced_wall_s: float) -> Dict[str, float]:
    """The reported per-layer metrics from additive raw numbers.

    ``untraced_wall_s`` is the wall time of the same work with tracing
    off: it turns event counts into a rate and gives ``trace.overhead``.
    """
    metrics = {key: value for key, value in raw.items()
               if not key.startswith("_")}
    metrics["sim.events_per_s"] = _ratio(raw["sim.events"], untraced_wall_s)
    metrics["directory.us_per_msg"] = 1e6 * _ratio(
        raw["directory.self_s"], raw["directory.msgs"])
    metrics["processor.commit_ratio"] = _ratio(
        raw["processor.commits"],
        raw["processor.commits"] + raw["processor.violations"])
    metrics["memory.ns_per_access"] = 1e9 * _ratio(
        raw["memory.self_s"], raw["memory.accesses"])
    metrics["memory.hit_rate"] = _ratio(raw["_memory.hits"], raw["_memory.lookups"])
    metrics["trace.overhead"] = _ratio(traced_wall_s, untraced_wall_s)
    return metrics


def attribution_errors(raw: Mapping[str, float]) -> List[str]:
    """What the spans missed in one traced run (or a sweep's summed runs).

    The layer self times add up to the root span by construction, so
    their sum proves nothing.  These two checks can fail: the root span
    must cover the externally timed run to within ``ROOT_TOLERANCE``, and
    every executed engine event must have run in a callback span, but for
    those queued before :func:`install`.  An event scheduled by a path the
    wrappers do not cover would have its time charged to ``sim`` unseen.
    """
    errors = []
    wall = raw["_wall_s"]
    outside = wall - raw["trace.root_s"]
    if not 0 <= outside <= ROOT_TOLERANCE * wall:
        errors.append(f"the root span misses {outside:.3g} s of the "
                      f"{wall:.3g} s traced run")
    unseen = raw["sim.events"] - raw["sim.proc_steps"] - raw["_callbacks"]
    if not 0 <= unseen <= raw["_prequeued"]:
        errors.append(f"{unseen:.0f} engine events ran outside every layer "
                      f"span (at most {raw['_prequeued']:.0f} may)")
    return errors
