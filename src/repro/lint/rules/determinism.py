"""Determinism rules: sim-path code must be a pure function of its seed.

Every rule here protects the repo's bit-identical-replay guarantee
(``tests/test_determinism.py``): a simulation run is a deterministic
function of ``(config, workload, seed)``, on any machine, in any
process, at any ``--jobs`` setting.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lint.astutil import (
    call_name,
    dataclass_decorator,
    dotted_name,
    functions_in,
    walk_in_scope,
)
from repro.lint.base import Rule, register
from repro.lint.finding import Finding
from repro.lint.loader import Module

#: ``random.<fn>`` calls that draw from (or reseed) the *shared* module
#: RNG.  Only the ``Random`` class itself is allowed: instance-owned,
#: explicitly seeded generators.
_ALLOWED_RANDOM_ATTRS = {"Random"}

#: Wall-clock reads (suffix match on the dotted call name).
_WALLCLOCK_SUFFIXES = (
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime", "time.ctime",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)

#: Call names that hand work to the event queue or the network — the
#: sinks that make iteration order observable in the simulated world.
#: ``resume`` queues a parked process's next step, so the order of a
#: resume loop is the order in which the processes run.
_SCHEDULING_SINKS = {
    "multicast", "schedule_call", "schedule_many", "deliver", "resume",
}


def _is_scheduling_sink(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return "send" in last or last in _SCHEDULING_SINKS


@register
class GlobalRngRule(Rule):
    id = "det-global-rng"
    title = "no shared module-level random.* in sim-path code"
    rationale = (
        "The random module's top-level functions share one hidden global "
        "generator; any draw perturbs every other consumer's stream, so "
        "replay depends on call interleaving across the whole process. "
        "Sim-path code must own a random.Random(seed) instance."
    )
    scope = "sim"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _ALLOWED_RANDOM_ATTRS:
                        yield self.finding(
                            module, node.lineno,
                            f"`from random import {alias.name}` exposes the "
                            "shared global RNG; import only random.Random",
                        )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if (
                    name
                    and name.startswith("random.")
                    and name.split(".", 1)[1] not in _ALLOWED_RANDOM_ATTRS
                ):
                    yield self.finding(
                        module, node.lineno,
                        f"call to `{name}()` uses the shared global RNG; "
                        "use an instance-owned random.Random(seed)",
                    )


@register
class WallClockRule(Rule):
    id = "det-wallclock"
    title = "no wall-clock reads in sim-path code"
    rationale = (
        "Simulated time is the engine's cycle counter; reading the host "
        "clock makes behavior depend on machine load and breaks "
        "bit-identical replay and the content-addressed result cache."
    )
    scope = "sim"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names
                       if any(s.endswith("." + a.name) or s == "time." + a.name
                              for s in _WALLCLOCK_SUFFIXES)]
                for name in bad:
                    yield self.finding(
                        module, node.lineno,
                        f"`from time import {name}` imports a wall-clock "
                        "source into sim-path code",
                    )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name and any(
                    name == suffix or name.endswith("." + suffix)
                    for suffix in _WALLCLOCK_SUFFIXES
                ):
                    yield self.finding(
                        module, node.lineno,
                        f"wall-clock read `{name}()`; simulated code must "
                        "use engine.now",
                    )


@register
class EnvironmentRule(Rule):
    id = "det-env"
    title = "no environment access in sim-path code"
    rationale = (
        "os.environ varies per host and shell; a simulation outcome that "
        "depends on it cannot be replayed from its spec, and the cache "
        "key (which hashes only the spec) would collide across genuinely "
        "different runs."
    )
    scope = "sim"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name == "os.environ":
                    yield self.finding(
                        module, node.lineno,
                        "os.environ read in sim-path code; thread explicit "
                        "config through SystemConfig instead",
                    )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in ("os.getenv", "getenv"):
                    yield self.finding(
                        module, node.lineno,
                        "os.getenv in sim-path code; thread explicit config "
                        "through SystemConfig instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in ("environ", "getenv"):
                        yield self.finding(
                            module, node.lineno,
                            f"`from os import {alias.name}` imports "
                            "environment access into sim-path code",
                        )


@register
class ModuleLevelRngRule(Rule):
    id = "det-owned-rng"
    title = "RNG objects must be instance-owned, not module globals"
    rationale = (
        "A module-level Random instance is shared by every object in the "
        "process; two systems running in one process (e.g. the in-process "
        "--jobs 1 runner, or a test suite) would interleave draws and "
        "diverge from their single-run streams.  Seeded generators belong "
        "to the object that draws from them."
    )
    scope = "sim"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in module.tree.body:
            targets: List[ast.AST] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not isinstance(value, ast.Call):
                continue
            name = call_name(value)
            if name and name.rsplit(".", 1)[-1] in ("Random", "SystemRandom"):
                label = ", ".join(
                    dotted_name(t) or "<target>" for t in targets
                )
                yield self.finding(
                    module, node.lineno,
                    f"module-level RNG `{label} = {name}(...)`; RNGs must be "
                    "owned by the object that draws from them",
                )


class _SetInference:
    """Conservative, syntactic set-typed-expression inference for one
    function scope (annotations + local assignments, to a fixpoint)."""

    _SET_METHOD_RESULTS = {
        "union", "intersection", "difference", "symmetric_difference", "copy",
    }
    _SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def __init__(self, function: ast.AST) -> None:
        self.set_names: Set[str] = set()
        args = function.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.annotation is not None and self._annotation_is_set(arg.annotation):
                self.set_names.add(arg.arg)
        # Fixpoint over local assignments (x = set(); y = x | {1} ...).
        for _ in range(4):
            grew = False
            for node in walk_in_scope(function):
                target = None
                value = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                if (
                    isinstance(target, ast.Name)
                    and target.id not in self.set_names
                    and value is not None
                    and self.is_set_expr(value)
                ):
                    self.set_names.add(target.id)
                    grew = True
            if not grew:
                break

    @staticmethod
    def _annotation_is_set(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        name = dotted_name(annotation)
        return bool(name) and name.rsplit(".", 1)[-1].lower() in (
            "set", "frozenset",
        )

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._SET_METHOD_RESULTS
                and self.is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


@register
class UnorderedIterationRule(Rule):
    id = "det-unordered-iter"
    title = "no unordered-collection iteration feeding event scheduling"
    rationale = (
        "Set iteration order is a function of hash-table layout — an "
        "implementation detail that varies with insertion history, "
        "interpreter build, and element type.  When such a loop sends "
        "messages or schedules events, the event stream (and therefore "
        "the whole run) inherits that accident.  Iterate sorted(...) "
        "instead; the same applies to scheduling straight off "
        "dict.values() (sort, or iterate sorted keys)."
    )
    scope = "sim"

    def check(self, module: Module) -> Iterable[Finding]:
        for function in functions_in(module.tree):
            inference = _SetInference(function)
            for node in walk_in_scope(function):
                if isinstance(node, ast.For):
                    yield from self._check_loop(
                        module, inference, node.iter, node.body, node.lineno
                    )
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    body = (
                        [node.key, node.value]
                        if isinstance(node, ast.DictComp)
                        else [node.elt]
                    )
                    for generator in node.generators:
                        yield from self._check_loop(
                            module, inference, generator.iter, body,
                            node.lineno,
                        )

    def _check_loop(self, module, inference, iterable, body, line):
        over_set = inference.is_set_expr(iterable)
        over_values = (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr == "values"
        )
        if not (over_set or over_values):
            return
        sink = self._first_sink(body)
        if sink is None:
            return
        what = "a set" if over_set else "dict.values()"
        yield self.finding(
            module, line,
            f"iteration over {what} feeds `{sink}` — event order would "
            "depend on hash-table layout; iterate sorted(...) instead",
        )

    @staticmethod
    def _first_sink(body) -> "str | None":
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    name = call_name(node)
                    if name and _is_scheduling_sink(name):
                        return name
        return None


@register
class IdOrderingRule(Rule):
    id = "det-id-order"
    title = "no id()-based ordering"
    rationale = (
        "id() is a memory address: unique within a run, meaningless "
        "across runs.  Sorting by it launders nondeterminism into code "
        "that looks ordered.  Sort by a stable domain key (node id, TID, "
        "line address) instead."
    )
    scope = "sim"

    _ORDERING_CALLS = {"sorted", "min", "max", "sort"}

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if not name or name.rsplit(".", 1)[-1] not in self._ORDERING_CALLS:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                if self._uses_id(keyword.value):
                    yield self.finding(
                        module, node.lineno,
                        f"`{name.rsplit('.', 1)[-1]}(..., key=...)` orders "
                        "by id(); use a stable domain key",
                    )

    @staticmethod
    def _uses_id(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            return any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                for node in ast.walk(key.body)
            )
        return False


@register
class SlottedMessageRule(Rule):
    id = "det-slots"
    title = "message/event dataclasses must declare __slots__"
    rationale = (
        "Message and event objects are the simulator's highest-volume "
        "allocations; __slots__ makes them materially cheaper, and — the "
        "determinism angle — a slotted class cannot grow ad-hoc "
        "attributes mid-run, so a message's identity is exactly its "
        "declared fields (what the fault injector duplicates and the "
        "cache key hashes)."
    )
    scope = "sim"

    _MESSAGE_MODULES = {"messages", "message", "events", "eventlog"}
    _MESSAGE_MARKERS = {"traffic_class", "payload_bytes"}

    def check(self, module: Module) -> Iterable[Finding]:
        in_message_module = (
            module.name.rsplit(".", 1)[-1] in self._MESSAGE_MODULES
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = dataclass_decorator(node)
            if decorator is None:
                continue
            if not (in_message_module or self._has_marker(node)):
                continue
            if self._is_slotted(node, decorator):
                continue
            yield self.finding(
                module, node.lineno,
                f"message/event dataclass `{node.name}` has no __slots__; "
                "use @dataclass(slots=True)",
            )

    def _has_marker(self, node: ast.ClassDef) -> bool:
        for statement in node.body:
            names: List[str] = []
            if isinstance(statement, ast.Assign):
                names = [t.id for t in statement.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                names = [statement.target.id]
            elif isinstance(statement, ast.FunctionDef):
                names = [statement.name]
            if any(name in self._MESSAGE_MARKERS for name in names):
                return True
        return False

    @staticmethod
    def _is_slotted(node: ast.ClassDef, decorator: ast.AST) -> bool:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        for statement in node.body:
            if isinstance(statement, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in statement.targets
            ):
                return True
        return False
