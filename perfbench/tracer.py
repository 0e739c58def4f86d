"""Spans around the calls into each qnetfair module, installed from outside.

The tracer wraps a function object and rebinds the wrapper in every
qnetfair module namespace that holds the original, which is where the
program looks it up (``shortest_path`` lives in ``routing``, ``fairshare``
and ``engine``). Each call adds its count and time to its own totals and
to the (caller span, callee) pair, so hot leaf calls cost no storage per
call; only ``schedule_slot`` keeps one duration per slot. ``installed``
restores every original binding on exit.

A target that no longer exists (a later change inlined it) is skipped and
reads zero calls; its time then shows up as its caller's self time.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from types import ModuleType
from typing import Callable, Iterable, Iterator

# Functions traced, named by the module that defines them.
TARGETS = (
    "scenario_io.parse_scenario",
    "validate.validate_scenario",
    "routing.shortest_path",
    "fairshare.assign_greedy",
    "fairshare.assign_exhaustive",
    "fairshare.predicted_app_rates",
    "fairshare.maxmin_rates",
    "engine.run",
    "engine.resolve_assignment",
    "engine.build_flows",
    "engine.sample_capacity",
    "engine.poisson_sample",
    "engine.resolve_successes",
    "scheduling.schedule_slot",
    "scheduling.enqueue_arrivals",
    "scheduling.select_flow",
)


class Stat:
    __slots__ = ("calls", "s", "self_s", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.hits = 0  # calls that returned something other than None


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.pairs: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, s]
        self.slot_spans: list[tuple[float, float]] = []  # schedule_slot (start, seconds)
        self.grants = 0
        self.last_state = None
        self.missing: list[str] = []
        self._stack: list[list] = [["<root>", 0.0]]  # [name, child seconds]
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        is_slot = name == "scheduling.schedule_slot"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - frame[1]
                parent[1] += dt
                pair = self.pairs.setdefault((parent[0], name), [0, 0.0])
                pair[0] += 1
                pair[1] += dt
            if result is not None:
                stat.hits += 1
            if is_slot:
                self.slot_spans.append((start - self._t0, dt))
                self.grants += sum(getattr(result, "per_flow", {}).values())
                self.last_state = args[0]
            return result

        return traced

    def pending_end(self) -> int:
        """Requests still queued after the last traced slot (0 when backlogged)."""
        queues = getattr(self.last_state, "queues", {})
        return sum(len(q) for q in queues.values())

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers, named ``<module>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for name in TARGETS + ("cli.main",):
            st = self.stats.get(name, Stat())
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
        sel = self.stats.get("scheduling.select_flow", Stat())
        out["scheduling.select_flow.hit_ratio"] = sel.hits / sel.calls if sel.calls else 0.0
        slot_us = [dt * 1e6 for _, dt in self.slot_spans]
        if len(slot_us) < 2:  # quantiles needs two samples; 0 when no slot ran
            slot_us = (slot_us or [0.0]) * 2
        cuts = statistics.quantiles(slot_us, n=100, method="inclusive")
        out["scheduling.schedule_slot.p50_us"] = cuts[49]
        out["scheduling.schedule_slot.p99_us"] = cuts[98]
        out["scheduling.grants"] = self.grants
        slot_s = self.stats.get("scheduling.schedule_slot", Stat()).s
        out["scheduling.us_per_grant"] = slot_s * 1e6 / self.grants if self.grants else 0.0
        out["scheduling.pending_end"] = self.pending_end()
        return out

    def dump(self) -> dict:
        """Everything recorded, for the results file."""
        return {
            "pairs": [
                {"caller": c, "callee": f, "calls": n, "s": s}
                for (c, f), (n, s) in sorted(self.pairs.items())
            ],
            "schedule_slot_spans": [[round(t, 7), round(d, 7)] for t, d in self.slot_spans],
            "missing": self.missing,
        }


@contextlib.contextmanager
def installed(tracer: Tracer, modules: Iterable[ModuleType]) -> Iterator[None]:
    """Rebind every target to its traced wrapper; restore on exit."""
    modules = list(modules)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo: list[tuple[ModuleType, str, object]] = []
    try:
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(by_name.get(mod_name), fn_name, None)
            if original is None:
                tracer.missing.append(target)
                continue
            wrapper = tracer.wrap(target, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        yield
    finally:
        for mod, fn_name, original in reversed(undo):
            setattr(mod, fn_name, original)
