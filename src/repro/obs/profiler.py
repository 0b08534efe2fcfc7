"""Wall-clock profiling of the simulator itself.

The ROADMAP's "fast as the hardware allows" goal needs evidence about
where *host* time goes before any hot path is optimised.
:class:`TickProfiler` wraps every registered component's ``tick`` with a
``perf_counter`` pair and aggregates wall-clock cost per component, so a
profiled run reports which subsystem (SMs, crossbars, LLC slices,
memory controllers) dominates.

Profiling is strictly opt-in: an unprofiled simulator calls component
``tick`` methods directly with zero indirection. ``attach`` swaps the
``tick`` and ``on_skipped`` callables on each component's engine record
for timing wrappers and ``detach`` restores the originals, so the cost
exists only while measuring. ``Simulator.components`` is never touched.

Usage::

    system = build_system(gpu, topo)
    profiler = TickProfiler.attach(system.sim)
    system.run_workload(workload)
    print(profiler.report())
"""

from __future__ import annotations

import time
from typing import Dict, List


class _TickProxy:
    """Times one component's ``tick`` calls and counts its skips.

    :meth:`TickProfiler.attach` installs :meth:`tick` and
    :meth:`on_skipped` on the component's engine record in place of the
    component's own.  The awake flag and sleep bookkeeping stay on the
    record, where ingress ``wake()`` calls land too, so a profiled run
    skips exactly the ticks an unprofiled run would, and the proxy
    counts the skips it is told about.
    """

    __slots__ = ("slot", "name", "inner_tick", "inner_on_skipped", "ticks",
                 "seconds", "skipped")

    def __init__(self, slot) -> None:
        self.slot = slot
        self.name = slot.component.name
        #: The record's callables before wrapping (restored on detach).
        self.inner_tick = slot.tick
        self.inner_on_skipped = slot.on_skipped
        self.ticks = 0
        self.seconds = 0.0
        #: Strict-mode ticks the engine elided for this component.
        self.skipped = 0

    def tick(self, now: int) -> object:
        """Forward one cycle to the wrapped component, timed.

        The inner verdict (True / False / int deadline) passes through
        unchanged so timed wakeups survive profiling.
        """
        start = time.perf_counter()
        verdict = self.inner_tick(now)
        self.seconds += time.perf_counter() - start
        self.ticks += 1
        return verdict

    def on_skipped(self, cycles: int) -> None:
        """Count elided ticks; forward them to the component's hook."""
        self.skipped += cycles
        hook = self.inner_on_skipped
        if hook is not None:
            hook(cycles)


class TickProfiler:
    """Aggregates per-component wall-clock tick cost for one simulator."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._proxies: List[_TickProxy] = []
        self._attached = False

    @classmethod
    def attach(cls, sim) -> "TickProfiler":
        """Wrap every currently registered component of a simulator."""
        profiler = cls(sim)
        for component in sim.components:
            slot = component._slot
            proxy = _TickProxy(slot)
            slot.tick = proxy.tick
            slot.on_skipped = proxy.on_skipped
            profiler._proxies.append(proxy)
        profiler._attached = True
        return profiler

    def detach(self) -> None:
        """Restore the unwrapped callables (idempotent)."""
        if self._attached:
            for proxy in self._proxies:
                proxy.slot.tick = proxy.inner_tick
                proxy.slot.on_skipped = proxy.inner_on_skipped
            self._attached = False

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds spent inside component ticks."""
        return sum(proxy.seconds for proxy in self._proxies)

    def by_component(self) -> Dict[str, float]:
        """Seconds per component name, descending."""
        return dict(sorted(
            ((proxy.name, proxy.seconds) for proxy in self._proxies),
            key=lambda pair: pair[1], reverse=True,
        ))

    def by_group(self) -> Dict[str, float]:
        """Seconds per component family (name stripped of digits).

        Groups ``sm0..sm15`` into ``sm``, ``llc3`` into ``llc`` and so
        on -- the per-subsystem view optimisation work starts from.
        """
        groups: Dict[str, float] = {}
        for proxy in self._proxies:
            group = proxy.name.rstrip("0123456789")
            groups[group] = groups.get(group, 0.0) + proxy.seconds
        return dict(sorted(
            groups.items(), key=lambda pair: pair[1], reverse=True,
        ))

    def report(self, top: int = 10) -> str:
        """A text table of the costliest component families."""
        total = self.total_seconds
        lines = [f"tick profile: {total * 1e3:.1f} ms in component ticks"]
        ticks = sum(proxy.ticks for proxy in self._proxies)
        if ticks:
            lines[0] += f" ({ticks} ticks)"
        skipped = sum(proxy.skipped for proxy in self._proxies)
        if skipped:
            lines[0] += f" ({skipped} skipped by quiescence)"
        for group, seconds in list(self.by_group().items())[:top]:
            share = (seconds / total * 100.0) if total else 0.0
            lines.append(
                f"  {group:<10} {seconds * 1e3:9.1f} ms  {share:5.1f}%"
            )
        return "\n".join(lines)
