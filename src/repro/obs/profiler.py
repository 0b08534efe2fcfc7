"""Wall-clock profiling of the simulator itself.

The ROADMAP's "fast as the hardware allows" goal needs evidence about
where *host* time goes before any hot path is optimised.
:class:`TickProfiler` wraps every registered component's ``tick`` with a
``perf_counter`` pair and aggregates wall-clock cost per component, so a
profiled run reports which subsystem (SMs, crossbars, LLC slices,
memory controllers) dominates.

Profiling is strictly opt-in: an unprofiled simulator calls component
``tick`` methods directly with zero indirection. ``attach`` swaps the
entries of ``Simulator.components`` for timing proxies and ``detach``
restores the originals, so the cost exists only while measuring.

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
    """Stand-in that times one component's ``tick`` calls.

    The proxy is transparent to the engine's activity contract: the
    awake flag and sleep bookkeeping live on the wrapped component
    (ingress ``wake()`` calls land there, since routing sinks hold
    references to the real component), so ``_awake``/``_idle_since``/
    ``_wake_at`` delegate, and ``wake``/``on_skipped`` forward.  A
    profiled run therefore skips exactly the ticks an unprofiled run
    would -- profiling no longer forces every component back onto the
    hot path -- and the proxy counts the skips it is told about.
    """

    __slots__ = ("inner", "name", "ticks", "seconds", "skipped")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
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
        verdict = self.inner.tick(now)
        self.seconds += time.perf_counter() - start
        self.ticks += 1
        return verdict

    # -- activity contract (delegated to the wrapped component) --------

    @property
    def _awake(self) -> bool:
        return self.inner._awake

    @_awake.setter
    def _awake(self, value: bool) -> None:
        self.inner._awake = value

    @property
    def _idle_since(self) -> int:
        return self.inner._idle_since

    @_idle_since.setter
    def _idle_since(self, value: int) -> None:
        self.inner._idle_since = value

    @property
    def _wake_at(self) -> float:
        return self.inner._wake_at

    @_wake_at.setter
    def _wake_at(self, value: float) -> None:
        self.inner._wake_at = value

    @property
    def tracer(self):
        return self.inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.inner.tracer = value

    def wake(self) -> None:
        self.inner.wake()

    def on_skipped(self, cycles: int) -> None:
        self.skipped += cycles
        self.inner.on_skipped(cycles)


class TickProfiler:
    """Aggregates per-component wall-clock tick cost for one simulator."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._proxies: List[_TickProxy] = []
        self._originals: List[object] = []

    @classmethod
    def attach(cls, sim) -> "TickProfiler":
        """Wrap every currently registered component of a simulator."""
        profiler = cls(sim)
        profiler._originals = list(sim.components)
        profiler._proxies = [
            _TickProxy(component) for component in sim.components
        ]
        sim.components[:] = profiler._proxies
        return profiler

    def detach(self) -> None:
        """Restore the unwrapped components (idempotent)."""
        if self._originals:
            self.sim.components[:] = self._originals
            self._originals = []

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
