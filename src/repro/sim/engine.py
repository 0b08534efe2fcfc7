"""The cycle-driven simulation engine.

The engine advances a set of :class:`Component` objects one cycle at a
time. Components are ticked in registration order, which the system
builders arrange to follow the request flow (SMs -> links/NoC -> LLC
slices -> memory controllers -> reply paths) so that a request can make
at most one hop per cycle, as in a real pipelined design. After every
component has ticked, the cycle counter advances and any due clock
hooks (:meth:`Simulator.every`) fire -- hook callbacks therefore see a
consistent end-of-cycle state.

Hooks are scheduled by per-hook next-fire cycles relative to their
registration point, not by ``cycle % period``: a hook registered on a
simulator that has already run keeps its own period from the moment of
registration instead of snapping to absolute multiples of the period.

Quiescence skipping (docs/PERFORMANCE.md)
-----------------------------------------

Most cycles, most components have nothing to do: SMs whose warps are
all waiting on memory, LLC slices with empty queues, links with nothing
in flight. Ticking them anyway is pure Python overhead, so the engine
maintains an *activity contract*:

* Every ``tick`` returns the component's activity verdict.  ``True``
  is a promise that every future ``tick`` would be a no-op until an
  *external* event arrives; the engine then stops ticking the
  component.  ``False`` (or ``None``) keeps it awake.
* External events (a request pushed into an ingress queue, a reply
  delivered, a kernel launched) call :meth:`Component.wake`, which puts
  the component back on the active list.  A component woken before its
  registration slot in the current cycle still ticks this cycle --
  exactly the visibility order strict mode produces.
* A component that knows *when* its next real work arrives (a delay
  line matures at ``t+latency``, a DRAM bank is busy until ``t_ready``,
  a link's in-flight packet lands) returns that cycle number instead
  of ``True``: a **timed wakeup**.  The engine parks the component on
  a min-heap of deadlines and re-wakes it at the deadline cycle, so
  the component is ticked at the first cycle a strict-mode tick would
  have done real work.  Each component keeps at most one live heap
  entry, at the earliest deadline it asked for (``wake_at`` on its
  record); a later verdict adds nothing, and a popped entry that no
  longer matches ``wake_at`` is dropped.  An ingress ``wake()`` leaves
  the entry in place, so it can cause one early tick -- and an early
  tick is the tick strict mode runs at that cycle, so results stay
  identical.
* Components whose skipped ticks would have advanced per-cycle
  counters (an SM counts stall cycles even when fully blocked) define
  an ``on_skipped(cycles)`` method; the engine reports the exact
  number of skipped cycles before the next tick, before any clock hook
  fires, and before ``run``/``run_until`` return, so every observation
  point sees counters identical to strict mode's.  Components without
  such counters leave ``on_skipped`` at ``None`` and cost no call.
* When *every* component is asleep, ``run``/``run_until`` fast-forward
  the clock to ``min(next wakeup deadline, next hook deadline)`` (or
  the chunk/run end) instead of stepping cycle by cycle; hooks due at
  the landing cycle fire before the re-woken components tick there,
  preserving strict mode's end-of-cycle hook ordering.

The engine keeps this state in one slotted record per component
(:class:`_Slot`: the bound ``tick``, the ``on_skipped`` hook, the awake
flag, the first unticked cycle and the live deadline), not on the
components.  The hot loop then reads the same attributes of the same
type at every site, which CPython 3.11 specializes once; reading them
off five component classes kept those loads on the generic path
(docs/PERFORMANCE.md, "Monomorphic hot paths").

``Simulator(strict=True)`` disables all of this and ticks every
component every cycle -- the escape hatch for debugging a suspected
equivalence violation.  The equivalence bar is strict: a quiescence
run must produce field-identical statistics and identical trace event
streams (tests/test_engine_quiescence.py).

Every component carries a ``tracer`` attribute (the shared disabled
:data:`~repro.obs.tracer.NULL_TRACER` by default) so instrumentation
sites can guard event emission with one attribute check; see
docs/TRACING.md.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.stats import StatsRegistry

#: Sentinel next-fire cycle when no clock hooks are registered.
_NEVER = float("inf")

#: Shortest deadline horizon worth a timed sleep, in cycles from now.
#: A sleep/wake round trip (heap entry, on_skipped replay) costs more
#: host time than a couple of near-no-op ticks, so verdicts due sooner
#: than this keep the component awake.  Components return their raw
#: next-event cycle and leave this floor to the engine.  Purely a
#: host-speed knob: staying awake is always result-identical.
_MIN_TIMED_SLEEP = 2


class _Slot:
    """The engine's record of one component.

    Holds everything the cycle loop reads per component: the component,
    its bound ``tick``, its ``on_skipped`` hook (``None`` when it has
    none), the awake flag, the first cycle it did not tick and the
    deadline of its live timed-wakeup heap entry.  One class for every
    component keeps the loop's attribute loads on CPython's specialized
    paths.  :class:`Component` creates its record, :meth:`Simulator.add`
    binds ``tick`` and ``on_skipped``, and a profiler may swap both for
    timed wrappers (:mod:`repro.obs.profiler`).
    """

    __slots__ = ("component", "tick", "on_skipped", "awake", "idle_since",
                 "wake_at")

    def __init__(self, component: "Component") -> None:
        self.component = component
        #: The callable the engine ticks (set by :meth:`Simulator.add`).
        self.tick: Optional[Callable[[int], object]] = None
        #: Skip-accounting hook, or None when skips need no replay.
        self.on_skipped: Optional[Callable[[int], None]] = None
        #: False while the engine is skipping this component.
        self.awake = True
        #: First cycle this component did not tick (-1 = none pending);
        #: the engine uses it to report exact skip counts.
        self.idle_since = -1
        #: Deadline of the live timed-wakeup heap entry (``_NEVER`` =
        #: none).  Heap entries at any other deadline are stale and
        #: dropped when popped.
        self.wake_at = _NEVER


class Component:
    """Base class for everything that does per-cycle work.

    The activity contract is :meth:`tick`, which returns the verdict,
    :meth:`wake`, which re-activates after an external event, and an
    optional ``on_skipped(cycles)`` method, which reproduces per-cycle
    counters of elided ticks.  A ``tick`` that returns nothing never
    sleeps, which keeps arbitrary components correct.  The engine's
    bookkeeping for the component lives on its record, ``_slot``.
    """

    #: Shared disabled tracer; replaced per instance when a run is
    #: traced (:meth:`repro.obs.tracer.Tracer.bind`).
    tracer: Tracer = NULL_TRACER

    #: ``on_skipped(cycles)`` accounts ``cycles`` skipped ticks: the
    #: exact number of strict-mode ticks the engine elided since the
    #: component went to sleep (or since the last report).  Define it
    #: when the quiescent tick would still have advanced per-cycle
    #: counters; ``None`` tells the engine there is nothing to replay.
    on_skipped: Optional[Callable[[int], None]] = None

    def __init__(self, name: str) -> None:
        self.name = name
        #: Owning simulator (set by :meth:`Simulator.add`).
        self._sim: Optional["Simulator"] = None
        #: The engine's record of this component.  Created here so
        #: :meth:`wake` works before registration.
        self._slot = _Slot(self)
        #: Pre-created per instance (shadowing the class default) so
        #: :meth:`~repro.obs.tracer.Tracer.bind` replaces an existing
        #: ``__dict__`` key instead of growing the dict of every hot
        #: component -- the resize measurably slows all attribute
        #: lookups on those instances.
        self.tracer = NULL_TRACER

    def tick(self, now: int) -> object:
        """Advance this component by one cycle; return its verdict.

        * ``False`` or ``None``: stay awake (tick again next cycle).
        * ``True``: every future ``tick`` is a no-op until an external
          event calls :meth:`wake`.
        * an int cycle X: "asleep until cycle X" -- every elided tick
          strictly before X is a no-op, and the engine ticks the
          component at X at the latest.

        Hot components compute the verdict from locals they already
        hold at the end of their tick.  The promise must hold
        *exactly*: a component whose strict-mode tick would mutate any
        state (even a counter) while asleep must either stay awake or
        reproduce the mutation in ``on_skipped``.  A tick earlier
        than promised is always safe -- it is the tick strict mode
        runs at that cycle.  Deadlines due within
        ``_MIN_TIMED_SLEEP`` cycles keep the component awake.  Note
        ``True == 1`` in Python: the engine distinguishes the two with
        an identity check, and a deadline of literal cycle 1 is due
        within the floor anyway.
        """
        raise NotImplementedError

    # -- activity contract --------------------------------------------

    def wake(self) -> None:
        """Re-activate after an external event (idempotent, cheap).

        Hot ingress paths test the record's ``awake`` flag inline and
        call this only when it is clear (lint rule W002).
        """
        slot = self._slot
        if not slot.awake:
            slot.awake = True
            sim = self._sim
            if sim is not None:
                sim._n_asleep -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Simulator:
    """Owns the clock, the component list and the shared stats registry.

    ``strict=True`` restores the historical tick-everything-every-cycle
    behaviour (no quiescence skipping, no fast-forward).
    """

    def __init__(self, stats: Optional[StatsRegistry] = None,
                 strict: bool = False) -> None:
        self.cycle = 0
        #: Registered components, in tick order (the public registry).
        self.components: List[Component] = []
        #: Their engine records, in the same order (what the loop reads).
        self._slots: List[_Slot] = []
        self.stats = stats if stats is not None else StatsRegistry()
        self.tracer: Tracer = NULL_TRACER
        self.strict = strict
        #: Components currently skipped by the engine.
        self._n_asleep = 0
        #: Total component-ticks elided so far (observability only;
        #: never part of an equivalence-checked snapshot).
        self.skipped_ticks = 0
        #: Cycles the clock fast-forwarded over while fully quiescent.
        self.fast_forwarded_cycles = 0
        # Mutable [next_fire, period, callback] triples; next_fire is
        # per-hook so late-registered hooks keep their own cadence.
        self._hooks: List[list] = []
        #: Earliest pending hook fire (cached so the hot loop checks
        #: one number instead of scanning the hook list every cycle).
        self._next_hook = _NEVER
        #: Timed-wakeup min-heap of (deadline, seq, record); the seq
        #: tiebreaker keeps tuples comparable.  At most one entry per
        #: component is live (see _Slot.wake_at).
        self._wakeups: List[tuple] = []
        self._wakeup_seq = 0
        #: Earliest pending deadline (cached like _next_hook; may be
        #: stale-early when the heap top is a dropped entry, which
        #: only costs a harmless extra _wake_due sweep).
        self._next_wakeup = _NEVER

    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining.

        Binds the component's ``tick`` and ``on_skipped`` to its record
        and registers it awake, so it ticks on the next cycle.
        """
        component._sim = self
        slot = component._slot
        slot.tick = component.tick
        slot.on_skipped = component.on_skipped
        if not slot.awake:
            slot.awake = True
            slot.idle_since = -1
        self._slots.append(slot)
        self.components.append(component)
        return component

    def every(self, period: int, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(cycle)`` every ``period`` cycles.

        Used for MDR epoch boundaries (Section 5.1), page-migration
        intervals and timeline sampling. The first firing happens
        ``period`` cycles after registration: a hook registered on a
        simulator resumed mid-epoch (current cycle not a multiple of
        ``period``) gets full-length epochs instead of a short first
        epoch snapped to absolute cycle multiples.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        next_fire = self.cycle + period
        self._hooks.append([next_fire, period, callback])
        if next_fire < self._next_hook:
            self._next_hook = next_fire

    # ------------------------------------------------------------------
    # The hot loop.
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by one cycle.

        Note: with quiescence skipping on, per-cycle counters of
        sleeping components (e.g. SM stall cycles) are reported lazily;
        they are exact whenever a clock hook fires and when
        ``run``/``run_until`` return.  Call :meth:`sync` before reading
        statistics between raw ``step`` calls.
        """
        now = self.cycle
        if self.strict:
            for slot in self._slots:
                slot.tick(now)
        else:
            if self._next_wakeup <= now:
                self._wake_due(now)
            n_slept = 0
            for slot in self._slots:
                if slot.awake:
                    since = slot.idle_since
                    if since >= 0:
                        if now > since:
                            self.skipped_ticks += now - since
                            on_skipped = slot.on_skipped
                            if on_skipped is not None:
                                on_skipped(now - since)
                        slot.idle_since = -1
                    asleep = slot.tick(now)
                    if asleep:
                        if asleep is not True:
                            # Timed wakeup: an int deadline ("asleep
                            # until cycle X").  Near-due verdicts gain
                            # nothing over staying awake; a deadline
                            # no earlier than the live entry rides on
                            # it (one early tick at worst).
                            if asleep - now < _MIN_TIMED_SLEEP:
                                continue
                            if asleep < slot.wake_at:
                                slot.wake_at = asleep
                                seq = self._wakeup_seq + 1
                                self._wakeup_seq = seq
                                heappush(self._wakeups, (asleep, seq, slot))
                                if asleep < self._next_wakeup:
                                    self._next_wakeup = asleep
                        slot.awake = False
                        slot.idle_since = now + 1
                        n_slept += 1
            if n_slept:
                self._n_asleep += n_slept
        self.cycle = now + 1
        if self.cycle >= self._next_hook:
            self._fire_hooks()

    def _wake_due(self, now: int) -> None:
        """Re-activate every component whose deadline has arrived.

        Pops due heap entries; an entry is live only while its deadline
        matches its record's ``wake_at`` -- anything else was
        superseded by an earlier deadline.  A live entry clears
        ``wake_at`` and wakes the component if it is still asleep.
        Skip accounting is NOT flushed here: the woken component flows
        through the normal ``step`` path, which reports the exact
        elided-tick count via ``on_skipped`` before the next tick.
        """
        heap = self._wakeups
        n_woken = 0
        while heap and heap[0][0] <= now:
            deadline, _, slot = heappop(heap)
            if slot.wake_at == deadline:
                slot.wake_at = _NEVER
                if not slot.awake:
                    slot.awake = True
                    n_woken += 1
        if n_woken:
            self._n_asleep -= n_woken
        self._next_wakeup = heap[0][0] if heap else _NEVER

    def _fire_hooks(self) -> None:
        """Run every hook whose next-fire cycle has been reached."""
        self.sync()
        cycle = self.cycle
        next_hook = _NEVER
        for hook in self._hooks:
            if cycle >= hook[0]:
                hook[0] += hook[1]
                hook[2](cycle)
            if hook[0] < next_hook:
                next_hook = hook[0]
        self._next_hook = next_hook

    def sync(self) -> None:
        """Flush lazily accounted skip cycles into component counters.

        After this, every component's statistics match what strict mode
        would report at the current cycle.  Invoked automatically
        before hook callbacks and when ``run``/``run_until`` return.
        """
        cycle = self.cycle
        for slot in self._slots:
            since = slot.idle_since
            if 0 <= since < cycle:
                self.skipped_ticks += cycle - since
                on_skipped = slot.on_skipped
                if on_skipped is not None:
                    on_skipped(cycle - since)
                slot.idle_since = cycle

    def _fast_forward(self, limit: int) -> None:
        """Jump the clock while every component sleeps.

        Advances straight to the earlier of the next hook deadline
        (hooks can create new work, e.g. page migration enqueueing
        DRAM writebacks) and the next timed-wakeup deadline, or to
        ``limit``, whichever comes first.  Hooks due at the landing
        cycle fire first (they see end-of-previous-cycle state, as in
        strict mode), then due components are re-woken so the next
        ``step`` ticks them at the landing cycle.  Equivalent to
        stepping: a fully quiescent strict-mode cycle only advances
        the clock and checks hooks.
        """
        target = self._next_hook
        wakeup = self._next_wakeup
        if wakeup < target:
            target = wakeup
        if target > limit:
            target = limit
        self.fast_forwarded_cycles += target - self.cycle
        self.cycle = target
        if target >= self._next_hook:
            self._fire_hooks()
        if self._next_wakeup <= target:
            self._wake_due(target)

    def run(self, cycles: int) -> None:
        """Run a fixed number of cycles."""
        end = self.cycle + cycles
        if self.strict:
            step = self.step
            for _ in range(cycles):
                step()
            return
        n_components = len(self._slots)
        while self.cycle < end:
            if self._n_asleep == n_components:
                self._fast_forward(end)
            else:
                self.step()
        self.sync()

    def run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int = 10_000_000,
        check_period: int = 64,
    ) -> bool:
        """Run until ``done()`` is true or ``max_cycles`` elapse.

        ``done`` is evaluated every ``check_period`` cycles to keep the
        hot loop tight; the final chunk is clamped so the run never
        oversteps ``max_cycles``. Returns ``True`` when the predicate
        fired.
        """
        deadline = self.cycle + max_cycles
        step = self.step
        strict = self.strict
        n_components = len(self._slots)
        while self.cycle < deadline:
            chunk_end = self.cycle + check_period
            if chunk_end > deadline:
                chunk_end = deadline
            if strict:
                while self.cycle < chunk_end:
                    step()
            else:
                while self.cycle < chunk_end:
                    if self._n_asleep == n_components:
                        self._fast_forward(chunk_end)
                    else:
                        step()
                self.sync()
            if done():
                return True
        return done()
