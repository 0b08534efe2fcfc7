"""Statistical per-layer CPU profiler built from the standard library.

A ``SIGPROF`` interval timer (``signal.setitimer(ITIMER_PROF)``, 1 ms
of process CPU) interrupts the program. CPython runs the handler on
the main thread, and the handler reads the CPU clock of every live
thread. Each thread's CPU since the previous sample is charged to the
layer of that thread's current frame. The frame walk goes out from the
innermost frame to the first frame whose file lives in
``src/repro/<layer>/``. A thread with no such frame charges
``other``.

Weighting by per-thread CPU clocks, not by sample counts, lets one
sampler serve single-threaded inline runs and the multithreaded
service alike. The sampler cannot see threads that start and end
between two samples (short HTTP handler threads). Their CPU is still
in the process total, so the residual goes to ``unattributed``. The
handler's own CPU is kept apart in ``handler_s``.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
from typing import Dict, Optional

#: Layer charged when no frame on the stack belongs to the program.
OTHER = "other"
#: Process CPU the per-thread clocks did not account for.
UNATTRIBUTED = "unattributed"


def repro_root() -> str:
    """Absolute directory of the ``repro`` package being measured."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


class LayerMap:
    """Maps frames to the ``src/repro/`` package that owns their code."""

    def __init__(self, root: str) -> None:
        self.prefix = os.path.join(os.path.abspath(root), "")
        # Keyed by file name: code objects compare equal across files.
        self._by_file: Dict[str, Optional[str]] = {}

    def layer_of_file(self, filename: str) -> Optional[str]:
        """The layer a source file belongs to, or None outside it."""
        try:
            return self._by_file[filename]
        except KeyError:
            pass
        layer = None
        if filename.startswith(self.prefix):
            head = filename[len(self.prefix):].split(os.sep, 1)[0]
            layer = head[:-3] if head.endswith(".py") else head
        self._by_file[filename] = layer
        return layer

    def layer_of(self, frame) -> str:
        """Walk outward from ``frame`` to the first program frame."""
        while frame is not None:
            layer = self.layer_of_file(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return OTHER


def _thread_cpu(ident: int) -> Optional[float]:
    try:
        return time.clock_gettime(time.pthread_getcpuclockid(ident))
    except (OSError, OverflowError):
        return None


class LayerSampler:
    """CPU seconds per layer, sampled every ``interval`` CPU seconds.

    Use as a context manager or with :meth:`start` / :meth:`stop`.
    Only the main thread may start it, because only the main thread
    receives Python-level signal handlers.
    """

    def __init__(self, layers: LayerMap, interval: float = 0.001) -> None:
        self.layers = layers
        self.interval = interval
        #: CPU seconds charged per layer.
        self.cpu: Dict[str, float] = {}
        #: Number of (thread, sample) charges per layer.
        self.samples: Dict[str, int] = {}
        #: CPU seconds spent inside the handler itself.
        self.handler_s = 0.0
        self._last: Dict[int, float] = {}
        self._main = threading.main_thread().ident
        self._previous = None
        self._process_start = 0.0
        self._in_handler = False

    def start(self) -> "LayerSampler":
        """Install the handler and arm the timer."""
        if threading.get_ident() != self._main:
            raise RuntimeError("LayerSampler must run on the main thread")
        for ident in sys._current_frames():
            cpu = (time.thread_time() if ident == self._main
                   else _thread_cpu(ident))
            if cpu is not None:
                self._last[ident] = cpu
        self._process_start = time.process_time()
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def stop(self) -> "LayerSampler":
        """Disarm the timer and book unattributed process CPU."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        process = time.process_time() - self._process_start
        residual = process - self.handler_s - sum(self.cpu.values())
        if residual > 0:
            self.cpu[UNATTRIBUTED] = self.cpu.get(UNATTRIBUTED, 0.0) + residual
        return self

    def join(self, threads) -> None:
        """Join ``threads`` while keeping the main thread runnable.

        Linux delivers the process-wide SIGPROF to the thread that is
        burning CPU, and CPython runs the Python handler only when the
        main thread next executes bytecode, so a main thread blocked
        in a plain ``join()`` would defer every sample to its end.
        """
        for thread in threads:
            while thread.is_alive():
                thread.join(self.interval)

    def __enter__(self) -> "LayerSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _on_signal(self, signum, frame) -> None:
        if self._in_handler:
            return  # CPython may re-enter a handler between bytecodes
        self._in_handler = True
        try:
            self._sample(frame)
        finally:
            self._in_handler = False

    def _sample(self, frame) -> None:
        entered = time.thread_time()
        main = self._main
        last = self._last
        live = sys._current_frames()
        for ident, top in live.items():
            if ident == main:
                cpu, top = entered, frame
            else:
                cpu = _thread_cpu(ident)
                if cpu is None:
                    continue
            delta = cpu - last.get(ident, 0.0)
            last[ident] = cpu
            if delta <= 0.0:
                continue
            layer = self.layers.layer_of(top)
            self.cpu[layer] = self.cpu.get(layer, 0.0) + delta
            self.samples[layer] = self.samples.get(layer, 0) + 1
        for ident in [ident for ident in last if ident not in live]:
            del last[ident]  # a later thread may reuse the ident
        left = time.thread_time()
        self.handler_s += left - entered
        last[main] = left

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def merge(self, cpu: Dict[str, float], samples: Dict[str, int],
              handler_s: float) -> None:
        """Fold in another sampler's totals (e.g. a pool child's)."""
        for layer, seconds in cpu.items():
            self.cpu[layer] = self.cpu.get(layer, 0.0) + seconds
        for layer, count in samples.items():
            self.samples[layer] = self.samples.get(layer, 0) + count
        self.handler_s += handler_s

    def snapshot(self) -> dict:
        """Plain-data totals (what a pool child ships to the parent)."""
        return {"cpu": dict(self.cpu), "samples": dict(self.samples),
                "handler_s": self.handler_s}


def shares(cpu: Dict[str, float],
           samples: Dict[str, int]) -> Dict[str, tuple]:
    """Each layer's CPU share with its binomial standard error.

    Returns ``{layer: (share, stderr)}``. The error treats every
    charge as one Bernoulli draw, ``sqrt(p (1 - p) / n)`` with ``n``
    the total number of charges.
    """
    total = sum(cpu.values())
    n = sum(samples.values())
    if total <= 0.0 or n == 0:
        return {}
    out = {}
    for layer, seconds in cpu.items():
        p = seconds / total
        out[layer] = (p, math.sqrt(p * (1.0 - p) / n))
    return out
