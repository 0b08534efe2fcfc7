"""Statistics collection: counters, histograms and a registry.

All architectural components expose their statistics through a shared
:class:`StatsRegistry` so the experiment harness can report any figure of
merit (perceived bandwidth, local/remote breakdowns, queue occupancies,
energy) without reaching into component internals.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence


class Histogram:
    """An integer-keyed histogram (e.g. pages by sharing degree, Fig. 3).

    A running total is maintained on :meth:`add` so ``total``,
    :meth:`fraction` and :meth:`bucket_fractions` are O(1)/O(buckets)
    instead of re-summing every bin -- they run inside timeline
    sampling hooks on the hot path.
    """

    __slots__ = ("name", "_bins", "_total")

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self._bins: Dict[int, int] = defaultdict(int)
        self._total = 0

    def add(self, key: int, count: int = 1) -> None:
        """Add mass to one key's bin."""
        self._bins[key] += count
        self._total += count

    def __getitem__(self, key: int) -> int:
        return self._bins.get(key, 0)

    @property
    def total(self) -> int:
        return self._total

    def keys(self) -> List[int]:
        """The populated keys in ascending order."""
        return sorted(self._bins)

    def fraction(self, key: int) -> float:
        """One key's share of the total mass."""
        total = self._total
        if total == 0:
            return 0.0
        return self._bins.get(key, 0) / total

    def bucket_fractions(self, buckets: Sequence[range]) -> List[float]:
        """Fraction of mass falling into each bucket of keys.

        Used to reproduce the Figure 3 groupings (1 SM, 2-10 SMs, 11-25
        SMs, 26-64 SMs).
        """
        total = self._total
        if total == 0:
            return [0.0] * len(buckets)
        fractions = []
        for bucket in buckets:
            mass = sum(self._bins.get(k, 0) for k in bucket)
            fractions.append(mass / total)
        return fractions

    def as_dict(self) -> Dict[int, int]:
        """The raw bins as a dict."""
        return dict(self._bins)


class StatsRegistry:
    """A flat namespace of counters with hierarchical dotted names.

    Components call :meth:`bump` with names such as
    ``"llc.slice3.hits"``; the registry supports prefix aggregation so the
    reporting layer can ask for ``sum("llc.", ".hits")``.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)

    def bump(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self._counters[name] += amount

    def set(self, name: str, value: float) -> None:
        """Overwrite a named counter."""
        self._counters[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        """Read a counter (default when absent)."""
        return self._counters.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def sum(self, prefix: str = "", suffix: str = "") -> float:
        """Sum all counters whose name matches prefix and suffix."""
        return sum(
            value
            for name, value in self._counters.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    def names(self, prefix: str = "") -> List[str]:
        """All counter names under a prefix."""
        return sorted(n for n in self._counters if n.startswith(prefix))

    def as_dict(self, prefix: str = "") -> Dict[str, float]:
        """Counters under a prefix as a dict."""
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def merge(self, other: "StatsRegistry") -> None:
        """Add another registry's counters into this one."""
        for name, value in other._counters.items():
            self._counters[name] += value


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean, the paper's average-speedup metric (Section 6)."""
    values = list(values)
    if not values:
        raise ValueError("harmonic_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic_mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


def percent_improvement(speedups: Iterable[float]) -> float:
    """Harmonic-mean speedup expressed as a percentage improvement.

    The paper "computes average speedup using the harmonic mean and then
    reports average improvement as a percentage" (Section 6).
    """
    return (harmonic_mean(speedups) - 1.0) * 100.0
