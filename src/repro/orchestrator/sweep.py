"""Declarative sweeps: labelled grids of experiment points.

A :class:`Sweep` is nothing but an ordered list of (label, RunKey)
pairs -- the full description of what a figure or study needs to
simulate, separated from *how* it is executed. The CLI, the benchmark
harness and the service build Sweeps (a figure's through
:func:`~repro.orchestrator.catalog.figure_sweep`) and hand them to the
:class:`~repro.orchestrator.orchestrator.SweepOrchestrator`, which
deduplicates identical keys across sweeps (Figures 7, 8, 9 and 13
share most of their points) before fanning them out to workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.experiments.runner import RunKey


@dataclass(frozen=True)
class SweepPoint:
    """One labelled experiment point inside a sweep."""

    label: str
    key: RunKey


PointLike = Union[RunKey, SweepPoint, Tuple[str, RunKey]]


@dataclass
class Sweep:
    """An ordered, labelled grid of RunKeys."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)

    @classmethod
    def of(cls, name: str, points: Iterable[PointLike]) -> "Sweep":
        """Build a sweep from RunKeys, (label, key) pairs or points."""
        built: List[SweepPoint] = []
        for point in points:
            if isinstance(point, SweepPoint):
                built.append(point)
            elif isinstance(point, RunKey):
                built.append(SweepPoint(point.describe(), point))
            else:
                label, key = point
                built.append(SweepPoint(label, key))
        return cls(name, built)

    def add(self, label: str, key: RunKey) -> "Sweep":
        """Append one labelled point (chainable)."""
        self.points.append(SweepPoint(label, key))
        return self

    def unique_keys(self) -> List[RunKey]:
        """The distinct RunKeys, in first-appearance order."""
        seen: Dict[RunKey, None] = {}
        for point in self.points:
            seen.setdefault(point.key, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def describe(self) -> str:
        """Short human-readable size summary of the sweep."""
        unique = len(self.unique_keys())
        return f"{self.name}: {len(self.points)} points ({unique} unique)"
