"""Parallel sweep orchestration: declarative grids of experiment
points executed over pluggable backends (inline, process pool,
coordinator-free shards, remote service endpoints), resumable via the
persistent result store."""

from repro.orchestrator.catalog import figure_sweep
from repro.orchestrator.executors import (
    BackendError,
    Backpressure,
    Completion,
    ExecutorBackend,
    InlineExecutor,
    LocalExecutor,
    RemoteExecutor,
    ShardedExecutor,
    shard_of,
)
from repro.orchestrator.orchestrator import (
    PointFailure,
    SweepOrchestrator,
    SweepReport,
)
from repro.orchestrator.progress import ProgressReporter
from repro.orchestrator.sweep import Sweep, SweepPoint

__all__ = [
    "figure_sweep",
    "BackendError",
    "Backpressure",
    "Completion",
    "ExecutorBackend",
    "InlineExecutor",
    "LocalExecutor",
    "RemoteExecutor",
    "ShardedExecutor",
    "shard_of",
    "PointFailure",
    "SweepOrchestrator",
    "SweepReport",
    "ProgressReporter",
    "Sweep",
    "SweepPoint",
]
