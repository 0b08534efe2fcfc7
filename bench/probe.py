"""Time one workload's set-up in a fresh interpreter.

``python -m bench.probe WORKLOAD`` prints ``{"setup_s": seconds}``:
the imports, the first ``ExperimentRunner.build`` and
``Benchmark.instantiate``, plus the process-pool start (fig7-sweep) or
the server start and first health check (service-mixed).
"""

import json
import sys
import time


def noop_task(key) -> None:
    """Pool task that does nothing: the set-up pays only pool start."""
    return None


def setup_seconds(name: str) -> float:
    """Seconds to set up workload ``name`` in this interpreter."""
    begun = time.perf_counter()
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads.suite import get_benchmark

    from bench import pools

    if name in ("busy-points", "sleepy-points"):
        pool = pools.BUSY_POOL if name == "busy-points" else pools.SLEEPY_POOL
        points = list(pool)
        runner = ExperimentRunner()
    else:
        points = pools.fig7_points(["KMEANS"])
        runner = ExperimentRunner(base_gpu=pools.fig7_gpu())
    system = runner.build(points[0][1])
    get_benchmark(points[0][1].benchmark).instantiate(system.gpu)
    if name == "fig7-sweep":
        import multiprocessing

        from repro.orchestrator.orchestrator import SweepOrchestrator
        from repro.orchestrator.sweep import Sweep

        SweepOrchestrator(runner, workers=2, task_fn=noop_task).run(
            Sweep.of("setup", points[:2]))
        elapsed = time.perf_counter() - begun
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        return elapsed
    if name == "service-mixed":
        from repro.service.client import ServiceClient
        from repro.service.manager import JobManager
        from repro.service.server import ServiceServer

        server = ServiceServer(JobManager(runner, workers=1)).start()
        try:
            ServiceClient(server.url).healthz()
            return time.perf_counter() - begun
        finally:
            server.stop()
    return time.perf_counter() - begun


if __name__ == "__main__":
    print(json.dumps({"setup_s": setup_seconds(sys.argv[1])}))
