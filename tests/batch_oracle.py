"""An independent reference loop for batch drains.

:func:`drain_batch` runs a batch whose jobs are all queued at ``t=0`` with
a plain first-free-node loop over :meth:`CoScheduler.plan_next` and
:meth:`CoScheduler.dispatch`: while a node is idle at the current time, the
first such node takes the scheduler's next plan; otherwise time jumps to
the earliest moment a node frees up.  It has no event heap, arrivals,
repartition latency or power budget, so it checks
:meth:`ClusterSimulator.run` over :meth:`Trace.all_at_zero` a second way.
"""

from __future__ import annotations

from repro.cluster.node import ComputeNode
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import CoScheduler


def drain_batch(workflow, n_nodes, scheduler_config, kernels):
    """Drain ``kernels`` on ``n_nodes`` fresh nodes; the jobs in submission order."""
    scheduler = CoScheduler(workflow.online, scheduler_config)
    simulator = workflow.simulator
    nodes = [
        ComputeNode(node_id=i, spec=simulator.spec, simulator=simulator)
        for i in range(n_nodes)
    ]
    queue = JobQueue()
    jobs = [queue.submit(kernel) for kernel in kernels]
    time = 0.0
    while not queue.empty:
        free = [node for node in nodes if node.is_free(time)]
        if not free:
            time = min(node.busy_until for node in nodes)
            continue
        scheduler.dispatch(scheduler.plan_next(queue), queue, free[0], time)
    return jobs
