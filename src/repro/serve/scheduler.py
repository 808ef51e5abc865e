"""SLO-aware placement of micro-batches onto a GPU pool.

The server's virtual clock is discrete-event: every micro-batch carries
a dispatch time (from the batcher), a modelled service time (from the
cost model), and a deadline (the earliest member request's).  The
scheduler replays the event sequence deterministically:

- the GPU that frees earliest takes the next decision point,
- among batches already dispatched by then, the policy picks one —
  ``"edf"`` (earliest deadline first, the SLO-aware policy) or
  ``"fifo"`` (dispatch order),
- if nothing is pending, the clock advances to the next dispatch.

Ties break on (dispatch, submission order), so placement is a pure
function of the inputs — the determinism the serve report contract
relies on.  Whole batches are placed on single GPUs (no partitioning),
so a :class:`~repro.gpu.cluster.Cluster` acts as a homogeneous pool;
per-GPU busy time feeds the utilization metrics.

The event-queue core lives in :class:`repro.runtime.EventLoop` (one
``"gpu"`` channel group, one lane per pool GPU); EDF/FIFO are expressed
as task sort keys.  The loop's decision rule — earliest feasible start,
ties on sort key then submission order — reproduces the historical
placement loop bit for bit, which the serve goldens pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.runtime.events import EventLoop, Task

__all__ = [
    "PendingBatch",
    "Placement",
    "place_batches",
    "place_batches_overlapped",
    "SCHEDULER_POLICIES",
]

SCHEDULER_POLICIES = ("edf", "fifo")


@dataclass(frozen=True)
class PendingBatch:
    """What the scheduler needs to know about one dispatched batch."""

    dispatch_s: float
    service_s: float
    deadline_s: float

    def __post_init__(self) -> None:
        if self.service_s < 0:
            raise ValueError("service_s must be non-negative")


@dataclass(frozen=True)
class Placement:
    """One batch's slot on the pool timeline."""

    index: int          # position in the submitted batch sequence
    gpu: int
    start_s: float
    finish_s: float

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s


def place_batches(
    batches: Sequence[PendingBatch],
    num_gpus: int,
    *,
    policy: str = "edf",
) -> List[Placement]:
    """Assign every batch a (gpu, start, finish) slot.

    Returns placements in submission order (``placements[i]`` is
    ``batches[i]``'s slot).  Work is conserved: a batch starts at
    ``max(gpu free time, its dispatch)`` and holds the GPU for its
    service time.
    """
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    if policy not in SCHEDULER_POLICIES:
        raise ValueError(
            f"unknown scheduler policy {policy!r}; use one of "
            f"{SCHEDULER_POLICIES}"
        )

    def sort_key(i: int):
        b = batches[i]
        if policy == "edf":
            return (b.deadline_s, b.dispatch_s)
        return (b.dispatch_s,)

    tasks = [
        Task(
            key=i,
            group="gpu",
            duration_s=b.service_s,
            ready_s=b.dispatch_s,
            sort_key=sort_key(i),
        )
        for i, b in enumerate(batches)
    ]
    slots = EventLoop({"gpu": num_gpus}).run(tasks)
    return [
        Placement(
            index=i,
            gpu=slots[i].lane,
            start_s=slots[i].start_s,
            finish_s=slots[i].finish_s,
        )
        for i in range(len(batches))
    ]


# Kept for perf/trace.py, which wraps it by name.
def place_batches_overlapped(
    batches: Sequence[PendingBatch],
    num_gpus: int,
    *,
    gather_s: Sequence[float],
    compute_s: Sequence[float],
    policy: str = "edf",
) -> List[Placement]:
    """Place batches with feature gathers pipelined against compute.

    The serial clock (:func:`place_batches`) holds a GPU for the whole
    ``gather + compute`` service; here the two halves run on separate
    channel groups — ``"io"`` (cache-miss feature gathers over the host
    link) and ``"compute"`` (the kernel stream), each with one lane per
    pool GPU — so a batch's gather can stream in while the previous
    batch still computes.  A batch's compute waits only for its own
    gather; the policy sort keys and the loop's deterministic
    tie-breaking are the same as the serial scheduler's, so placement
    remains a pure function of the inputs.

    Each returned :class:`Placement` spans gather start to compute
    finish on the compute lane the batch's kernels ran on — per-request
    latency keeps its serial meaning while the makespan contracts.
    """
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    if policy not in SCHEDULER_POLICIES:
        raise ValueError(
            f"unknown scheduler policy {policy!r}; use one of "
            f"{SCHEDULER_POLICIES}"
        )
    if len(gather_s) != len(batches) or len(compute_s) != len(batches):
        raise ValueError(
            "gather_s and compute_s must have one entry per batch"
        )

    def sort_key(i: int):
        b = batches[i]
        if policy == "edf":
            return (b.deadline_s, b.dispatch_s)
        return (b.dispatch_s,)

    tasks: List[Task] = []
    for i, b in enumerate(batches):
        tasks.append(
            Task(
                key=("gather", i),
                group="io",
                duration_s=gather_s[i],
                ready_s=b.dispatch_s,
                sort_key=sort_key(i),
            )
        )
        tasks.append(
            Task(
                key=("compute", i),
                group="compute",
                duration_s=compute_s[i],
                deps=(("gather", i),),
                sort_key=sort_key(i),
            )
        )
    slots = EventLoop({"io": num_gpus, "compute": num_gpus}).run(tasks)
    return [
        Placement(
            index=i,
            gpu=slots[("compute", i)].lane,
            start_s=slots[("gather", i)].start_s,
            finish_s=slots[("compute", i)].finish_s,
        )
        for i in range(len(batches))
    ]
