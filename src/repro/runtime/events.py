"""Reusable discrete-event loop with typed channels.

This is the event-queue core of the serving scheduler
(:func:`repro.serve.scheduler.place_batches`), generalized so every
runtime timeline in the system — GPU-pool batch placement, per-GPU
compute streams, halo-exchange links, cache-miss gather queues — can
replay through one deterministic machine:

- a **channel group** is a named pool of identical lanes (``"gpu"``
  with 4 lanes is a 4-GPU pool; ``"gpu0.comm"`` with 1 lane is one
  GPU's interconnect stream),
- a **task** targets a group, becomes eligible at ``ready_s``, after
  all of its ``deps`` have finished, and holds one lane for
  ``duration_s``,
- each decision point picks the least-loaded lane of each group
  (ties on lane id) and, among eligible tasks, the one with the
  earliest feasible start (ties on the caller's ``sort_key``, then
  submission order).

The loop is a pure function of its inputs: no wall clock, no RNG, no
dict-iteration-order dependence.  With a single group, no deps, and
``sort_key`` = the scheduling policy, it reproduces the historical
``place_batches`` placement bit for bit (same float operations in the
same order) — the contract ``tests/serve/test_serve_scheduler.py``
pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = ["Task", "TaskSlot", "EventLoop"]


@dataclass(frozen=True)
class Task:
    """One unit of work on a channel timeline."""

    key: Hashable              # caller's handle, unique per loop run
    group: str                 # channel group this task occupies
    duration_s: float
    ready_s: float = 0.0       # earliest feasible start (dispatch time)
    deps: Tuple[Hashable, ...] = ()   # keys that must finish first
    sort_key: Tuple = ()       # policy tie-break among equal starts

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")


@dataclass(frozen=True)
class TaskSlot:
    """One task's placed interval on a channel lane."""

    key: Hashable
    group: str
    lane: int
    start_s: float
    finish_s: float

    @property
    def duration_s(self) -> float:
        return self.finish_s - self.start_s


class EventLoop:
    """Deterministic list scheduler over typed channel groups.

    ``channels`` maps group name -> lane count.  :meth:`run` places
    every task and returns slots keyed by task key; scheduling is
    greedy earliest-start with deterministic tie-breaking, which for
    chain-structured dependence graphs (each lane's task order fixed by
    deps) equals the longest-path schedule.
    """

    def __init__(self, channels: Dict[str, int]) -> None:
        for group, lanes in channels.items():
            if lanes <= 0:
                raise ValueError(
                    f"channel group {group!r} needs a positive lane count"
                )
        self._lanes = {g: n for g, n in channels.items()}

    def run(self, tasks: Sequence[Task]) -> Dict[Hashable, TaskSlot]:
        """Schedule every task; returns task key -> placed slot."""
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique within one run")
        index = {t.key: i for i, t in enumerate(tasks)}
        for t in tasks:
            if t.group not in self._lanes:
                raise ValueError(f"unknown channel group {t.group!r}")
            for d in t.deps:
                if d not in index:
                    raise ValueError(
                        f"task {t.key!r} depends on unknown task {d!r}"
                    )

        free: Dict[str, List[float]] = {
            g: [0.0] * n for g, n in self._lanes.items()
        }
        done: Dict[Hashable, TaskSlot] = {}
        pending = list(tasks)
        while pending:
            # Lane choice per group: least-loaded, ties on lane id —
            # the pool discipline place_batches always used.
            lane_of = {
                g: min(range(n), key=lambda l: (free[g][l], l))
                for g, n in self._lanes.items()
            }
            best: Optional[Tuple] = None
            best_task: Optional[Task] = None
            for t in pending:
                if any(d not in done for d in t.deps):
                    continue
                avail = t.ready_s
                for d in t.deps:
                    avail = max(avail, done[d].finish_s)
                lane = lane_of[t.group]
                est = max(free[t.group][lane], avail)
                cand = (est, t.sort_key, index[t.key])
                if best is None or cand < best:
                    best, best_task = cand, t
            if best_task is None:
                raise ValueError(
                    "dependency cycle: no pending task is eligible"
                )
            t = best_task
            lane = lane_of[t.group]
            start = best[0]
            finish = start + t.duration_s
            free[t.group][lane] = finish
            done[t.key] = TaskSlot(
                key=t.key, group=t.group, lane=lane,
                start_s=start, finish_s=finish,
            )
            pending.remove(t)
        return done
