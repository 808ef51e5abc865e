"""Discrete-event runtime: the event loop every timeline replays through.

:mod:`repro.runtime.events` holds the reusable :class:`EventLoop` with
typed channel groups and deterministic tie-breaking (extracted from the
serving scheduler's event-queue core).
"""

from repro.runtime.events import EventLoop, Task, TaskSlot

__all__ = ["EventLoop", "Task", "TaskSlot"]
