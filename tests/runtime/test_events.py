"""Unit tests for the reusable discrete-event loop."""

import pytest

from repro.runtime import EventLoop, Task


def t(key, group="g", dur=1.0, ready=0.0, deps=(), sort_key=()):
    return Task(
        key=key, group=group, duration_s=dur, ready_s=ready,
        deps=tuple(deps), sort_key=sort_key,
    )


class TestValidation:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            EventLoop({"g": 1}).run([t("a"), t("a")])

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown channel group"):
            EventLoop({"g": 1}).run([t("a", group="nope")])

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            EventLoop({"g": 1}).run([t("a", deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            EventLoop({"g": 2}).run(
                [t("a", deps=("b",)), t("b", deps=("a",))]
            )

    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError, match="positive lane count"):
            EventLoop({"g": 0})

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Task(key="a", group="g", duration_s=-1.0)

    def test_empty_run(self):
        loop = EventLoop({"g": 2})
        assert loop.run([]) == {}


class TestScheduling:
    def test_least_loaded_lane_ties_on_lane_id(self):
        slots = EventLoop({"g": 3}).run([t(i) for i in range(5)])
        # Round-robin while all lanes free at the same time, lowest id
        # first; the 4th and 5th tasks land back on the freed lanes.
        assert [slots[i].lane for i in range(5)] == [0, 1, 2, 0, 1]
        assert slots[3].start_s == 1.0

    def test_deps_delay_start(self):
        slots = EventLoop({"g": 2}).run(
            [t("a", dur=2.0), t("b", dur=1.0, deps=("a",))]
        )
        assert slots["b"].start_s == 2.0
        assert slots["b"].finish_s == 3.0

    def test_deps_cross_groups(self):
        slots = EventLoop({"io": 1, "gpu": 1}).run(
            [
                t("gather", group="io", dur=0.5),
                t("compute", group="gpu", dur=1.0, deps=("gather",)),
            ]
        )
        assert slots["compute"].start_s == 0.5
        assert slots["compute"].group == "gpu"

    def test_ready_time_holds_task_back(self):
        slots = EventLoop({"g": 1}).run([t("a", ready=3.0, dur=1.0)])
        assert slots["a"].start_s == 3.0

    def test_sort_key_breaks_equal_starts(self):
        slots = EventLoop({"g": 1}).run(
            [t("late", sort_key=(2,)), t("soon", sort_key=(1,))]
        )
        assert slots["soon"].start_s == 0.0
        assert slots["late"].start_s == 1.0

    def test_submission_order_is_final_tie_break(self):
        slots = EventLoop({"g": 1}).run([t("x"), t("y")])
        assert slots["x"].start_s == 0.0
        assert slots["y"].start_s == 1.0

    def test_earliest_start_beats_sort_key(self):
        # "fast" can start now on a free lane; "slow" is held by ready_s.
        slots = EventLoop({"g": 1}).run(
            [t("slow", ready=5.0, sort_key=(0,)), t("fast", sort_key=(1,))]
        )
        assert slots["fast"].start_s == 0.0

    def test_pure_function_of_inputs(self):
        tasks = [
            t(i, group="g", dur=0.3 + 0.01 * (i % 4), ready=0.05 * i,
              sort_key=(i % 3,))
            for i in range(20)
        ]
        a = EventLoop({"g": 3}).run(tasks)
        b = EventLoop({"g": 3}).run(tasks)
        assert a == b
