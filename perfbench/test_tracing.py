"""Self-time arithmetic of the benchmark's spans.

    python3 -m pytest -q perfbench/test_tracing.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, self_times  # noqa: E402


class FakeClock:
    """Time moves only when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        leaf_t(2.0)
        leaf_t(3.0)
        clock.now += 0.5

    def top():
        clock.now += 4.0
        middle_t()
        leaf_t(0.25)

    leaf_t = tracer.wrap("leaf", leaf)
    middle_t = tracer.wrap("middle", middle)
    top_t = tracer.wrap("top", top)
    tracer.report = 7
    top_t()

    total, calls = self_times(tracer.spans)
    assert total == {"top": 4.0, "middle": 1.5, "leaf": 5.25}
    assert calls == {"top": 1, "middle": 1, "leaf": 3}
    # the self times add up to the outermost span
    top_span = tracer.spans[0]
    assert sum(total.values()) == top_span[2] - top_span[1] == 10.75
    # parents and report ids are recorded
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1, 0]
    assert {s[4] for s in tracer.spans} == {7}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2.0
        raise MemoryError

    boom_t = tracer.wrap("boom", boom)
    try:
        boom_t()
    except MemoryError:
        pass
    assert tracer.stack == []
    assert self_times(tracer.spans)[0] == {"boom": 2.0}


if __name__ == "__main__":
    test_self_time_subtracts_direct_children_only()
    test_span_closes_when_the_call_raises()
    print("ok")
