"""The heap policy: long-lived scopes freeze survivors, never garbage."""

import gc
import sys
import threading
import weakref

import pytest

from repro.engine.heap import long_lived
from repro.experiments.common import StudyContext
from repro.world.build import WorldConfig
from repro.world.entities import DatasetTag


@pytest.fixture(autouse=True)
def _collector_enabled():
    assert gc.isenabled()
    yield
    gc.enable()


@pytest.fixture
def freezes(monkeypatch):
    """Counts gc.freeze() calls (each still freezes)."""
    calls = []
    real = gc.freeze

    def counted():
        calls.append(1)
        real()

    monkeypatch.setattr(gc, "freeze", counted)
    return calls


def tracked_ids() -> set[int]:
    """Objects the collector still scans (frozen ones are not listed)."""
    return {id(obj) for obj in gc.get_objects()}


class Node:
    pass


def test_objects_made_inside_are_frozen():
    before = gc.get_freeze_count()
    with long_lived():
        kept = [[index] for index in range(1000)]
    assert gc.get_freeze_count() >= before + len(kept)
    assert id(kept) not in tracked_ids()
    assert id(kept[0]) not in tracked_ids()


def test_decorator_form_freezes_the_result():
    @long_lived()
    def build():
        return {"rows": [[index] for index in range(10)]}

    made = build()
    assert gc.isenabled()
    assert id(made) not in tracked_ids()


def test_nested_scopes_freeze_once_at_the_outermost_exit(freezes):
    with long_lived():
        with long_lived():
            inner = [[index] for index in range(10)]
        assert freezes == []
        assert not gc.isenabled()
        assert id(inner) in tracked_ids()
    assert freezes == [1]
    assert gc.isenabled()
    assert id(inner) not in tracked_ids()


def test_overlapping_scopes_on_two_threads_freeze_once(freezes):
    both_inside = threading.Barrier(2)

    def work():
        with long_lived():
            both_inside.wait(timeout=10)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert freezes == [1]
    assert gc.isenabled()


def test_many_threads_entering_and_leaving_leave_the_collector_on():
    # A lost update to the shared depth would leave the collector off
    # (or turn it on under a live scope) once the threads are done.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(20):
                with long_lived():
                    with long_lived():
                        pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()
    with long_lived():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_collector_state_restored_after_an_exception():
    with pytest.raises(RuntimeError):
        with long_lived():
            assert not gc.isenabled()
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled():
    gc.disable()
    with long_lived():
        pass
    assert not gc.isenabled()


def test_a_cycle_dropped_inside_is_collected_not_frozen():
    with long_lived():
        node = Node()
        node.self = node
        alive = weakref.ref(node)
        del node
        assert alive() is not None  # the collector is off in here
    assert alive() is None


WORLD = WorldConfig(seed=7, alexa_size=200, com_size=60, gov_size=40)


def build_and_drop() -> None:
    ctx = StudyContext.create(WORLD, store=None)
    ctx.priority(DatasetTag.ALEXA, 8)
    ctx.baseline("mx-only", DatasetTag.ALEXA, 8)
    assert id(ctx.world) not in tracked_ids()


def test_a_dropped_context_returns_the_freeze_count_to_its_baseline():
    # The first context also freezes what any first use leaves behind
    # for good (imported modules, process-wide caches).
    build_and_drop()
    baseline = gc.get_freeze_count()
    for _ in range(2):
        build_and_drop()
        assert gc.get_freeze_count() == baseline
