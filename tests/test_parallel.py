import threading
import time

import pytest

from gridprep import parallel
from gridprep.parallel import map_in_order

from .conftest import usable_cores


class Recorder:
    """Wraps ``fn`` and records, per item, the thread that ran it; counts
    the calls running and keeps the order in which calls start and end."""

    def __init__(self, fn):
        self.fn = fn
        self.lock = threading.Lock()
        self.thread_of = {}
        self.started, self.ended = [], []
        self.running = 0

    def __call__(self, item):
        with self.lock:
            self.thread_of[item] = threading.get_ident()
            self.started.append(item)
            self.running += 1
        try:
            return self.fn(item)
        finally:
            with self.lock:
                self.running -= 1
                self.ended.append(item)

    def assert_quiet(self):
        """No call is running, and no thread that ran one is left to start another."""
        assert self.running == 0
        alive = {thread.ident for thread in threading.enumerate()}
        caller = threading.get_ident()
        assert not {t for t in self.thread_of.values() if t != caller} & alive


def uneven(item):
    time.sleep(0.002 * (item % 3))  # items finish out of order
    return item * item


@pytest.mark.parametrize("cores", [1, 2, 3, 12])
def test_results_come_back_in_item_order(cores):
    calls = Recorder(uneven)
    with usable_cores(cores):
        assert map_in_order(calls, range(8)) == [k * k for k in range(8)]
    assert sorted(calls.started) == list(range(8))
    calls.assert_quiet()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_item_zero_runs_on_the_calling_thread(cores):
    calls = Recorder(uneven)
    with usable_cores(cores):
        map_in_order(calls, range(5))
    assert calls.thread_of[0] == threading.get_ident()
    if cores == 1:
        assert set(calls.thread_of.values()) == {threading.get_ident()}


def test_empty_and_single_items_stay_on_the_calling_thread():
    calls = Recorder(uneven)
    with usable_cores(4):
        assert map_in_order(calls, []) == []
        assert map_in_order(calls, [5]) == [25]
    assert calls.thread_of == {5: threading.get_ident()}


@pytest.mark.parametrize("cores, items, pool", [(1, 8, None), (2, 8, 1), (3, 2, 1), (12, 5, 4)])
def test_one_thread_per_usable_core_and_at_most_one_per_item(monkeypatch, cores, items, pool):
    """The calling thread is one of min(cores, items) threads; the pool holds the rest."""
    sizes = []

    class Pool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Pool)
    with usable_cores(cores):
        assert map_in_order(uneven, range(items)) == [k * k for k in range(items)]
    assert sizes == ([] if pool is None else [pool])


def test_caller_takes_a_later_item_while_the_pool_is_busy():
    one_started, two_ran = threading.Event(), threading.Event()

    def fn(item):
        if item == 0:
            assert one_started.wait(10)  # the only pool thread is now on item 1
        elif item == 1:
            one_started.set()
            assert two_ran.wait(10)  # held until the caller has run item 2
        else:
            two_ran.set()
        return item

    calls = Recorder(fn)
    with usable_cores(2):
        assert map_in_order(calls, range(3)) == [0, 1, 2]
    caller = threading.get_ident()
    assert calls.thread_of[0] == calls.thread_of[2] == caller
    assert calls.thread_of[1] != caller
    calls.assert_quiet()


def test_an_error_on_the_calling_thread_propagates_and_stops_the_map():
    one_started = threading.Event()

    def fn(item):
        if item == 0:
            assert one_started.wait(10)
            raise ValueError("item 0")
        if item == 1:
            one_started.set()
            time.sleep(0.2)  # still running when item 0 fails
        return item

    calls = Recorder(fn)
    with usable_cores(2), pytest.raises(ValueError, match="item 0"):
        map_in_order(calls, range(6))
    assert 1 in calls.ended  # the running call ended before the return
    assert sorted(calls.started) == [0, 1]  # the rest were cancelled
    calls.assert_quiet()


def test_an_error_on_a_pool_thread_propagates():
    def fn(item):
        if item == 2:
            raise KeyError(item)
        return item

    for cores in (2, 3, 12):
        calls = Recorder(fn)
        with usable_cores(cores), pytest.raises(KeyError):
            map_in_order(calls, range(6))
        calls.assert_quiet()


def test_the_first_error_in_item_order_wins():
    one_started, two_ran = threading.Event(), threading.Event()

    def fn(item):
        if item == 0:
            assert one_started.wait(10)
        elif item == 1:
            one_started.set()
            assert two_ran.wait(10)
            raise ValueError("item 1")
        elif item == 2:
            two_ran.set()  # item 2 runs on the caller and fails first in time
            raise ValueError("item 2")
        return item

    calls = Recorder(fn)
    with usable_cores(2), pytest.raises(ValueError, match="item 1"):
        map_in_order(calls, range(5))
    calls.assert_quiet()
