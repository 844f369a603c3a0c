"""Unit tests for the semaphore table."""

import random

import pytest

from repro.runtime.goroutine import Goroutine
from repro.runtime.sema import SemaTable


def _g(goid):
    return Goroutine(goid=goid)


@pytest.fixture
def table():
    return SemaTable()


class TestQueueSemantics:
    def test_enqueue_dequeue_fifo(self, table):
        a, b = _g(1), _g(2)
        table.enqueue(100, a)
        table.enqueue(100, b)
        assert table.dequeue(100) is a
        assert table.dequeue(100) is b
        assert table.dequeue(100) is None

    def test_separate_keys_are_independent(self, table):
        a, b = _g(1), _g(2)
        table.enqueue(10, a)
        table.enqueue(20, b)
        assert table.dequeue(20) is b
        assert table.dequeue(10) is a

    def test_len_counts_parked_goroutines(self, table):
        table.enqueue(1, _g(1))
        table.enqueue(1, _g(2))
        table.enqueue(2, _g(3))
        assert len(table) == 3
        table.dequeue(1)
        assert len(table) == 2

    def test_waiters_snapshot(self, table):
        a, b = _g(1), _g(2)
        table.enqueue(5, a)
        table.enqueue(5, b)
        assert table.waiters(5) == [a, b]
        assert table.waiters(99) == []

    def test_empty_key_removed_from_tree(self, table):
        table.enqueue(7, _g(1))
        table.dequeue(7)
        assert table.keys() == []


class TestRemoveGoroutine:
    def test_removes_all_entries(self, table):
        victim = _g(1)
        other = _g(2)
        table.enqueue(1, victim)
        table.enqueue(2, victim)
        table.enqueue(2, other)
        assert table.remove_goroutine(victim)
        assert len(table) == 1
        assert table.dequeue(2) is other
        assert table.dequeue(1) is None

    def test_missing_goroutine_returns_false(self, table):
        table.enqueue(1, _g(1))
        assert not table.remove_goroutine(_g(99))
        assert len(table) == 1


class TestTreapStructure:
    def test_many_keys_sorted(self, table):
        rng = random.Random(5)
        keys = rng.sample(range(10_000), 200)
        for key in keys:
            table.enqueue(key, _g(key))
        assert table.keys() == sorted(keys)

    def test_random_ops_match_model(self):
        """The table must behave exactly like a dict of FIFO queues."""
        rng = random.Random(11)
        table = SemaTable()
        model = {}
        goid = 0
        for _ in range(2000):
            key = rng.randrange(30)
            action = rng.random()
            if action < 0.5:
                goid += 1
                g = _g(goid)
                table.enqueue(key, g)
                model.setdefault(key, []).append(g)
            else:
                expected = model.get(key, [])
                got = table.dequeue(key)
                if expected:
                    assert got is expected.pop(0)
                    if not expected:
                        model.pop(key, None)
                else:
                    assert got is None
        assert len(table) == sum(len(q) for q in model.values())
        assert table.keys() == sorted(model.keys())
