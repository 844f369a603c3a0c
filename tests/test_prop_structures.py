"""Property-based tests for core data structures against simple models."""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.runtime.channel import Channel
from repro.runtime.goroutine import Goroutine, Sudog
from repro.runtime.objects import GoMap
from repro.runtime.sema import SemaTable


class TestChannelFifoModel:
    """A buffered channel with no blocked parties must behave exactly
    like a bounded deque."""

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        ops=st.lists(
            st.tuples(st.sampled_from(["send", "recv"]),
                      st.integers(min_value=0, max_value=99)),
            max_size=60,
        ),
    )
    def test_matches_deque_model(self, capacity, ops):
        ch = Channel(capacity)
        model = deque()
        for kind, value in ops:
            if kind == "send":
                done, wakeups = ch.try_send(value)
                assert wakeups == []
                if len(model) < capacity:
                    assert done
                    model.append(value)
                else:
                    assert not done
            else:
                done, got, ok, wakeups = ch.try_recv()
                assert wakeups == []
                if model:
                    assert done and ok and got == model.popleft()
                else:
                    assert not done
            assert len(ch) == len(model)
            assert ch.full == (len(model) >= capacity)


class TestSemaTableModel:
    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["enqueue", "dequeue", "remove"]),
                      st.integers(min_value=0, max_value=9)),
            max_size=80,
        ),
    )
    def test_matches_dict_of_queues(self, ops):
        table = SemaTable()
        model = {}
        goroutines = []
        goid = 0
        for kind, key in ops:
            if kind == "enqueue":
                goid += 1
                g = Goroutine(goid=goid)
                goroutines.append(g)
                table.enqueue(key, g)
                model.setdefault(key, []).append(g)
            elif kind == "dequeue":
                got = table.dequeue(key)
                queue = model.get(key, [])
                if queue:
                    assert got is queue.pop(0)
                    if not queue:
                        del model[key]
                else:
                    assert got is None
            elif kind == "remove" and goroutines:
                victim = goroutines[key % len(goroutines)]
                expected_hits = sum(
                    1 for q in model.values() for g in q if g is victim)
                assert table.remove_goroutine(victim) == (expected_hits > 0)
                for k in list(model):
                    model[k] = [g for g in model[k] if g is not victim]
                    if not model[k]:
                        del model[k]
            assert len(table) == sum(len(q) for q in model.values())
            assert table.keys() == sorted(model.keys())


class TestGoMapAccounting:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["set", "del"]),
                      st.integers(min_value=0, max_value=15),
                      st.integers(min_value=0, max_value=99)),
            max_size=60,
        ),
    )
    def test_size_tracks_model(self, ops):
        m = GoMap()
        empty_size = m.size
        model = {}
        for kind, key, value in ops:
            if kind == "set":
                m[key] = value
                model[key] = value
            elif key in model:
                del m[key]
                del model[key]
            assert len(m) == len(model)
            assert m.size == empty_size + GoMap.BYTES_PER_ENTRY * len(model)
            assert dict(m.entries) == model


class TestChannelCloseInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(min_value=0, max_value=4),
        preload=st.lists(st.integers(), max_size=4),
    )
    def test_close_preserves_buffered_values(self, capacity, preload):
        ch = Channel(capacity)
        sent = []
        for value in preload:
            done, _ = ch.try_send(value)
            if done:
                sent.append(value)
        ch.close()
        drained = []
        while True:
            done, value, ok, _ = ch.try_recv()
            assert done  # closed channels never block receivers
            if not ok:
                break
            drained.append(value)
        assert drained == sent
        # Every receive after drain keeps returning (zero, False).
        done, value, ok, _ = ch.try_recv()
        assert done and not ok
