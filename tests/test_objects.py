"""Unit tests for the heap object model."""

import pytest

from repro.runtime.objects import (
    Blob,
    Box,
    GoMap,
    HeapObject,
    Slice,
    Struct,
    WORD_SIZE,
    iter_heap_refs,
)


class TestHeapObject:
    def test_fresh_object_is_unallocated(self):
        obj = HeapObject()
        assert obj.addr == 0

    def test_default_has_no_referents(self):
        assert list(HeapObject().referents()) == []

    def test_default_scan_work_is_zero(self):
        assert HeapObject().scan_work == 0

    def test_finalizer_roundtrip(self):
        obj = HeapObject()
        assert obj.finalizer is None
        fn = lambda o: None
        obj.set_finalizer(fn)
        assert obj.finalizer is fn

    def test_repr_contains_kind_and_size(self):
        obj = Box(1)
        assert "box" in repr(obj)


class TestBox:
    def test_holds_plain_value(self):
        assert Box(42).value == 42

    def test_references_heap_value(self):
        inner = Box(1)
        outer = Box(inner)
        assert list(outer.referents()) == [inner]

    def test_plain_value_yields_no_referents(self):
        assert list(Box("str").referents()) == []

    def test_references_through_container(self):
        inner = Box(1)
        outer = Box([1, 2, inner])
        assert list(outer.referents()) == [inner]


class TestStruct:
    def test_field_access(self):
        s = Struct(a=1, b="x")
        assert s.get("a") == 1
        assert s["b"] == "x"

    def test_field_mutation(self):
        s = Struct(a=1)
        s["a"] = 2
        s.set("b", 3)
        assert s["a"] == 2 and s["b"] == 3

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            Struct()["nope"]

    def test_referents_cover_all_fields(self):
        a, b = Box(1), Box(2)
        s = Struct(x=a, y=[b], z="plain")
        assert set(s.referents()) == {a, b}

    def test_size_grows_with_fields(self):
        assert Struct(a=1, b=2, c=3).size > Struct(a=1).size


class TestSlice:
    def test_append_and_iter(self):
        s = Slice()
        s.append(1)
        s.append(2)
        assert list(s) == [1, 2]
        assert len(s) == 2

    def test_indexing(self):
        s = Slice([10, 20])
        s[1] = 30
        assert s[0] == 10 and s[1] == 30

    def test_append_grows_size(self):
        s = Slice()
        before = s.size
        s.append(None)
        assert s.size == before + WORD_SIZE

    def test_referents(self):
        a = Box(1)
        s = Slice([a, 5, "x"])
        assert list(s.referents()) == [a]


class TestGoMap:
    def test_mapping_semantics(self):
        m = GoMap()
        m["k"] = "v"
        assert m["k"] == "v"
        assert "k" in m
        assert m.get("missing", 9) == 9
        del m["k"]
        assert len(m) == 0

    def test_size_tracks_entries(self):
        m = GoMap()
        empty = m.size
        m["a"] = 1
        assert m.size == empty + GoMap.BYTES_PER_ENTRY
        del m["a"]
        assert m.size == empty

    def test_overwrite_does_not_grow(self):
        m = GoMap()
        m["a"] = 1
        before = m.size
        m["a"] = 2
        assert m.size == before

    def test_sized_accounts_without_materializing(self):
        m = GoMap.sized(100_000)
        assert len(m) == 0
        assert m.scan_work == 100_000
        assert m.size > 100_000 * GoMap.BYTES_PER_ENTRY

    def test_referents_cover_keys_and_values(self):
        key_obj, val_obj = Box("k"), Box("v")
        m = GoMap({key_obj: val_obj})
        assert set(m.referents()) == {key_obj, val_obj}


class TestBlob:
    def test_size(self):
        assert Blob(1234).size == 1234

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Blob(-1)

    def test_noscan(self):
        assert Blob(4096).scan_work == 0
        assert list(Blob(16).referents()) == []


class TestIterHeapRefs:
    def test_direct_object(self):
        b = Box(1)
        assert list(iter_heap_refs(b)) == [b]

    def test_nested_containers(self):
        a, b = Box(1), Box(2)
        value = {"k": [a, (b,)], "plain": 7}
        assert set(iter_heap_refs(value)) == {a, b}

    def test_dict_keys_scanned(self):
        a = Box(1)
        assert list(iter_heap_refs({a: "v"})) == [a]

    def test_plain_values_yield_nothing(self):
        assert list(iter_heap_refs(42)) == []
        assert list(iter_heap_refs("s")) == []
        assert list(iter_heap_refs(None)) == []

    def test_depth_limit_stops_runaway(self):
        deep = Box(1)
        value = [deep]
        for _ in range(40):
            value = [value]
        # Too deep to find, but must not raise.
        assert list(iter_heap_refs(value)) == []
