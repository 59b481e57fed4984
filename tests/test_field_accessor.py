"""The shared field-path walker: memoized parses and compiled accessors.

One :class:`~repro.core.fieldpath.Accessor` per logical path serves
``Message`` field access, the codec plans' origin accessors and the deep-path
fallbacks of the specialized modules.
"""

from __future__ import annotations

import pytest

from repro.codegen import generate_specialized_module
from repro.core import INDEX, FieldPath, Message, MessageError
from repro.core import fieldpath
from repro.core.fieldpath import accessor
from repro.protocols import registry
from repro.wire.plan import compile_plan


class TestParseMemo:
    def test_repeated_text_returns_the_same_path(self):
        first = FieldPath.parse("headers[*].name")
        assert FieldPath.parse("headers[*].name") is first
        assert FieldPath.parse("") is FieldPath.parse("")

    def test_invalid_segments_are_still_rejected(self):
        for _ in range(2):
            with pytest.raises(MessageError, match="invalid field path segment"):
                FieldPath.parse("bad segment")
        assert "bad segment" not in fieldpath._PARSED

    def test_caches_are_bounded(self):
        for index in range(fieldpath._CACHE_CAPACITY + 50):
            accessor(f"bounded_{index}.leaf")
        assert len(fieldpath._PARSED) <= fieldpath._CACHE_CAPACITY
        assert len(fieldpath._ACCESSORS) <= fieldpath._CACHE_CAPACITY
        # An evicted path compiles again on demand.
        assert accessor("bounded_0.leaf").get({"bounded_0": {"leaf": 1}}, ()) == 1


class TestAccessor:
    def test_one_accessor_per_path_whatever_the_spelling(self):
        shared = accessor("rows[*].cells[*].value")
        assert accessor(FieldPath.parse("rows[*].cells[*].value")) is shared
        assert accessor(("rows", INDEX, "cells", INDEX, "value")) is shared

    @pytest.mark.parametrize("text", ["a", "a.b", "a[*].b", "a[1].b", "a.b[*].c.d"])
    def test_every_shape_matches_resolve_then_message(self, text):
        walker = accessor(text)
        indices = [1, 0, 5]
        concrete = str(walker.path.resolve(indices))
        data: dict = {}
        walker.set(data, indices, 42)
        assert Message(data).get(concrete) == 42
        assert walker.get(data, indices) == 42
        assert walker.get({}, indices) is None
        assert walker.get({}, indices, "absent") == "absent"

    def test_indices_bind_left_to_right(self):
        walker = accessor("rows[*].cells[*].value")
        data: dict = {}
        walker.set(data, [1, 0], "x")
        assert data == {"rows": [None, {"cells": [{"value": "x"}]}]}

    def test_too_few_indices_raise_the_resolve_error(self):
        data = {"rows": [{"value": 1, "cells": [{"value": 2}]}]}
        for text in ("rows[*].value", "rows[*].cells[*].value"):
            walker = accessor(text)
            with pytest.raises(MessageError) as from_get:
                walker.get(data, [])
            with pytest.raises(MessageError) as from_resolve:
                walker.path.resolve([])
            assert str(from_get.value) == str(from_resolve.value)
            with pytest.raises(MessageError):
                walker.set({}, [], 1)

    def test_init_list_keeps_a_present_value(self):
        walker = accessor("a.items")
        data: dict = {"a": {"items": None}}
        walker.init_list(data, ())
        assert data == {"a": {"items": None}}
        fresh: dict = {}
        walker.init_list(fresh, ())
        assert fresh == {"a": {"items": []}}

    def test_set_type_mismatch_names_the_prefix(self):
        with pytest.raises(MessageError, match=r"expected a dict at \('a',\)"):
            accessor("a.b").set({"a": [1]}, (), 2)
        with pytest.raises(MessageError, match=r"expected a list at \('a',\)"):
            accessor("a[0].b").set({"a": {}}, (), 2)
        with pytest.raises(MessageError, match=r"expected a dict at \('a', 'b'\)"):
            accessor("a.b.c").set({"a": {"b": []}}, (), 2)

    def test_root_cannot_be_assigned(self):
        with pytest.raises(MessageError, match="cannot assign the message root"):
            accessor("").set({}, (), 1)


class TestSharing:
    def test_codec_plans_hold_the_shared_walkers(self):
        graph = registry.get("dns").graph_factory()
        plan = compile_plan(graph)
        for node in graph.nodes():
            if node.origin is not None:
                walker = accessor(node.origin)
                assert plan.origin_get[node.name] is walker.get
                assert plan.origin_set[node.name] is walker.set
                assert plan.list_init[node.name] is walker.init_list

    def test_specialized_modules_bind_deep_paths_to_shared_accessors(self):
        for key in registry.available():
            for _, graph_factory, _ in registry.get(key).directions():
                source = generate_specialized_module(graph_factory())
                for helper in ("_get_path", "_set_path", "_ensure_list"):
                    assert helper not in source
        dns = generate_specialized_module(registry.get("dns").graph_factory())
        assert "from repro.core.fieldpath import accessor as _accessor" in dns
        assert ".get(message, (i0, i1))" in dns
