"""Tests of the logical message model, the graph builder and graph validation."""

from __future__ import annotations

import hashlib
import re
from random import Random

import pytest

from repro.core import (
    Boundary,
    BoundaryKind,
    FieldPath,
    GraphError,
    Message,
    MessageError,
    Node,
    NodeType,
    Synthesis,
    SynthesisOp,
    ValueKind,
    ValueOp,
    ValueOpKind,
    build_graph,
    delimited_text,
    fixed_bytes,
    optional,
    remaining_bytes,
    repetition,
    sequence,
    tabular,
    uint,
    validate_graph,
)
from repro.core.builder import assign_origins
from repro.core.graph import FormatGraph, is_greedy, parse_window_known, static_size
from repro.core.validate import _bottom_up, _walk
from repro.protocols import registry
from repro.transforms import Obfuscator


class TestMessage:
    def test_set_and_get_nested(self):
        message = Message()
        message.set("a.b.c", 5)
        assert message.get("a.b.c") == 5
        assert message.get("a.b") == {"c": 5}

    def test_get_missing_returns_default(self):
        message = Message()
        assert message.get("x.y") is None
        assert message.get("x.y", 7) == 7

    def test_has_distinguishes_missing_from_none(self):
        message = Message()
        message.set("a", None)
        assert message.has("a")
        assert not message.has("b")

    def test_list_auto_extension(self):
        message = Message()
        message.set("items[2].name", "c")
        assert message.get("items") == [None, None, {"name": "c"}]
        message.set("items[0].name", "a")
        assert message.get("items[0].name") == "a"

    def test_scalar_list_assignment(self):
        message = Message()
        message.set("data[1]", 9)
        assert message.get("data") == [None, 9]

    def test_set_rejects_unbound_index(self):
        with pytest.raises(MessageError):
            Message().set("items[*].name", 1)

    def test_set_rejects_root(self):
        with pytest.raises(MessageError):
            Message().set(FieldPath(), 1)

    def test_set_type_mismatch(self):
        message = Message()
        message.set("a", [1, 2])
        with pytest.raises(MessageError):
            message.set("a.b", 1)

    def test_delete(self):
        message = Message.from_dict({"a": {"b": 1}, "items": [1, 2]})
        message.delete("a.b")
        assert not message.has("a.b")
        message.delete("items[0]")
        assert message.get("items") == [None, 2]
        message.delete("missing")  # no-op

    def test_list_length(self):
        message = Message.from_dict({"items": [1, 2, 3]})
        assert message.list_length("items") == 3
        assert message.list_length("absent") == 0
        message.set("scalar", 5)
        with pytest.raises(MessageError):
            message.list_length("scalar")

    def test_copy_and_to_dict_are_deep(self):
        message = Message.from_dict({"a": {"b": [1]}})
        copy = message.copy()
        copy.set("a.b[0]", 99)
        assert message.get("a.b[0]") == 1
        exported = message.to_dict()
        exported["a"]["b"][0] = 50
        assert message.get("a.b[0]") == 1

    def test_leaves(self):
        message = Message.from_dict({"a": 1, "items": [{"x": 2}], "b": {"c": 3}})
        leaves = {str(path): value for path, value in message.leaves()}
        assert leaves == {"a": 1, "items[0].x": 2, "b.c": 3}

    def test_equality(self):
        assert Message.from_dict({"a": 1}) == Message.from_dict({"a": 1})
        assert Message.from_dict({"a": 1}) == {"a": 1}
        assert Message.from_dict({"a": 1}) != Message.from_dict({"a": 2})

    def test_messages_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Message())


class TestOriginAssignment:
    def test_sequence_members_get_dotted_paths(self):
        graph = build_graph(
            sequence("root", [uint("a", 1), sequence("grp", [uint("b", 1)])]), "demo"
        )
        assert str(graph.require("a").origin) == "a"
        assert str(graph.require("b").origin) == "grp.b"

    def test_repetition_children_are_transparent_with_index(self):
        graph = build_graph(
            sequence(
                "root",
                [repetition("items", sequence("item", [uint("x", 1)]),
                            boundary=Boundary.end())],
            ),
            "demo",
        )
        assert str(graph.require("items").origin) == "items"
        assert str(graph.require("x").origin) == "items[*].x"
        assert str(graph.require("item").origin) == "items[*]"

    def test_optional_children_are_transparent(self):
        graph = build_graph(
            sequence("root", [uint("flag", 1),
                              optional("body", remaining_bytes("content"))]),
            "demo",
        )
        assert str(graph.require("content").origin) == "body"

    def test_derived_length_fields_have_no_origin(self):
        root = sequence("root", [uint("len", 2),
                                 fixed_bytes("data", 4)])
        root.children[1].boundary = Boundary.length("len")
        graph = build_graph(root, "demo")
        assert graph.require("len").origin is None
        assert graph.require("data").origin is not None

    def test_counter_fields_have_no_origin(self):
        graph = build_graph(
            sequence("root", [uint("count", 1),
                              tabular("items", uint("value", 2), counter="count")]),
            "demo",
        )
        assert graph.require("count").origin is None


def _exact(message: str) -> str:
    """A ``pytest.raises`` pattern matching exactly ``message``."""
    return f"^{re.escape(message)}$"


class TestValidation:
    def _valid(self):
        return build_graph(sequence("root", [uint("a", 1)]), "demo")

    def test_valid_graph_passes(self):
        validate_graph(self._valid())

    def test_sequence_requires_children(self):
        graph = FormatGraph(Node("root", NodeType.SEQUENCE, Boundary.delegated(),
                                 children=[uint("a", 1)]))
        graph.root.children = []
        message = "sequence 'root' must have at least one child"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_optional_requires_single_child(self):
        node = optional("o", uint("a", 1))
        node.add_child(uint("b", 1))
        message = "optional node 'o' must have exactly one child, got 2"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [node])))

    def test_uint_requires_fixed_boundary(self):
        bad = Node("u", NodeType.TERMINAL, Boundary.end(), value_kind=ValueKind.UINT)
        message = "uint terminal 'u' requires a fixed boundary"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [bad])))

    def test_uint_requires_positive_size(self):
        message = "uint terminal 'u' requires a positive size"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [uint("u", 0)])))

    def test_tabular_requires_counter_boundary(self):
        bad = Node("t", NodeType.TABULAR, Boundary.end(), children=[uint("a", 1)])
        message = "tabular 't' must use a counter boundary"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [uint("c", 1), bad])))

    def test_counter_reference_must_exist(self):
        graph = FormatGraph(sequence("root", [tabular("t", uint("a", 1), counter="nope")]))
        message = "node 't' references unknown node 'nope'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_reference_must_precede_user(self):
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("len")
        root = sequence("root", [data, uint("len", 2)])
        message = "node 'data' references 'len' which is serialized after it"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_reference_must_be_terminal(self):
        inner = sequence("inner", [uint("a", 1)])
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("inner")
        message = "node 'data' references non-terminal node 'inner'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [inner, data])))

    def test_reference_cannot_cross_repetition(self):
        counter_inside = repetition("rep", uint("len", 2), boundary=Boundary.end())
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("len")
        # the repetition is greedy, so place the data before it to isolate the scoping error
        message = "node 'data' references 'len' across the repetition node 'rep'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [counter_inside, data])))

    def test_length_field_must_be_uint(self):
        length = delimited_text("len", b" ")
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("len")
        message = "terminal 'len' is a length/counter field and must be a fixed-size uint"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [length, data])))

    @staticmethod
    def _pad(name: str, kind: ValueKind) -> Node:
        return Node(name, NodeType.TERMINAL, Boundary.fixed(2), value_kind=kind,
                    is_pad=True)

    def test_length_field_cannot_be_padding(self):
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("pad0")
        root = sequence("root", [self._pad("pad0", ValueKind.UINT), data])
        message = "terminal 'pad0' is a length/counter field and cannot be padding"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_counter_field_cannot_be_padding(self):
        table = tabular("t", uint("x", 1), counter="pad0")
        root = sequence("root", [self._pad("pad0", ValueKind.UINT), table])
        message = "terminal 'pad0' is a length/counter field and cannot be padding"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_non_uint_pad_length_field_reports_the_uint_rule(self):
        # The padding rule runs after the two length/counter-field rules.
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("pad0")
        root = sequence("root", [self._pad("pad0", ValueKind.BYTES), data])
        message = "terminal 'pad0' is a length/counter field and must be a fixed-size uint"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_length_field_cannot_be_shared(self):
        length = uint("len", 2)
        first = fixed_bytes("a", 4)
        first.boundary = Boundary.length("len")
        second = fixed_bytes("b", 4)
        second.boundary = Boundary.length("len")
        message = "terminal 'len' is the length of both 'a' and 'b'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [length, first, second])))

    def test_counter_can_be_shared(self):
        count = uint("count", 1)
        first = tabular("t1", uint("x", 1), counter="count")
        second = tabular("t2", uint("y", 1), counter="count")
        graph = build_graph(sequence("root", [count, first, second]), "demo")
        validate_graph(graph)

    def test_greedy_node_must_be_last(self):
        root = sequence("root", [remaining_bytes("rest"), uint("after", 1)])
        message = "greedy node 'rest' is not in tail position of its window"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_greedy_node_allowed_in_tail(self):
        graph = build_graph(sequence("root", [uint("a", 1), remaining_bytes("rest")]), "demo")
        validate_graph(graph)

    def test_greedy_inside_length_window_is_allowed(self):
        length = uint("len", 2)
        inner = sequence("inner", [remaining_bytes("rest")], boundary=Boundary.length("len"))
        graph = build_graph(sequence("root", [length, inner, uint("after", 1)]), "demo")
        validate_graph(graph)

    def test_mirrored_delimited_rejected(self):
        node = delimited_text("t", b" ")
        node.mirrored = True
        message = "mirrored node 't' cannot use a delimited boundary"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [node])))

    def test_bytewise_chain_on_delimited_rejected(self):
        node = delimited_text("t", b" ")
        node.codec_chain = (ValueOp(ValueOpKind.XOR, 3, bytewise=True),)
        message = (
            "bytewise value operation on delimited terminal 't' could "
            "collide with the delimiter"
        )
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [node])))

    def test_bytewise_chain_on_uint_rejected(self):
        node = uint("t", 2)
        node.codec_chain = (ValueOp(ValueOpKind.XOR, 3, bytewise=True),)
        message = "bytewise value operation on uint terminal 't'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [node])))

    def test_integer_chain_width_must_match(self):
        node = uint("t", 2)
        node.codec_chain = (ValueOp(ValueOpKind.ADD, 3, bytewise=False, width=1),)
        message = "integer value operation width mismatch on terminal 't'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [node])))

    def test_synthesis_requires_two_value_children(self):
        bad = Node(
            "syn",
            NodeType.SEQUENCE,
            Boundary.delegated(),
            children=[uint("only", 2)],
            origin=FieldPath.parse("field"),
            synthesis=Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=2),
        )
        message = "synthesis node 'syn' must have exactly two value-carrying sub-nodes (found 1)"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [bad])))

    def test_pad_with_origin_rejected(self):
        pad = Node("p", NodeType.TERMINAL, Boundary.fixed(2), value_kind=ValueKind.BYTES,
                   is_pad=True, origin=FieldPath.parse("p"))
        message = "pad terminal 'p' cannot carry a logical origin"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [pad])))

    def test_stale_parent_link_detected(self):
        root = sequence("root", [uint("a", 1)])
        root.children[0].parent = None
        message = "node 'a' has a stale parent link (expected 'root')"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_duplicate_name_rejected(self):
        root = sequence("root", [uint("a", 1), sequence("inner", [uint("a", 2)])])
        message = "duplicate node name 'a' in graph 'protocol'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))

    def test_reference_cannot_cross_optional(self):
        guarded = optional("opt", uint("len", 2), presence_ref="flag", presence_value=1)
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("len")
        message = "node 'data' references 'len' across the optional node 'opt'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [uint("flag", 1), guarded, data])))

    def test_reference_cannot_cross_tabular(self):
        column = tabular("tab", uint("len", 2), counter="count")
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("len")
        message = "node 'data' references 'len' across the tabular node 'tab'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [uint("count", 1), column, data])))

    def test_reference_within_one_tabular_element_is_allowed(self):
        data = fixed_bytes("data", 4)
        data.boundary = Boundary.length("len")
        row = sequence("row", [uint("len", 2), data])
        root = sequence("root", [uint("count", 1), tabular("tab", row, counter="count")])
        validate_graph(build_graph(root, "demo"))

    def test_greedy_tail_of_mirrored_region(self):
        def graph(*children):
            region = sequence("region", list(children), boundary=Boundary.end())
            region.mirrored = True
            graph = FormatGraph(sequence("root", [uint("x", 1), region]))
            assign_origins(graph)
            return graph

        validate_graph(graph(uint("a", 1), remaining_bytes("rest")))
        message = "greedy node 'rest' is not in tail position of its window"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph(remaining_bytes("rest"), uint("b", 1)))

    def test_mirrored_end_region_must_be_last(self):
        # The parser extracts the region up to the end of its window, so it
        # swallows what follows it even when no child of it is greedy.
        region = sequence("region", [uint("a", 1), uint("b", 1)], boundary=Boundary.end())
        region.mirrored = True
        graph = build_graph(sequence("msg", [region, uint("c", 1)]), "demo", validate=False)
        assert is_greedy(region)
        message = "greedy node 'region' is not in tail position of its window"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_rule_order_decides_reported_error(self):
        def graph(*extra):
            first = fixed_bytes("a", 4)
            first.boundary = Boundary.length("len")
            second = fixed_bytes("b", 4)
            second.boundary = Boundary.length("len")
            # 'len' backs two LENGTH boundaries and 'rest' is greedy but not last.
            children = [uint("len", 2), first, second, remaining_bytes("rest"), *extra]
            return FormatGraph(sequence("root", children + [uint("after", 1)]))

        # Shared LENGTH targets are reported before window layout ...
        message = "terminal 'len' is the length of both 'a' and 'b'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph())
        # ... any per-node rule before both ...
        message = "node 't' references unknown node 'nope'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph(tabular("t", uint("x", 1), counter="nope")))
        # ... and a duplicate name before everything.
        message = "duplicate node name 'x' in graph 'protocol'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph(tabular("t", uint("x", 1), counter="nope"), uint("x", 1)))

    def test_protocol_graphs_validate(self, protocol_case):
        _, graph_factory, _ = protocol_case
        validate_graph(graph_factory())

    # -- the codec contract: rules every tier relies on instead of re-checking

    @pytest.mark.parametrize("kind", ["repetition", "tabular"])
    def test_repeated_node_requires_origin(self, kind):
        element = uint("x", 1)
        repeated = (repetition("items", element) if kind == "repetition"
                    else tabular("items", element, counter="count"))
        graph = build_graph(sequence("root", [uint("count", 1), repeated]), "demo")
        repeated.origin = None
        message = f"{kind} node 'items' must carry a logical origin"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_value_terminal_requires_origin(self):
        # Padding, length/counter fields and synthesis children carry none.
        data = fixed_bytes("data", 2)
        data.boundary = Boundary.length("len")
        pad = Node("pad0", NodeType.TERMINAL, Boundary.fixed(1),
                   value_kind=ValueKind.BYTES, is_pad=True)
        graph = build_graph(sequence("root", [uint("len", 1), data, pad, uint("a", 1)]),
                            "demo")
        validate_graph(graph)
        graph.root.children[-1].origin = None
        message = ("terminal 'a' must carry a logical origin: it is no pad, "
                   "length/counter field or synthesis child")
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    @staticmethod
    def _split() -> Node:
        """A SplitAdd node 'v_split' whose shares are 'v_share_1' and 'v_share_2'."""
        return Node("v_split", NodeType.SEQUENCE, Boundary.delegated(),
                    children=[uint("v_share_1", 1), uint("v_share_2", 1)],
                    origin=FieldPath.parse("v"),
                    synthesis=Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=1))

    def test_synthesis_share_cannot_count_a_tabular(self):
        # The serializer writes 'v_share_1' as a share; a parser reading it
        # as the tabular's counter finds one share where two belong.
        rows = tabular("rows", uint("x", 1), counter="v_share_1")
        graph = FormatGraph(sequence("root", [self._split(), rows]))
        rows.origin = FieldPath.parse("rows")
        rows.children[0].origin = FieldPath.parse("rows[*]")
        message = ("synthesis child 'v_share_1' of 'v_split' may be referenced only "
                   "by a sibling's length boundary, not by 'rows'")
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_synthesis_child_may_measure_a_sibling(self):
        # SplitCat of a variable-size terminal: a derived length prefix sits
        # next to the share it measures.
        share = Node("t_share_2", NodeType.TERMINAL, Boundary.length("t_len"),
                     value_kind=ValueKind.TEXT)
        split = Node("t_split", NodeType.SEQUENCE, Boundary.delegated(),
                     children=[fixed_bytes("t_share_1", 2), uint("t_len", 1), share],
                     origin=FieldPath.parse("t"),
                     synthesis=Synthesis(SynthesisOp.CAT, ValueKind.TEXT))
        validate_graph(FormatGraph(sequence("root", [split])))
        data = fixed_bytes("data", 2)
        data.boundary = Boundary.length("v_share_1")
        data.origin = FieldPath.parse("data")
        message = ("synthesis child 'v_share_1' of 'v_split' may be referenced only "
                   "by a sibling's length boundary, not by 'data'")
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [self._split(), data])))

    def test_presence_terminal_requires_origin(self):
        # The serializer reads the presence value at the terminal's origin,
        # and a pad is never parsed into a value.
        pad = Node("pad0", NodeType.TERMINAL, Boundary.fixed(1),
                   value_kind=ValueKind.BYTES, is_pad=True)
        extra = optional("extra", uint("value", 1), presence_ref="pad0",
                         presence_value=b"\x01")
        graph = build_graph(sequence("root", [pad, extra]), "demo", validate=False)
        message = "presence reference 'pad0' of optional 'extra' must carry a logical origin"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_synthesis_cannot_have_a_pad_child(self):
        # The serializer would hand the pad a share and write random bytes;
        # the parser finds no value in it.
        pad = Node("pad0", NodeType.TERMINAL, Boundary.fixed(1),
                   value_kind=ValueKind.BYTES, is_pad=True)
        split = Node("v_split", NodeType.SEQUENCE, Boundary.delegated(),
                     children=[pad, uint("v_share", 1)], origin=FieldPath.parse("v"),
                     synthesis=Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=1))
        message = "synthesis node 'v_split' cannot have the pad child 'pad0'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(sequence("root", [split])))

    @pytest.mark.parametrize("inner", ["a.b", "a[*]", "a.b[*].c"])
    def test_value_origin_cannot_prefix_another_origin(self, inner):
        # Parsing would store a value where another path needs a container.
        graph = build_graph(sequence("root", [uint("a", 1), uint("b", 1)]), "demo")
        graph.root.children[1].origin = FieldPath.parse(inner)
        message = f"origin a of 'a' is a strict prefix of the origin {inner} of 'b'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)

    def test_origin_prefix_rule_compares_index_steps_as_equal(self):
        rows = repetition("rows", sequence("row", [uint("x", 1), uint("y", 1)]))
        graph = build_graph(sequence("root", [rows]), "demo")
        x, y = rows.children[0].children
        y.origin = FieldPath.parse("rows[*].x.deeper")
        message = "origin rows[*].x of 'x' is a strict prefix of the origin rows[*].x.deeper of 'y'"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(graph)
        # Equal origins are no strict prefix: two terminals, or an optional
        # and its terminal.
        y.origin = FieldPath.parse("rows[*].x")
        validate_graph(graph)
        validate_graph(build_graph(sequence("root", [optional("opt", uint("v", 1))]),
                                   "demo"))

    def test_contract_rules_run_after_every_other_rule(self):
        # 'a' has no origin, but the greedy 'rest' before it is reported.
        root = sequence("root", [remaining_bytes("rest"), uint("a", 1)])
        message = "greedy node 'rest' is not in tail position of its window"
        with pytest.raises(GraphError, match=_exact(message)):
            validate_graph(FormatGraph(root))


def _mutate(graph: FormatGraph, rng: Random) -> FormatGraph:
    """A clone of ``graph`` with one or two seeded structural edits."""
    mutant = graph.clone()
    for _ in range(rng.choice((1, 1, 2))):
        nodes = list(mutant.nodes())
        node, other = rng.choice(nodes[1:]), rng.choice(nodes)
        edit = rng.randrange(8)
        if edit == 0:  # swap two children
            parents = [candidate for candidate in nodes if len(candidate.children) >= 2]
            if parents:
                children = rng.choice(parents).children
                i, j = rng.sample(range(len(children)), 2)
                children[i], children[j] = children[j], children[i]
        elif edit == 1:  # swap two boundaries
            node.boundary, other.boundary = other.boundary, node.boundary
        elif edit == 2:  # duplicate a name
            node.name = other.name
        elif edit == 3:  # stale parent link
            node.parent = rng.choice((None, other))
        elif edit == 4:  # toggle mirroring
            node.mirrored = not node.mirrored
        elif edit == 5:  # add a presence reference
            node.presence_ref = other.name
        elif edit == 6:  # move a subtree under another composite
            inside = {id(descendant) for descendant in node.iter_subtree()}
            hosts = [host for host in nodes if host.is_composite and id(host) not in inside]
            if hosts and node.parent is not None and node in node.parent.children:
                host = rng.choice(hosts)
                node.parent.remove_child(node)
                host.insert_child(rng.randrange(len(host.children) + 1), node)
        else:  # re-point a LENGTH/COUNTER boundary
            users = [user for user in nodes if user.boundary.ref is not None]
            if users:
                user = rng.choice(users)
                user.boundary = user.boundary.with_ref(other.name)
    return mutant


def _verdict(graph: FormatGraph) -> str:
    try:
        validate_graph(graph)
    except GraphError as exc:
        return str(exc)
    return "ok"


class TestValidationCorpus:
    """Verdicts and messages of a seeded corpus, pinned by a digest.

    The corpus holds every registry direction obfuscated at levels 0-3 with
    seeds 0-5, plus 40 seeded mutants of each.  Any change to a verdict, a
    message or the rule order that picks the reported message moves the
    digest.  It was recorded again when the codec-contract rules came in:
    46 mutants that were valid before now report one of their messages (29
    a terminal without origin, 14 a referenced synthesis child, 3 a presence
    terminal without origin), and no other verdict or message changed.
    Adding a protocol or changing a transformation moves it too, and then it
    must be recorded again.
    """

    DIGEST = "3a1709b82c7dc9dcb4d5e0a44cc94f7569ce00e4da11c528e75c5f2417bb9416"
    VALID = 1783
    INVALID = 6089

    def test_corpus_verdicts_match_recorded_digest(self):
        verdicts = []
        for setup in registry.setups():
            for direction, _, _ in setup.directions():
                for level in range(4):
                    for seed in range(6):
                        graph = Obfuscator(seed=seed).obfuscate(
                            setup.reference_graph(direction), level).graph
                        rng = Random(f"{setup.key}/{direction}/{level}/{seed}")
                        verdicts.append(_verdict(graph))
                        verdicts.extend(_verdict(_mutate(graph, rng)) for _ in range(40))
        valid = verdicts.count("ok")
        digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
        assert (digest, valid, len(verdicts) - valid) == (self.DIGEST, self.VALID, self.INVALID)

    def test_window_layout_greedy_flags_match_is_greedy(self):
        for setup in registry.setups():
            for direction, _, _ in setup.directions():
                for seed in range(3):
                    graph = Obfuscator(seed=seed).obfuscate(
                        setup.reference_graph(direction), 2).graph
                    nodes, *_ = _walk(graph)
                    _, _, greedy = _bottom_up(nodes)
                    assert greedy == [is_greedy(n) for n in nodes]


class TestBottomUpPass:
    """The validator's bottom-up pass gives what the recursive predicates it
    replaces give, on the corpus of :class:`TestValidationCorpus`."""

    def test_sizes_and_greedy_flags_match_the_recursive_predicates(self):
        checked = 0
        for setup in registry.setups():
            for direction, _, _ in setup.directions():
                for level in range(4):
                    for seed in range(6):
                        graph = Obfuscator(seed=seed).obfuscate(
                            setup.reference_graph(direction), level).graph
                        rng = Random(f"{setup.key}/{direction}/{level}/{seed}")
                        for candidate in [graph] + [_mutate(graph, rng) for _ in range(40)]:
                            checked += _check_bottom_up(candidate)
        assert checked > 100_000


def _check_bottom_up(graph: FormatGraph) -> int:
    """Compare the bottom-up pass with the predicates on every node of
    ``graph``; returns the number of nodes compared."""
    try:
        nodes, *_ = _walk(graph)
    except GraphError:
        return 0  # a duplicate name: the walk stops before any pass
    end, sizes, greedy = _bottom_up(nodes)
    for index, node in enumerate(nodes):
        assert end[index] == index + len(list(node.iter_subtree()))
        assert sizes[index] == static_size(node)
        kind = node.boundary.kind
        assert parse_window_known(node) == (
            kind in (BoundaryKind.FIXED, BoundaryKind.LENGTH, BoundaryKind.END)
            or sizes[index] is not None)
        try:
            expected = is_greedy(node)
        except IndexError:  # an optional that lost its child
            continue
        assert greedy[index] == expected
    return len(nodes)
