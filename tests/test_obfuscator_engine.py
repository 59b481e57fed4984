"""Tests of the obfuscation engine (random selection, passes, invariants)."""

from __future__ import annotations

import hashlib
import re
from random import Random

import pytest

from repro.core import (
    Boundary,
    GraphError,
    Message,
    Node,
    NodeType,
    TransformError,
    ValueKind,
    validate_graph,
)
from repro.core.builder import build_graph, bytes_field, remaining_bytes, sequence, uint
from repro.core.validate import GraphIndex, lookup_index
from repro.protocols import http, modbus, registry
from repro.transforms import (
    ConstAdd,
    Obfuscator,
    ReadFromEnd,
    Transformation,
    family,
    obfuscate,
)
from repro.wire import WireCodec


class TestObfuscator:
    def test_zero_passes_returns_untouched_copy(self, http_request_graph):
        result = Obfuscator(seed=0).obfuscate(http_request_graph, 0)
        assert result.applied_count == 0
        assert result.graph is not http_request_graph
        assert [n.name for n in result.graph.nodes()] == [
            n.name for n in http_request_graph.nodes()
        ]

    def test_negative_passes_rejected(self, http_request_graph):
        with pytest.raises(TransformError):
            Obfuscator(seed=0).obfuscate(http_request_graph, -1)

    def test_original_graph_not_mutated(self, modbus_request_graph):
        before = [n.name for n in modbus_request_graph.nodes()]
        Obfuscator(seed=0).obfuscate(modbus_request_graph, 2)
        assert [n.name for n in modbus_request_graph.nodes()] == before

    def test_obfuscated_graph_validates(self, protocol_case):
        _, graph_factory, _ = protocol_case
        for seed in range(3):
            result = Obfuscator(seed=seed).obfuscate(graph_factory(), 2)
            validate_graph(result.graph)

    def test_deterministic_given_seed(self, http_request_graph):
        first = Obfuscator(seed=7).obfuscate(http_request_graph, 2)
        second = Obfuscator(seed=7).obfuscate(http.request_graph(), 2)
        assert [str(r) for r in first.records] == [str(r) for r in second.records]

    def test_different_seeds_differ(self, http_request_graph):
        first = Obfuscator(seed=1).obfuscate(http_request_graph, 2)
        second = Obfuscator(seed=2).obfuscate(http.request_graph(), 2)
        assert [str(r) for r in first.records] != [str(r) for r in second.records]

    def test_applied_count_grows_with_passes(self, modbus_request_graph):
        counts = [
            Obfuscator(seed=3).obfuscate(modbus.request_graph(), passes).applied_count
            for passes in (1, 2, 3)
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_growth_is_at_least_linear_as_in_paper(self, modbus_request_graph):
        """The paper reports super-linear growth of applied transformations with the
        per-node parameter; at minimum the growth must not flatten below linear."""
        counts = [
            Obfuscator(seed=3).obfuscate(modbus.request_graph(), passes).applied_count
            for passes in (1, 2, 3, 4)
        ]
        assert counts == sorted(counts)
        assert counts[-1] >= 3.2 * counts[0]

    def test_node_count_grows(self, http_request_graph):
        result = Obfuscator(seed=0).obfuscate(http_request_graph, 2)
        assert result.graph.stats().node_count > http_request_graph.stats().node_count

    def test_records_reference_existing_transformations(self, http_request_graph):
        result = Obfuscator(seed=0).obfuscate(http_request_graph, 1)
        from repro.transforms import transformation_names

        names = set(transformation_names())
        assert result.records
        assert all(record.transformation in names for record in result.records)

    def test_count_by_transformation_sums_to_total(self, modbus_request_graph):
        result = Obfuscator(seed=1).obfuscate(modbus_request_graph, 1)
        assert sum(result.count_by_transformation().values()) == result.applied_count

    def test_summary_mentions_counts(self, http_request_graph):
        result = Obfuscator(seed=0).obfuscate(http_request_graph, 1)
        assert str(result.applied_count) in result.summary()

    def test_restricted_family_only_applies_family(self, modbus_request_graph):
        result = Obfuscator(family("const"), seed=0).obfuscate(modbus_request_graph, 1)
        assert result.applied_count > 0
        assert set(result.count_by_transformation()) <= {"ConstAdd", "ConstSub", "ConstXor"}

    def test_node_budget_mode(self, modbus_request_graph):
        result = Obfuscator(seed=0).obfuscate_node_budget(modbus_request_graph, 10)
        assert result.applied_count == 10
        assert result.passes >= 1
        validate_graph(result.graph)

    def test_node_budget_counts_only_effective_passes(self, modbus_request_graph):
        """Regression: a sweep that applies nothing must not inflate the pass count."""
        result = Obfuscator(transformations=[], seed=0).obfuscate_node_budget(
            modbus_request_graph, 10
        )
        assert result.applied_count == 0
        assert result.passes == 0

    def test_node_budget_zero(self, modbus_request_graph):
        result = Obfuscator(seed=0).obfuscate_node_budget(modbus_request_graph, 0)
        assert result.applied_count == 0
        assert result.passes == 0

    def test_module_level_helper(self, http_request_graph):
        result = obfuscate(http_request_graph, 1, seed=0)
        assert result.applied_count > 0

    def test_derivations_match_recorded_digest(self):
        """Plan fingerprints of every registry direction at level 2, seeds 0-4.

        ChildMove picks its swap by validator verdicts and the engine
        validates after every step, so a change to any verdict the engine
        meets moves a fingerprint.  Recorded with the multi-walk validator
        that preceded the one-walk rewrite; adding a protocol or changing a
        transformation moves the digest, which must then be recorded again.
        """
        fingerprints = [
            Obfuscator(seed=seed).obfuscate(setup.reference_graph(direction), 2)
            .plan().fingerprint
            for setup in registry.setups()
            for direction, _, _ in setup.directions()
            for seed in range(5)
        ]
        digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()
        assert (len(fingerprints), digest) == (
            40, "feadb3e6f47fdd498396e32160f18a3391f40c347af2b88f37f78cd3aa9f722d")

    @pytest.mark.parametrize("level, digest", [
        (1, "f0b8d27a069756f0270eb2a971fa13c24ef42f74ebdc6be9755caff68897b4a2"),
        (3, "da65a48c777833247fab5607f6bb50180d5ae1ed53a3f5552c55a9fdb44e5bb8"),
        (4, "5b269903ea5e7a2812d8aa5b161baee63c8ca157cdfca04fd54545b66d5535fe"),
    ])
    def test_shallow_and_deep_derivations_match_recorded_digests(self, level, digest):
        """Plan fingerprints of every registry direction at levels 1, 3 and
        4, seeds 0-4, recorded while the engine validated every step in
        full: a drift that shows only on shallower or deeper graphs than
        level 2's moves one of these digests."""
        fingerprints = [
            Obfuscator(seed=seed).obfuscate(setup.reference_graph(direction), level)
            .plan().fingerprint
            for setup in registry.setups()
            for direction, _, _ in setup.directions()
            for seed in range(5)
        ]
        assert len(fingerprints) == 40
        assert hashlib.sha256("\n".join(fingerprints).encode()).hexdigest() == digest


class TestObfuscatedRoundTrips:
    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_preserved(self, protocol_case, passes, seed, rng):
        _, graph_factory, generator = protocol_case
        result = Obfuscator(seed=seed).obfuscate(graph_factory(), passes)
        codec = WireCodec(result.graph, seed=seed)
        for _ in range(8):
            message = generator(rng)
            assert codec.parse(codec.serialize(message)) == message

    def test_wire_format_differs_from_plain(self, protocol_case, rng):
        _, graph_factory, generator = protocol_case
        plain = WireCodec(graph_factory(), seed=0)
        obfuscated = WireCodec(Obfuscator(seed=0).obfuscate(graph_factory(), 1).graph, seed=0)
        message = generator(rng)
        assert plain.serialize(message) != obfuscated.serialize(message)

    def test_different_obfuscations_are_incompatible(self, rng):
        message = modbus.random_request(rng)
        first = WireCodec(Obfuscator(seed=10).obfuscate(modbus.request_graph(), 2).graph, seed=0)
        second = WireCodec(Obfuscator(seed=11).obfuscate(modbus.request_graph(), 2).graph, seed=0)
        data = first.serialize(message)
        try:
            parsed = second.parse(data)
        except Exception:
            return  # rejecting the buffer outright is the expected common case
        assert parsed != message


class _ReusesAName(Transformation):
    """Appends to the root a pad named like the root's first child."""

    name = "ReusesAName"

    def is_applicable(self, graph, node):
        return node is graph.root

    def draw(self, graph, node, rng):
        return self.record(node, created=(node.children[0].name,))

    def _replay(self, graph, node, record):
        node.add_child(Node(record.created[0], NodeType.TERMINAL, Boundary.fixed(1),
                            value_kind=ValueKind.BYTES, is_pad=True))


class _RepointsALength(Transformation):
    """Applied to ``tail``, re-points the LENGTH boundary of ``data``, outside
    the target's subtree, to ``tail``, which is serialized after ``data``."""

    name = "RepointsALength"

    def is_applicable(self, graph, node):
        return node.name == "tail"

    def draw(self, graph, node, rng):
        return self.record(node)

    def _replay(self, graph, node, record):
        graph.require("data").boundary = Boundary.length(node.name)


class TestPerStepValidation:
    """The engine validates the whole graph after every step and names the
    transformation that left it invalid."""

    @pytest.mark.parametrize("transformation, root, message", [
        (_ReusesAName, sequence("root", [uint("a", 1), uint("b", 1)]),
         "duplicate node name 'a' in graph 'demo'"),
        (_RepointsALength, sequence("root", [
            uint("len", 1), bytes_field("data", Boundary.length("len")), uint("tail", 1)]),
         "node 'data' references 'tail' which is serialized after it"),
    ], ids=["reused-name", "length-outside-the-target"])
    def test_an_invalid_step_names_its_transformation(self, transformation, root, message):
        graph = build_graph(root, "demo")
        expected = f"transformation {transformation.name} left the graph invalid: {message}"
        with pytest.raises(TransformError, match=f"^{re.escape(expected)}$") as caught:
            Obfuscator([transformation()], seed=0).obfuscate(graph, 1)
        assert isinstance(caught.value.__cause__, GraphError)
        assert str(caught.value.__cause__) == message


def _lookups(graph, names, prefixes):
    """``find``, ``is_ref_target`` and ``fresh_name`` answers; ``fresh_name``
    counts from 0, so its candidates meet the names made early on, and the
    counter is put back afterwards."""
    counter = graph._fresh_counter
    graph._fresh_counter = 0
    fresh = [graph.fresh_name(prefix) for prefix in prefixes]
    graph._fresh_counter = counter
    return ([id(graph.find(name)) for name in names],
            [graph.is_ref_target(name) for name in names],
            fresh)


class _IndexCheckingObfuscator(Obfuscator):
    """After every engine step, compares the lookup index's answers with the
    answers of the scans it replaces."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0
        self.names: dict[str, None] = {"no_such_node": None}

    def _apply_random(self, graph, node):
        record = super()._apply_random(graph, node)
        index = graph.lookup_index
        if index is None:  # no step has been validated yet
            return record
        present = [each.name for each in graph.nodes()]
        assert list(index[0]) == present
        self.names.update(dict.fromkeys(present))
        names = list(self.names)
        prefixes = list(dict.fromkeys(name.rsplit("_", 1)[0] for name in present))
        indexed = _lookups(graph, names, prefixes)
        graph.lookup_index = None
        scanned = _lookups(graph, names, prefixes)
        graph.lookup_index = index
        assert indexed == scanned
        self.checked += 1
        return record


class TestLookupIndex:
    """The lookup index of the engine's working clone answers as scans do,
    and no graph keeps one once a derivation returns."""

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_the_index_answers_as_a_scan_at_every_step(self, level):
        for setup in registry.setups():
            for direction, _, _ in setup.directions():
                for seed in range(5):
                    obfuscator = _IndexCheckingObfuscator(seed=seed)
                    result = obfuscator.obfuscate(setup.reference_graph(direction), level)
                    assert obfuscator.checked >= result.applied_count
                    plain = Obfuscator(seed=seed).obfuscate(setup.reference_graph(direction), level)
                    assert result.plan().fingerprint == plain.plan().fingerprint

    def test_no_graph_keeps_an_index(self):
        original = modbus.request_graph()
        runs = (Obfuscator(seed=1).obfuscate(original, 2),
                Obfuscator(seed=1).obfuscate_node_budget(original, 25))
        for result in runs:
            graph = result.graph
            replayed = result.plan().replay(original)
            assert graph.lookup_index is None
            assert original.lookup_index is None and replayed.lookup_index is None
            node = next(each for each in graph.nodes() if each.is_terminal)
            old_name = node.name
            node.name = "renamed_by_hand"
            assert graph.find("renamed_by_hand") is node
            assert graph.find(old_name) is None
            graph.root.add_child(Node("added_by_hand", NodeType.TERMINAL, Boundary.fixed(1),
                                      value_kind=ValueKind.BYTES, is_pad=True))
            assert graph.require("added_by_hand").parent is graph.root


class TestFirstStepValidatesInFull:
    """A step is only rechecked after a full validation: an invalid input
    graph fails on the first step, a Const or ReadFromEnd one too."""

    @pytest.mark.parametrize("transformation, root, message", [
        (ConstAdd, sequence("root", [uint("a", 1), uint("a", 1)]),
         "duplicate node name 'a' in graph 'demo'"),
        (ReadFromEnd, sequence("root", [remaining_bytes("rest"), uint("b", 1)]),
         "greedy node 'rest' is not in tail position of its window"),
    ], ids=["duplicate-name", "greedy-node-before-the-tail"])
    def test_an_invalid_input_graph_fails_on_the_first_step(self, transformation, root,
                                                             message):
        graph = build_graph(root, "demo", validate=False)
        expected = f"transformation {transformation.name} left the graph invalid: {message}"
        with pytest.raises(TransformError, match=f"^{re.escape(expected)}$"):
            Obfuscator([transformation()], seed=0).obfuscate(graph, 1)


class _FreshIndexObfuscator(Obfuscator):
    """After every engine step, compares the index the engine keeps with a
    fresh :func:`lookup_index` of the graph, field by field."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def _apply_random(self, graph, node):
        record = super()._apply_random(graph, node)
        kept = graph.lookup_index
        if record is not None:
            fresh = lookup_index(graph)
            for field in GraphIndex._fields:
                assert getattr(kept, field) == getattr(fresh, field), field
            assert list(kept.by_name) == list(fresh.by_name)
            assert list(kept.position) == list(fresh.position)
            self.checked += 1
        return record


def test_kept_index_equals_a_fresh_lookup_at_every_step():
    """Every step of every registry direction at levels 1-4 with seeds 0-11,
    and of a 60-step budget with seeds 0-5, leaves the engine an index equal
    to a fresh one, whether the step was validated in full or only
    rechecked; the 432 plan fingerprints are those recorded while every
    step was validated in full."""
    fingerprints, checked, rechecked = [], 0, 0
    for setup in registry.setups():
        for direction, _, _ in setup.directions():
            graph = setup.reference_graph(direction)
            runs = [(seed, level, None) for level in range(1, 5) for seed in range(12)]
            runs += [(seed, None, 60) for seed in range(6)]
            for seed, level, budget in runs:
                obfuscator = _FreshIndexObfuscator(seed=seed)
                result = (obfuscator.obfuscate(graph, level) if budget is None
                          else obfuscator.obfuscate_node_budget(graph, budget))
                assert obfuscator.checked == result.applied_count
                checked += obfuscator.checked
                rechecked += sum(count for name, count in
                                 result.count_by_transformation().items()
                                 if name in ("ConstAdd", "ConstSub", "ConstXor",
                                             "ReadFromEnd"))
                fingerprints.append(result.plan().fingerprint)
    digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()
    assert (len(fingerprints), digest) == (
        432, "45223789c129d5b940e77726b075dc4b2cec42e4bcbd97aa7a52a9e44d4f9813")
    assert checked > 20_000 and rechecked > checked // 2
