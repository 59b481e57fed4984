"""Tests of the compiled codec plan subsystem.

Covers three contracts of :mod:`repro.wire.plan`:

* **equivalence** — executing against a cached plan produces byte-for-byte
  the same wire strings (and the same parsed messages) as executing against a
  freshly compiled, uncached plan, for every registered protocol under 0–4
  obfuscation passes;
* **caching** — plans are compiled once per graph identity and shared by the
  parser, serializer and module-level wrappers;
* **invalidation** — in-place transformations (through the obfuscation
  engine) drop the stale cached plan, so codecs never execute against a plan
  compiled for a previous shape of the graph.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.boundary import BoundaryKind
from repro.core.node import NodeType
from repro.core.values import ValueKind, ValueOp, ValueOpKind
from repro.protocols import registry
from repro.transforms import Obfuscator
from repro.transforms.base import Transformation, TransformationCategory
from repro.wire import (
    Parser,
    Serializer,
    WireCodec,
    compile_plan,
    invalidate,
    parse,
    plan_for,
    serialize,
)
from repro.wire.plan import _byte_tables

PROTOCOL_GRAPH_CASES = [
    (f"{setup.key}_{direction}", graph_factory, generator)
    for setup in registry.setups()
    for direction, graph_factory, generator in setup.directions()
]


@pytest.mark.parametrize("passes", range(5))
@pytest.mark.parametrize(
    ("graph_factory", "generator"),
    [case[1:] for case in PROTOCOL_GRAPH_CASES],
    ids=[case[0] for case in PROTOCOL_GRAPH_CASES],
)
def test_planned_matches_uncached_interpretation(graph_factory, generator, passes):
    """Cached-plan execution is byte-identical to fresh per-call compilation."""
    graph = graph_factory()
    if passes:
        graph = Obfuscator(seed=40 + passes).obfuscate(graph, passes).graph
    message_rng = Random(passes)
    for draw in range(3):
        message = generator(message_rng)
        planned_bytes = serialize(graph, message, rng=Random(draw))
        fresh_serializer = Serializer(graph, rng=Random(draw), plan=compile_plan(graph))
        interpreted_bytes = fresh_serializer.serialize(message)
        assert planned_bytes == interpreted_bytes
        planned_parsed = parse(graph, planned_bytes)
        fresh_parser = Parser(graph, plan=compile_plan(graph))
        assert planned_parsed == fresh_parser.parse(interpreted_bytes)
        assert planned_parsed == message


def test_plan_is_cached_per_graph_identity():
    graph = registry.get("modbus").graph_factory()
    plan = plan_for(graph)
    assert plan_for(graph) is plan
    # A structurally identical but distinct graph compiles its own plan.
    assert plan_for(registry.get("modbus").graph_factory()) is not plan


def test_codec_and_wrappers_share_the_cached_plan():
    graph = registry.get("http").graph_factory()
    codec = WireCodec(graph)
    assert codec.plan is plan_for(graph)
    assert Parser(graph).plan is codec.plan
    assert Serializer(graph).plan is codec.plan


def test_invalidate_forces_recompilation():
    graph = registry.get("dns").graph_factory()
    stale = plan_for(graph)
    assert invalidate(graph) is True
    assert invalidate(graph) is False  # nothing cached any more
    assert plan_for(graph) is not stale


def test_obfuscation_leaves_the_original_plan_untouched(rng):
    setup = registry.get("http")
    graph = setup.graph_factory()
    plan = plan_for(graph)
    result = Obfuscator(seed=9).obfuscate(graph, 2)
    # The engine clones before transforming: the original graph and its
    # cached plan survive, the obfuscated graph compiles its own plan.
    assert plan_for(graph) is plan
    obfuscated_plan = plan_for(result.graph)
    assert obfuscated_plan is not plan
    message = setup.message_generator(rng)
    assert WireCodec(graph).round_trips(message)
    assert WireCodec(result.graph).round_trips(message)


class _PlanSnoopingXor(Transformation):
    """ConstXor variant that compiles a plan against the working graph first.

    This reproduces the stale-plan hazard: a codec plan exists for a graph
    that a transformation is about to rewrite in place.  The engine must drop
    that plan after applying the transformation.
    """

    name = "PlanSnoopingXor"
    category = TransformationCategory.AGGREGATION

    def __init__(self):
        self.mid_run_plans = []

    def is_applicable(self, graph, node):
        return (
            node.type is NodeType.TERMINAL
            and not node.is_pad
            and node.value_kind is ValueKind.UINT
            and node.boundary.kind is BoundaryKind.FIXED
            and (node.boundary.size or 0) > 0
        )

    def apply(self, graph, node, rng):
        self.mid_run_plans.append(plan_for(graph))
        width = node.boundary.size or 1
        op = ValueOp(ValueOpKind.XOR, rng.randrange(1, 1 << (8 * width)),
                     bytewise=False, width=width)
        node.codec_chain = node.codec_chain + (op,)
        return self.record(node)


def test_direct_transformation_apply_invalidates_the_plan(rng):
    """A Transformation.apply outside the engine also drops the stale plan."""
    from repro.transforms.const import ConstXor

    setup = registry.get("modbus")
    graph = setup.graph_factory()
    stale = plan_for(graph)
    transformation = ConstXor()
    node = next(n for n in graph.nodes() if transformation.is_applicable(graph, n))
    transformation.apply(graph, node, Random(1))
    fresh = plan_for(graph)
    assert fresh is not stale
    message = setup.message_generator(rng)
    codec = WireCodec(graph)
    assert codec.plan is fresh
    assert codec.round_trips(message)


def test_engine_invalidates_plans_compiled_mid_obfuscation(rng):
    setup = registry.get("modbus")
    snoop = _PlanSnoopingXor()
    result = Obfuscator([snoop], seed=3).obfuscate(setup.graph_factory(), 1)
    assert snoop.mid_run_plans, "transformation never ran"
    final_plan = plan_for(result.graph)
    assert all(final_plan is not stale for stale in snoop.mid_run_plans)
    # The recompiled plan reflects the rewritten graph: round trips still hold.
    message = setup.message_generator(rng)
    codec = WireCodec(result.graph)
    assert codec.plan is final_plan
    assert codec.round_trips(message)


def test_protocol_setup_reference_plan_is_shared():
    setup = registry.get("mqtt")
    assert setup.reference_graph() is setup.reference_graph()
    assert setup.reference_plan() is plan_for(setup.reference_graph())
    with pytest.raises(ValueError):
        setup.reference_graph("sideways")


def _per_op_tables(chain):
    """The tables of a byte-wise chain built byte by byte (the reference)."""
    forward = list(range(256))
    for op in chain:
        forward = [op._byte_op(byte, False) for byte in forward]
    inverse = list(range(256))
    for op in reversed(chain):
        inverse = [op._byte_op(byte, True) for byte in inverse]
    return bytes(forward), bytes(inverse)


def test_composed_byte_tables_match_per_op_reference():
    """Every kind and constant alone, both directions, and random chains."""
    for kind in ValueOpKind:
        for constant in range(-300, 600):
            chain = (ValueOp(kind, constant, bytewise=True),)
            assert _byte_tables(chain) == _per_op_tables(chain), (kind, constant)
    rng = Random(5)
    kinds = list(ValueOpKind)
    for _ in range(2000):
        chain = tuple(ValueOp(rng.choice(kinds), rng.randrange(-1000, 1000),
                              bytewise=True)
                      for _ in range(rng.randrange(1, 6)))
        assert _byte_tables(chain) == _per_op_tables(chain), chain
