"""Ablation (extension, not in the paper): contribution of each transformation family.

For every transformation family of Table I (splits, constants, boundary
change, padding, mirroring, tabular splits, child moves), the obfuscation
engine is restricted to that family alone and the resulting potency (lines,
structs) and cost (buffer size) are compared against the full transformation
set.  This quantifies the design choice, discussed in DESIGN.md, of combining
ordering and aggregation transformations.

Padding can grow a region past the width of the length field measuring it:
the serializer refuses such a message.  The table counts those refusals
apart from the buffer sizes, and the test pins them (``_REFUSED``), so any
other serializer error still fails it.
"""

from __future__ import annotations

from random import Random

from repro.analysis import render_table
from repro.codegen import generate_module
from repro.core.errors import SerializationError
from repro.metrics import measure_source
from repro.protocols import modbus
from repro.transforms import Obfuscator, TRANSFORMATION_FAMILIES, default_transformations, family
from repro.wire import WireCodec


#: Family -> messages (of 10) refused because PadInsert grew the
#: ``write_multiple_registers`` payload past its 1-byte byte count (seed 0,
#: 2 passes: payloads of 527 and 329 bytes).  Every other family refuses none.
_REFUSED = {"pad": 2}
_REFUSAL = ("terminal 'write_multiple_registers_byte_count': value ",
            " does not fit in 1 byte(s)")


def _measure(transformations, seed=0, passes=2):
    graph = modbus.request_graph()
    result = Obfuscator(transformations, seed=seed).obfuscate(graph, passes)
    reference = measure_source(generate_module(graph))
    metrics = measure_source(generate_module(result.graph)).normalized(reference)
    codec = WireCodec(result.graph, seed=seed)
    rng = Random(seed)
    sizes, refused = [], 0
    for _ in range(10):
        message = modbus.random_request(rng)
        try:
            sizes.append(len(codec.serialize(message)))
        except SerializationError as exc:
            text = str(exc)
            if not (text.startswith(_REFUSAL[0]) and text.endswith(_REFUSAL[1])):
                raise
            refused += 1
    return result.applied_count, metrics, sum(sizes) / len(sizes), refused


def test_ablation_transformation_families(benchmark):
    benchmark(lambda: Obfuscator(family("const"), seed=0).obfuscate(modbus.request_graph(), 1))

    rows = []
    applied, metrics, buffer_size, refused = _measure(default_transformations())
    assert refused == 0
    rows.append(["all families", applied, f"{metrics.lines:.2f}", f"{metrics.structs:.2f}",
                 f"{metrics.call_graph_size:.2f}", f"{buffer_size:.0f}", refused])
    for name in sorted(TRANSFORMATION_FAMILIES):
        applied, metrics, buffer_size, refused = _measure(family(name))
        assert refused == _REFUSED.get(name, 0), name
        rows.append([name, applied, f"{metrics.lines:.2f}", f"{metrics.structs:.2f}",
                     f"{metrics.call_graph_size:.2f}", f"{buffer_size:.0f}", refused])
    print()
    print(render_table(
        ["Family", "Applied", "Lines (norm)", "Structs (norm)", "CG size (norm)",
         "Buffer (bytes)", "Refused (of 10)"],
        rows,
        title="Ablation — potency/cost per transformation family (Modbus, 2 passes)",
    ))

    # Sanity of the ablation: one row per family plus the full set, no family
    # shrinks the generated library below the non-obfuscated reference, and the
    # structure-preserving families (const, childmove, mirror) leave the
    # structural potency untouched while the splitting families grow it.
    assert len(rows) == 1 + len(TRANSFORMATION_FAMILIES)
    by_family = {row[0]: row for row in rows}
    for row in rows:
        assert float(row[2]) >= 0.99 and float(row[3]) >= 0.99
    assert float(by_family["split"][3]) > float(by_family["const"][3])
    assert float(by_family["all families"][3]) > 1.0
