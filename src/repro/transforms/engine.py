"""The obfuscation engine.

Implements the selection routine of the paper (Section VI): every node of the
graph is analysed to identify the compatible generic transformations, one of
them is chosen at random and applied, and the routine is repeated as many
times as requested by the developer (the "number of obfuscations per node"
parameter of the evaluation).

Because transformations create new nodes, later passes operate on a larger
graph, which reproduces the super-linear growth of the number of applied
transformations reported in Tables III and IV.

The engine validates its private clone after every step and keeps the
:class:`~repro.core.validate.GraphIndex` that
:func:`~repro.core.validate.lookup_index` returns on it until the next
rewrite: the sweeps' ``find`` and the transformations' ``is_ref_target`` and
``fresh_name`` answer from it without a scan.  A ConstAdd, ConstSub, ConstXor
or ReadFromEnd step changes one attribute of its target and is only rechecked
(:func:`~repro.core.validate.recheck_node`); the first step and any other are
validated in full, and so is the finished graph unless its last step was,
before the index is dropped and a result returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..core.errors import NotApplicableError, TransformError
from ..core.graph import FormatGraph
from ..core.validate import lookup_index, recheck_node
from .base import Transformation, TransformationRecord
from .const import ConstAdd, ConstSub, ConstXor
from .mirror import ReadFromEnd
from .plan import ObfuscationPlan, extract_plan
from .registry import default_transformations

#: Steps that change only their target's codec chain or ``mirrored`` flag.
_RECHECKED = frozenset((ConstAdd, ConstSub, ConstXor, ReadFromEnd))


@dataclass
class ObfuscationResult:
    """Outcome of one obfuscation run."""

    original: FormatGraph
    graph: FormatGraph
    passes: int
    records: list[TransformationRecord] = field(default_factory=list)

    @property
    def applied_count(self) -> int:
        """Total number of transformations effectively applied (paper "Nb. transf. applied")."""
        return len(self.records)

    def plan(self) -> ObfuscationPlan:
        """The run's :class:`~repro.transforms.plan.ObfuscationPlan` — the keyed artifact.

        Replaying the returned plan on a fresh clone of ``original`` yields a
        graph bit-identical to ``self.graph``.  The obfuscated graph is
        stamped with the plan's fingerprint as a side effect, so the
        originating run and every replay of the plan share one compiled
        codec-plan cache slot.
        """
        plan = extract_plan(self.original, self.records)
        self.graph.plan_fingerprint = plan.fingerprint
        return plan

    def count_by_transformation(self) -> dict[str, int]:
        """Number of applications of each transformation."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.transformation] = counts.get(record.transformation, 0) + 1
        return counts

    def summary(self) -> str:
        """Human-readable one-paragraph summary of the run."""
        counts = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.count_by_transformation().items())
        )
        return (
            f"{self.applied_count} transformation(s) over {self.passes} pass(es) on "
            f"{self.original.name!r}: {counts or 'none'}"
        )


class Obfuscator:
    """Applies randomly selected generic transformations to a format graph."""

    def __init__(self, transformations: list[Transformation] | None = None,
                 *, seed: int | None = None, rng: Random | None = None):
        self.transformations = (
            list(transformations) if transformations is not None else default_transformations()
        )
        self._rng = rng if rng is not None else Random(seed if seed is not None else 0)

    # -- public API -----------------------------------------------------------

    def obfuscate(self, graph: FormatGraph, passes: int = 1) -> ObfuscationResult:
        """Apply ``passes`` obfuscation passes to a copy of ``graph``.

        One pass visits every node present at the start of the pass, picks one
        applicable transformation at random for each of them and applies it,
        mirroring the paper's per-node obfuscation parameter (0 passes returns
        an untouched copy).
        """
        if passes < 0:
            raise TransformError(f"the number of passes cannot be negative ({passes})")
        working = graph.clone()
        result = ObfuscationResult(original=graph, graph=working, passes=passes)
        self._rechecked: Transformation | None = None  # the last step's, if rechecked
        for _ in range(passes):
            self._run_pass(working, result.records)
        self._finish(working)
        return result

    def obfuscate_node_budget(self, graph: FormatGraph, budget: int) -> ObfuscationResult:
        """Apply at most ``budget`` transformations, visiting nodes round-robin.

        Used by ablation studies that need a fixed number of applications
        rather than a per-node parameter.  ``result.passes`` counts only the
        sweeps that applied at least one transformation: a final sweep that
        finds nothing applicable does not inflate the count.
        """
        working = graph.clone()
        result = ObfuscationResult(original=graph, graph=working, passes=0)
        self._rechecked = None
        while (len(result.records) < budget
               and self._run_pass(working, result.records, budget)):
            result.passes += 1
        self._finish(working)
        return result

    # -- internals ------------------------------------------------------------

    def _run_pass(self, graph: FormatGraph, records: list[TransformationRecord],
                  budget: int | None = None) -> bool:
        """Visit every node present at the start of the pass, until ``records``
        holds ``budget`` records; True when a transformation applied."""
        index = graph.lookup_index
        snapshot = list(index.by_name) if index is not None else [n.name for n in graph.nodes()]
        applied = False
        for name in snapshot:
            if budget is not None and len(records) >= budget:
                break
            node = graph.find(name)
            if node is None:
                # The node was replaced by an earlier transformation of this pass.
                continue
            record = self._apply_random(graph, node)
            if record is not None:
                records.append(record)
                applied = True
        return applied

    def _apply_random(self, graph: FormatGraph, node) -> TransformationRecord | None:
        applicable = [
            transformation
            for transformation in self.transformations
            if transformation.is_applicable(graph, node)
        ]
        if not applicable:
            return None
        transformation = self._rng.choice(applicable)
        index = graph.lookup_index
        try:
            # Transformation.apply drops the graph's cached codec plan after
            # rewriting it in place (see Transformation.__init_subclass__).
            record = transformation.apply(graph, node, self._rng)
        except NotApplicableError:
            return None
        if type(transformation) not in _RECHECKED:  # exact: a subclass may rewrite more
            index = None
        self._validate(graph, transformation, index, node)
        return record

    def _validate(self, graph: FormatGraph, transformation: Transformation,
                  index=None, node=None) -> None:
        """Keep ``graph``'s index: rechecked at ``node`` from ``index``, or in full."""
        try:
            graph.lookup_index = (lookup_index(graph) if index is None
                                  else recheck_node(index, node))
        except Exception as exc:
            raise TransformError(
                f"transformation {transformation.name} left the graph invalid: {exc}"
            ) from exc
        self._rechecked = None if index is None else transformation

    def _finish(self, graph: FormatGraph) -> None:
        """Validate in full unless the last step was, then drop the index."""
        if self._rechecked is not None:
            self._validate(graph, self._rechecked)
        graph.lookup_index = None


def obfuscate(graph: FormatGraph, passes: int = 1, *, seed: int = 0,
              transformations: list[Transformation] | None = None) -> ObfuscationResult:
    """Module-level convenience wrapper around :class:`Obfuscator`."""
    return Obfuscator(transformations, seed=seed).obfuscate(graph, passes)
