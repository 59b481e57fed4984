"""Base classes and shared helpers of the obfuscating transformations.

A generic transformation (paper Table I/II) rewrites a graph pattern into
another graph pattern under applicability constraints, and is invertible by
construction: the wire runtime knows how to serialize and parse the rewritten
pattern so that the logical message is preserved.

Every transformation implements three methods:

* :meth:`Transformation.is_applicable` — the applicability constraints of the
  paper's Table II, refined with the concrete correctness conditions of this
  runtime (documented on each class),
* :meth:`Transformation.draw` — make every random decision (constants, cut
  positions, insertion points, fresh node names) and return the fully
  parameterized :class:`TransformationRecord`, **without touching the graph**,
* :meth:`Transformation._replay` — the in-place graph rewriting, driven
  entirely by a record's parameters.

:meth:`Transformation.apply` is the composition ``draw`` → ``replay``: the
random path and the deterministic path execute the *same* rewriting code, so a
record extracted from any engine run replays to a bit-identical graph on a
fresh clone of the plain specification — no RNG required.  That replayability
is what makes an :class:`~repro.transforms.plan.ObfuscationPlan` a first-class
keyed artifact (persist it, ship it, rotate it) instead of a side effect of
re-running the engine with a shared seed.
"""

from __future__ import annotations

import enum
import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from random import Random
from typing import Any, ClassVar

from ..core.errors import TransformError
from ..core.graph import FormatGraph
from ..core.node import Node
from ..wire.plan import invalidate as _invalidate_plan


class TransformationCategory(str, enum.Enum):
    """Collberg-style category of a transformation (paper Section V-B)."""

    AGGREGATION = "aggregation"
    ORDERING = "ordering"


@dataclass(frozen=True)
class TransformationRecord:
    """One applied transformation instance."""

    transformation: str
    category: TransformationCategory
    target: str
    created: tuple[str, ...] = ()
    parameters: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        created = f" -> {', '.join(self.created)}" if self.created else ""
        return f"{self.transformation}({self.target}){created}"


class Transformation(ABC):
    """A generic, invertible obfuscating transformation of the message format graph."""

    #: Unique transformation name (as listed in the paper's Table I).
    name: ClassVar[str] = "transformation"
    #: Collberg category the transformation belongs to.
    category: ClassVar[TransformationCategory] = TransformationCategory.AGGREGATION
    #: Protocol-reverse-engineering challenge the transformation emphasises (Table II).
    challenge: ClassVar[str] = ""

    @abstractmethod
    def is_applicable(self, graph: FormatGraph, node: Node) -> bool:
        """True when the transformation can safely be applied to ``node``."""

    def apply(self, graph: FormatGraph, node: Node, rng: Random) -> TransformationRecord:
        """Rewrite the graph in place and return the record of the rewriting.

        The default implementation draws the fully parameterized record
        (:meth:`draw`) and immediately replays it (:meth:`replay`) — one code
        path for random application and deterministic replay.  Raises
        :class:`~repro.core.errors.NotApplicableError` when the random
        parameters drawn cannot satisfy the constraints (callers treat this as
        a skipped application).

        Subclasses overriding ``apply`` directly are automatically wrapped
        (see ``__init_subclass__``) to drop the graph's lookup index before
        the rewrite and its cached codec plan after it, as :meth:`replay`
        does.  Such subclasses do not support deterministic replay unless
        they also implement :meth:`_replay`.
        """
        record = self.draw(graph, node, rng)
        self.replay(graph, record)
        return record

    def draw(self, graph: FormatGraph, node: Node, rng: Random) -> TransformationRecord:
        """Make every random decision and return the fully parameterized record.

        ``draw`` must not mutate the graph (transient attempt-and-revert
        probing, as in ChildMove, is permitted as long as the graph is
        restored).  It allocates the names of the nodes the rewriting will
        create (``record.created``) and stores every drawn parameter in
        ``record.parameters`` — the record alone must suffice to replay the
        transformation, the RNG is never consulted again.
        """
        raise NotImplementedError(
            f"transformation {self.name!r} does not implement draw(); "
            f"it cannot be captured into a replayable plan"
        )

    def replay(self, graph: FormatGraph, record: TransformationRecord) -> None:
        """Deterministically re-apply a recorded transformation in place.

        Resolves the record's target node and hands off to :meth:`_replay`.
        The graph's lookup index is dropped before the rewrite and its
        cached codec plan afterwards — same hazard as ``apply``: an in-place
        rewrite would otherwise leave codecs executing against the
        pre-transformation plan.
        """
        if record.transformation != self.name:
            raise TransformError(
                f"record of {record.transformation!r} handed to "
                f"transformation {self.name!r}"
            )
        node = graph.find(record.target)
        if node is None:
            raise TransformError(
                f"cannot replay {record}: graph {graph.name!r} has no node "
                f"named {record.target!r} (wrong source graph or out-of-order "
                f"replay?)"
            )
        graph.lookup_index = None
        try:
            self._replay(graph, node, record)
        finally:
            _invalidate_plan(graph)

    def _replay(self, graph: FormatGraph, node: Node,
                record: TransformationRecord) -> None:
        """Rewrite ``node`` exactly as described by ``record`` (no RNG)."""
        raise NotImplementedError(
            f"transformation {self.name!r} does not implement _replay(); "
            f"records of it cannot be replayed"
        )

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        original = cls.__dict__.get("apply")
        if original is None or getattr(original, "_invalidates_plan", False):
            return

        @functools.wraps(original)
        def apply_and_invalidate(self, graph: FormatGraph, node: Node,
                                 rng: Random) -> TransformationRecord:
            graph.lookup_index = None
            try:
                return original(self, graph, node, rng)
            finally:
                _invalidate_plan(graph)

        apply_and_invalidate._invalidates_plan = True  # type: ignore[attr-defined]
        cls.apply = apply_and_invalidate  # type: ignore[assignment]

    def record(self, target: Node, *, created: tuple[str, ...] = (),
               **parameters: Any) -> TransformationRecord:
        """Build the record for one application of this transformation."""
        return TransformationRecord(
            transformation=self.name,
            category=self.category,
            target=target.name,
            created=created,
            parameters=parameters,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


# ---------------------------------------------------------------------------
# shared constraint helpers
# ---------------------------------------------------------------------------


def parent_is_synthesis(node: Node) -> bool:
    """True when the node is a value child of a Split*-created synthesis sequence."""
    return node.parent is not None and node.parent.synthesis is not None


def replace_node(graph: FormatGraph, old: Node, new: Node) -> None:
    """Substitute ``new`` for ``old`` at the same position (root included)."""
    if old.parent is None:
        new.parent = None
        graph.root = new
        return
    old.parent.replace_child(old, new)


def subtree_names(node: Node) -> set[str]:
    """Names of every node in the subtree rooted at ``node``."""
    return {descendant.name for descendant in node.iter_subtree()}


def cross_sibling_references(children: list[Node]) -> bool:
    """True when a node in one child subtree references a node in a sibling subtree.

    Used by TabSplit/RepSplit: splitting the element sequence into per-column
    tabulars would break such references because the columns are no longer
    parsed element by element.
    """
    names_per_child = [subtree_names(child) for child in children]
    for index, child in enumerate(children):
        own_names = names_per_child[index]
        sibling_names = set().union(
            *(names for position, names in enumerate(names_per_child) if position != index)
        ) if len(children) > 1 else set()
        for descendant in child.iter_subtree():
            for ref in descendant.referenced_names():
                if ref in sibling_names and ref not in own_names:
                    return True
    return False
