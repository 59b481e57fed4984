"""The experiment harness (paper Section VII).

One *experiment* follows the paper's protocol exactly:

1. pick a protocol specification from the protocol registry
   (:mod:`repro.protocols.registry` — HTTP, Modbus, DNS, MQTT, ...),
2. apply N obfuscation passes with randomly selected transformations,
3. generate the serialization library source code (generation time),
4. measure the potency metrics of the generated code, normalized by the
   non-obfuscated generated code,
5. execute the library on random messages produced by the core application and
   measure parsing time, serialization time and buffer size.

The benchmark files under ``benchmarks/`` drive this harness to regenerate the
rows of Tables III/IV and the series of Figures 4–7.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from ..analysis.regression import LinearFit, linear_regression
from ..analysis.stats import Summary, summarize
from ..codegen.cache import cached_module
from ..codegen.emitter import generate_module
from ..codegen.loader import GeneratedCodec
from ..metrics.cost import measure_messages, summarize as summarize_cost
from ..metrics.potency import NormalizedPotency, PotencyMetrics, measure_source
from ..protocols import registry
from ..transforms.engine import Obfuscator
from ..transforms.base import Transformation
from ..transforms.plan import ObfuscationPlan


@dataclass(frozen=True)
class RunResult:
    """Measurements of one experiment run (one random obfuscation draw)."""

    protocol: str
    passes: int
    applied: int
    potency: PotencyMetrics
    normalized: NormalizedPotency
    generation_ms: float
    serialize_ms: float
    parse_ms: float
    buffer_size: float

    def deterministic_signature(self) -> tuple:
        """Every field that depends only on the run seed, not on wall-clock.

        Sequential and parallel executions of the same (seed, passes, run
        index) produce bit-identical signatures; the ``*_ms`` timings are
        environment noise and are excluded.
        """
        return (
            self.protocol,
            self.passes,
            self.applied,
            self.potency,
            self.normalized,
            self.buffer_size,
        )


@dataclass(frozen=True)
class LevelSummary:
    """Aggregated measurements of all runs at one obfuscation level."""

    protocol: str
    passes: int
    applied: Summary
    lines: Summary
    structs: Summary
    call_graph_size: Summary
    call_graph_depth: Summary
    generation_ms: Summary
    parse_ms: Summary
    serialize_ms: Summary
    buffer_size: Summary

    def table_row(self) -> list[str]:
        """Row of the paper-style comparative table."""
        return [
            str(self.passes),
            self.applied.format(0),
            self.lines.format(2),
            self.structs.format(2),
            self.call_graph_size.format(2),
            self.call_graph_depth.format(2),
            self.generation_ms.format(2),
            self.parse_ms.format(3),
            self.serialize_ms.format(3),
            self.buffer_size.format(0),
        ]


TABLE_HEADERS = [
    "Transf/node",
    "Applied",
    "Lines (norm)",
    "Structs (norm)",
    "CG size (norm)",
    "CG depth (norm)",
    "Gen time (ms)",
    "Parse (ms)",
    "Serialize (ms)",
    "Buffer (bytes)",
]


def _run_once_task(protocol: str, seed: int, messages_per_run: int,
                   transformations: list[Transformation] | None,
                   reference: PotencyMetrics | None,
                   plan: "ObfuscationPlan | None",
                   passes: int, run_index: int) -> "RunResult":
    """One experiment run executed inside a worker process.

    Reconstructs a runner from the deterministic configuration; the run seed
    derivation inside :meth:`ExperimentRunner.run_once` is untouched, so the
    draw is bit-identical to the sequential execution of the same indices.
    ``reference`` carries the parent's reference potency so that workers do
    not regenerate the non-obfuscated library once per run, and ``plan`` the
    level's obfuscation plan when the parent runs in replay mode.
    """
    runner = ExperimentRunner(
        protocol,
        seed=seed,
        messages_per_run=messages_per_run,
        transformations=transformations,
    )
    runner._reference = reference
    return runner.run_once(passes, run_index, plan=plan)


@dataclass
class ExperimentRunner:
    """Runs the paper's experiment protocol for one protocol specification.

    With ``parallel=True`` the independent runs of one obfuscation level are
    distributed over a process pool.  Every run derives its randomness from
    ``run_seed = seed*10_000 + passes*100 + run_index`` alone, so the parallel
    execution produces bit-identical :class:`RunResult` draws (potency,
    applied transformations, buffer sizes) to the sequential one — only the
    wall-clock ``*_ms`` fields differ, as they would between any two
    sequential executions.
    """

    protocol: str
    seed: int = 0
    runs_per_level: int = 5
    messages_per_run: int = 20
    transformations: list[Transformation] | None = None
    parallel: bool = False
    max_workers: int | None = None
    #: Replay one obfuscation plan per level across its runs instead of
    #: re-running the engine once per run: the level's plan is drawn once
    #: (from run index 0's seed), and every run deterministically replays it.
    #: The message workload still varies per run (the run seed feeds the
    #: codec and message RNGs exactly as in engine mode), so cost metrics
    #: keep their per-run spread while the potency columns — a property of
    #: the shared dialect — are measured on the identical graph.
    reuse_plan: bool = False
    _reference: PotencyMetrics | None = field(default=None, init=False, repr=False)
    _reference_buffer: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.setup = registry.get(self.protocol)

    # -- reference (non-obfuscated) measurements ------------------------------

    def reference_potency(self) -> PotencyMetrics:
        """Potency metrics of the non-obfuscated generated library."""
        if self._reference is None:
            source = generate_module(self.setup.reference_graph())
            self._reference = measure_source(source)
        return self._reference

    # -- single runs -----------------------------------------------------------

    def level_plan(self, passes: int) -> ObfuscationPlan:
        """The obfuscation plan replayed by every run of one level.

        Drawn with run index 0's seed, so replay mode measures the exact
        dialect that engine mode's first run would produce.
        """
        run_seed = self.seed * 10_000 + passes * 100
        obfuscator = Obfuscator(self.transformations, seed=run_seed)
        return obfuscator.obfuscate(self.setup.reference_graph(), passes).plan()

    def run_once(self, passes: int, run_index: int, *,
                 plan: ObfuscationPlan | None = None) -> RunResult:
        """One experiment run: obfuscate (or replay ``plan``), generate, measure.

        With ``plan`` the obfuscation engine is skipped entirely: the plan is
        deterministically replayed on the shared reference graph — no RNG, no
        per-step validation, shared compiled codec plan and module — which is the
        replay-vs-re-derive speedup measured by ``benchmarks/test_bench_plan_replay.py``.
        """
        run_seed = self.seed * 10_000 + passes * 100 + run_index
        # The obfuscator (and plan replay) clones before transforming, so the
        # shared reference graph (and its cached plan) is never mutated by a run.
        graph = self.setup.reference_graph()
        start = time.perf_counter()
        if plan is not None:
            obfuscated = plan.replay(graph, validate=False)
            applied = len(plan.records)
        else:
            result = Obfuscator(self.transformations, seed=run_seed).obfuscate(graph, passes)
            obfuscated = result.graph
            applied = result.applied_count
        source = generate_module(obfuscated)
        generation_ms = (time.perf_counter() - start) * 1000.0
        potency = measure_source(source)
        normalized = potency.normalized(self.reference_potency())
        # The runs of a replayed level speak one plan-stamped dialect: one module.
        module = cached_module(obfuscated, specialize=False) if plan is not None else None
        codec = GeneratedCodec(obfuscated, seed=run_seed, source=source, module=module)
        message_rng = Random(run_seed + 1)
        workload = [
            self.setup.message_generator(message_rng) for _ in range(self.messages_per_run)
        ]
        cost = summarize_cost(measure_messages(codec, workload))
        return RunResult(
            protocol=self.protocol,
            passes=passes,
            applied=applied,
            potency=potency,
            normalized=normalized,
            generation_ms=generation_ms,
            serialize_ms=cost.serialize_ms,
            parse_ms=cost.parse_ms,
            buffer_size=cost.buffer_size,
        )

    def run_level(self, passes: int) -> list[RunResult]:
        """Every run of one obfuscation level (parallel when configured)."""
        plan = self.level_plan(passes) if self.reuse_plan else None
        if self.parallel and self.runs_per_level > 1:
            results = self._run_level_parallel(passes, plan)
            if results is not None:
                return results
        return [
            self.run_once(passes, index, plan=plan)
            for index in range(self.runs_per_level)
        ]

    def _run_level_parallel(self, passes: int,
                            plan: ObfuscationPlan | None = None
                            ) -> list[RunResult] | None:
        """Fan the runs of one level out over a process pool.

        Returns ``None`` when no pool can be started (restricted platforms),
        in which case the caller falls back to sequential execution.  Results
        are collected in run-index order, matching the sequential path.
        """
        workers = self.max_workers
        if workers is None:
            workers = min(self.runs_per_level, os.cpu_count() or 1)
        # fork keeps sys.path and the protocol registry of the parent; spawn
        # re-imports from the environment, which works as long as the package
        # is importable (PYTHONPATH or installed).
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        reference = self.reference_potency()
        task = (self.protocol, self.seed, self.messages_per_run,
                self.transformations, reference, plan)
        try:
            # Pre-flight: unpicklable configurations (custom transformation
            # objects holding lambdas, open handles, ...) fail here instead of
            # poisoning the pool's feeder thread mid-run.
            pickle.dumps(task)
        except Exception:
            return None
        try:
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        except (OSError, ValueError):
            # No pool on this platform (sandboxes, exotic systems): fall back.
            return None
        try:
            with pool:
                futures = [
                    pool.submit(_run_once_task, *task, passes, index)
                    for index in range(self.runs_per_level)
                ]
                return [future.result() for future in futures]
        except BrokenProcessPool:
            # Workers died (OOM killer, container limits): fall back.  Genuine
            # experiment errors raised inside a worker propagate unchanged.
            return None

    # -- tables (paper Tables III and IV) --------------------------------------

    def summarize_level(self, passes: int, runs: Sequence[RunResult]) -> LevelSummary:
        """Aggregate the runs of one level into a table row."""
        return LevelSummary(
            protocol=self.protocol,
            passes=passes,
            applied=summarize([run.applied for run in runs]),
            lines=summarize([run.normalized.lines for run in runs]),
            structs=summarize([run.normalized.structs for run in runs]),
            call_graph_size=summarize([run.normalized.call_graph_size for run in runs]),
            call_graph_depth=summarize([run.normalized.call_graph_depth for run in runs]),
            generation_ms=summarize([run.generation_ms for run in runs]),
            parse_ms=summarize([run.parse_ms for run in runs]),
            serialize_ms=summarize([run.serialize_ms for run in runs]),
            buffer_size=summarize([run.buffer_size for run in runs]),
        )

    def run_table(self, levels: Sequence[int] = (1, 2, 3, 4)) -> dict[int, LevelSummary]:
        """Regenerate the comparative table for the configured protocol."""
        table: dict[int, LevelSummary] = {}
        for passes in levels:
            table[passes] = self.summarize_level(passes, self.run_level(passes))
        return table

    # -- figures ---------------------------------------------------------------

    def time_series(self, levels: Sequence[int] = (1, 2, 3, 4)
                    ) -> tuple[list[RunResult], LinearFit, LinearFit]:
        """Per-run cost measurements and the regression lines of Figures 4/5.

        Returns every run together with the linear fits of parsing time and
        serialization time against the number of applied transformations.
        """
        runs: list[RunResult] = []
        for passes in levels:
            runs.extend(self.run_level(passes))
        applied = [float(run.applied) for run in runs]
        parse_fit = linear_regression(applied, [run.parse_ms for run in runs])
        serialize_fit = linear_regression(applied, [run.serialize_ms for run in runs])
        return runs, parse_fit, serialize_fit

    def potency_series(self, levels: Sequence[int] = (1, 2, 3, 4)
                       ) -> dict[int, dict[str, float]]:
        """Average normalized potency metrics per level (Figures 6/7)."""
        series: dict[int, dict[str, float]] = {}
        for passes in levels:
            runs = self.run_level(passes)
            series[passes] = {
                "applied": summarize([run.applied for run in runs]).mean,
                "lines": summarize([run.normalized.lines for run in runs]).mean,
                "structs": summarize([run.normalized.structs for run in runs]).mean,
                "call_graph_size": summarize(
                    [run.normalized.call_graph_size for run in runs]
                ).mean,
                "call_graph_depth": summarize(
                    [run.normalized.call_graph_depth for run in runs]
                ).mean,
                "buffer_size": summarize([run.buffer_size for run in runs]).mean,
            }
        return series
