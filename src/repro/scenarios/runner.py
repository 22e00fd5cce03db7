"""The shared scenario pipeline runner.

One :class:`ScenarioRunner` drives every registered scenario through the
same stages the four hand-rolled use-case drivers used to duplicate:

1. frontend/CSL parse (the contract gives the accounting window),
2. engine-backed variant search — the predictable workflow compiles through
   :class:`~repro.toolchain.predictable.PredictableToolchain`, whose
   exploration runs on :class:`~repro.compiler.engine.BatchEvaluator` over
   the staged evaluation caches; the complex workflow profiles through
   :class:`~repro.toolchain.complexflow.ComplexToolchain`,
3. scheduling/coordination (already part of both toolchain facades),
4. per-side energy accounting under the spec's energy model,
5. an :class:`~repro.toolchain.report.ImprovementReport`, then the spec's
   optional ``postprocess`` hook for paper-specific finishing touches.

The baseline side always builds before the TeamPlay side on a single shared
toolchain instance: the predictable toolchain's evaluation caches warm up
across the two builds, and the complex toolchain's seeded profiler consumes
its random stream in a fixed order — both properties the golden-parity tests
rely on.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.csl.parser import parse_csl
from repro.errors import TeamPlayError
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import (
    BuildOptions,
    RunContext,
    ScenarioResult,
    ScenarioSpec,
    SideOutcome,
)
from repro.toolchain.complexflow import ComplexToolchain
from repro.toolchain.predictable import PredictableToolchain
from repro.toolchain.report import ImprovementReport


class ScenarioRunner:
    """Runs declarative scenarios through the shared toolchain pipeline."""

    def run(self, scenario: Union[str, ScenarioSpec],
            generations: Optional[int] = None,
            population_size: Optional[int] = None,
            profiling_runs: Optional[int] = None,
            postprocess: bool = True) -> ScenarioResult:
        """Run one scenario end to end.

        ``generations``/``population_size`` override the search budget of
        the sides that explore the configuration space;
        ``profiling_runs`` overrides the complex workflow's instrumented-run
        count; ``postprocess=False`` skips the spec's finishing hook.
        """
        spec = (get_scenario(scenario) if isinstance(scenario, str)
                else scenario)
        platform = spec.make_platform()
        contract = parse_csl(spec.csl) if spec.csl else None
        ctx = RunContext(
            spec=spec,
            platform=platform,
            contract=contract,
            tasks=(list(spec.workload()) if spec.workload is not None
                   else None),
            generations=generations,
            population_size=population_size,
            profiling_runs=(profiling_runs if profiling_runs is not None
                            else spec.profiling_runs),
        )

        if spec.kind == "custom":
            return self._run_custom(ctx, postprocess)

        if spec.kind == "predictable":
            sides, cache_stats, pipeline_stats = self._run_predictable(ctx)
        else:
            sides, cache_stats, pipeline_stats = self._run_complex(ctx)

        overhead = 0.0
        if spec.shared_overhead_energy_j is not None:
            overhead = spec.shared_overhead_energy_j(platform, contract)

        baseline = self._outcome(ctx, *sides[0],
                                 idle_factor=spec.baseline_idle_factor,
                                 overhead=overhead)
        teamplay = self._outcome(ctx, *sides[1],
                                 idle_factor=spec.teamplay_idle_factor,
                                 overhead=overhead)

        report = ImprovementReport(
            name=spec.report_name or spec.title,
            baseline_time_s=baseline.time_s,
            teamplay_time_s=teamplay.time_s,
            baseline_energy_j=baseline.energy_j,
            teamplay_energy_j=teamplay.energy_j,
            deadline_s=ctx.window_s,
            deadlines_met=teamplay.feasible,
        )
        result = ScenarioResult(
            spec=spec,
            platform=platform,
            contract=contract,
            baseline=baseline,
            teamplay=teamplay,
            report=report,
            overhead_energy_j=overhead,
            cache_stats=cache_stats,
            pipeline_stats=pipeline_stats,
        )
        if postprocess and spec.postprocess is not None:
            result.detail = spec.postprocess(result)
        return result

    # ------------------------------------------------------------- workflows --
    def _run_custom(self, ctx: RunContext,
                    postprocess: bool) -> ScenarioResult:
        """Custom scenarios: ``custom_run`` replaces the whole pipeline."""
        detail = ctx.spec.custom_run(ctx)
        result = ScenarioResult(
            spec=ctx.spec,
            platform=ctx.platform,
            contract=ctx.contract,
            detail=detail,
            pipeline_stats=ctx.pipeline_stats,
        )
        if postprocess and ctx.spec.postprocess is not None:
            result.detail = ctx.spec.postprocess(result)
        return result

    def _run_predictable(self, ctx: RunContext) -> tuple:
        toolchain = PredictableToolchain(ctx.platform)
        sides = [self._build_predictable(toolchain, ctx, options)
                 for options in (ctx.spec.baseline, ctx.spec.teamplay)]
        return sides, toolchain.cache_stats(), toolchain.pipeline_stats()

    def _build_predictable(self, toolchain: PredictableToolchain,
                           ctx: RunContext, options: BuildOptions) -> tuple:
        if options.custom is not None:
            return None, options.custom(ctx)
        spec = ctx.spec
        extra = (options.extra_implementations(ctx.platform)
                 if options.extra_implementations is not None else None)
        build = toolchain.build(
            spec.source, spec.csl,
            compiler_config=options.config,
            optimizer=options.optimizer,
            generations=self._generations(ctx, options),
            population_size=self._population(ctx, options),
            scheduler=options.scheduler,
            dvfs=options.dvfs,
            glue_style=options.glue_style,
            security_tasks=options.security_tasks,
            security_samples=options.security_samples,
            extra_implementations=extra,
            extended_search=options.extended_search,
            path_sensitive=options.path_sensitive,
        )
        return build, build.schedule

    def _run_complex(self, ctx: RunContext) -> tuple:
        spec = ctx.spec
        toolchain = ComplexToolchain(
            ctx.platform,
            profiling_runs=ctx.profiling_runs,
            noise_std=spec.profiler_noise_std,
            seed=spec.profiler_seed,
        )
        sides = []
        for options in (spec.baseline, spec.teamplay):
            if options.custom is not None:
                sides.append((None, options.custom(ctx)))
                continue
            build = toolchain.build(
                ctx.tasks, spec.csl,
                scheduler=options.scheduler,
                allow_gpu=options.allow_gpu,
                dvfs=options.dvfs,
                power_down_unused=options.power_down_unused,
                glue_style=options.glue_style,
            )
            sides.append((build, build.schedule))
        # The complex workflow profiles dynamically — no evaluation caches,
        # but its stage timers (CSL parse, profiling, scheduling) report
        # through the same pipeline-stats convention.
        return sides, None, toolchain.pipeline_stats()

    @staticmethod
    def _generations(ctx: RunContext, options: BuildOptions) -> int:
        if ctx.generations is not None and options.searches:
            return ctx.generations
        return options.generations

    @staticmethod
    def _population(ctx: RunContext, options: BuildOptions) -> int:
        if ctx.population_size is not None and options.searches:
            return ctx.population_size
        return options.population_size

    # ------------------------------------------------------ energy accounting --
    def _outcome(self, ctx: RunContext, build, schedule,
                 idle_factor: Optional[float], overhead: float) -> SideOutcome:
        spec = ctx.spec
        window = ctx.window_s
        model = spec.energy_model
        # Every model except plain task-energy integrates over the window.
        if window is None and (model != "task" or idle_factor is not None):
            raise TeamPlayError(
                f"scenario {spec.name!r}: energy accounting under the "
                f"{model!r} model needs a period or deadline in the contract")
        if model == "task":
            core_energy = schedule.task_energy_j
            if idle_factor is not None:
                core_energy = (core_energy
                               + schedule.idle_energy_j(ctx.platform, window)
                               * idle_factor)
        elif model == "software-power":
            if build is None or not hasattr(build, "software_power_w"):
                raise TeamPlayError(
                    f"scenario {spec.name!r}: the software-power energy "
                    f"model needs a complex-workflow build result")
            core_energy = build.software_power_w * window
        else:  # "total"
            core_energy = schedule.total_energy_j(ctx.platform, window)
        energy = core_energy + overhead if overhead else core_energy
        feasible = (build.schedulability.feasible if build is not None
                    else True)
        return SideOutcome(
            build=build,
            schedule=schedule,
            time_s=schedule.makespan_s,
            core_energy_j=core_energy,
            energy_j=energy,
            feasible=feasible,
        )


#: Module-level convenience runner used by :func:`run_scenario`.
_RUNNER = ScenarioRunner()


def run_scenario(scenario: Union[str, ScenarioSpec],
                 generations: Optional[int] = None,
                 population_size: Optional[int] = None,
                 profiling_runs: Optional[int] = None,
                 postprocess: bool = True) -> ScenarioResult:
    """Run a scenario by name or spec (see :meth:`ScenarioRunner.run`)."""
    return _RUNNER.run(scenario, generations=generations,
                       population_size=population_size,
                       profiling_runs=profiling_runs,
                       postprocess=postprocess)
