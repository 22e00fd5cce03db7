"""Deep-learning deployment use case (Section IV-D).

A CNN detects free parking spots from an overhead camera.  Two deployments
are studied:

* **Cortex-M0**: the network's inner loops (convolution, dense layer) are
  compiled with the multi-criteria compiler, which offers several variants of
  the same kernels with different WCET/energy characteristics (experiment
  E5) — exactly the guidance the paper says the compiler gives the designer,
* **Apalis TK1**: only the coordination layer of the complex-architecture
  workflow is used (with a manually extracted application structure, as in
  the paper); the generated deployment performs similarly to the
  human-optimised mapping (experiment E6).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler.config import CompilerConfig
from repro.compiler.driver import MultiCriteriaCompiler
from repro.coordination.schedulers import EnergyAwareScheduler, Schedule
from repro.coordination.taskgraph import Implementation, TaskGraph
from repro.csl.extract import build_task_graph
from repro.csl.parser import parse_csl
from repro.dl.dataset import ParkingDataset
from repro.dl.kernels import conv2d_kernel_source, matmul_kernel_source
from repro.dl.network import ParkingNet
from repro.hw.platform import Platform
from repro.hw.presets import nucleo_stm32f091rc
from repro.profiling.powprofiler import PowProfiler
from repro.scenarios import (
    BuildOptions,
    RunContext,
    ScenarioResult,
    ScenarioSpec,
    register_scenario,
    run_scenario,
)
from repro.toolchain.complexflow import WorkloadTask
from repro.toolchain.report import ImprovementReport


# ---------------------------------------------------------------------------
# E5: compiled kernel variants on the Cortex-M0
# ---------------------------------------------------------------------------
#: Compiler configurations offered to the designer for the CNN kernels.
M0_CONFIGS = {
    "baseline": CompilerConfig.baseline(),
    "unroll4": CompilerConfig.baseline().with_(
        unroll_limit=4, strength_reduction=True),
    "unroll8": CompilerConfig.baseline().with_(
        unroll_limit=8, strength_reduction=True),
    "spm": CompilerConfig.baseline().with_(spm_allocation=True),
    "unroll8+spm": CompilerConfig.baseline().with_(
        unroll_limit=8, strength_reduction=True, spm_allocation=True),
}


@dataclass
class KernelVariantRow:
    """One row of the E5 variant table."""

    kernel: str
    config: str
    opp: str
    wcet_ms: float
    energy_uj: float

    def as_dict(self) -> Dict[str, object]:
        return {"kernel": self.kernel, "config": self.config, "opp": self.opp,
                "wcet_ms": self.wcet_ms, "energy_uJ": self.energy_uj}


def m0_platform() -> Platform:
    return nucleo_stm32f091rc()


def run_m0_variants(image_size: int = 10, matrix_size: int = 8,
                    ctx=None) -> List[KernelVariantRow]:
    """Regenerate experiment E5: the variant table for the CNN kernels.

    One row per (kernel, config, operating point).  Each (kernel, config)
    variant is built once; its time and energy at each operating point are
    queries on the same variant (the task name is the kernel name).  With a
    scenario ``ctx``, the builds' per-pass counters land in its
    ``pipeline_stats``.
    """
    compiler = MultiCriteriaCompiler(m0_platform())
    kernels = {
        "conv2d": (conv2d_kernel_source(image_size), "conv2d"),
        "matmul": (matmul_kernel_source(matrix_size), "matmul"),
    }

    rows: List[KernelVariantRow] = []
    for kernel_name, (source, entry) in kernels.items():
        for config_name, config in M0_CONFIGS.items():
            variant = compiler.compile(source, entry, config)
            for opp in compiler.core.operating_points:
                task = compiler.task_properties(variant, opp)[kernel_name]
                rows.append(KernelVariantRow(
                    kernel=kernel_name,
                    config=config_name,
                    opp=opp.label,
                    wcet_ms=task["wcet_s"] * 1e3,
                    energy_uj=task["energy_j"] * 1e6,
                ))
    if ctx is not None:
        ctx.pipeline_stats = compiler.pipeline_stats()
    return rows


def _summarize_m0(rows: List[KernelVariantRow]) -> Dict[str, object]:
    """JSON-ready row of the E5 variant table: its shape plus, per kernel,
    the fastest and the most frugal variant at the nominal operating point."""
    nominal_label = m0_platform().predictable_cores[0].nominal_opp.label
    nominal = [row for row in rows if row.opp == nominal_label] or rows
    kernels = sorted({row.kernel for row in rows})
    best: Dict[str, object] = {}
    for kernel in kernels:
        candidates = [row for row in nominal if row.kernel == kernel]
        fastest = min(candidates, key=lambda row: row.wcet_ms)
        frugal = min(candidates, key=lambda row: row.energy_uj)
        best[kernel] = {
            "fastest_config": fastest.config,
            "fastest_wcet_ms": fastest.wcet_ms,
            "lowest_energy_config": frugal.config,
            "lowest_energy_uJ": frugal.energy_uj,
        }
    return {
        "rows": len(rows),
        "kernels": kernels,
        "configs": sorted({row.config for row in rows}),
        "nominal_best": best,
    }


def _run_m0_custom(ctx):
    """Module-level ``custom_run`` so the spec (and any ScenarioResult
    holding it) stays picklable for process workers and the job journal."""
    return run_m0_variants(ctx=ctx)


#: E5 as a declarative (custom-kind) scenario: the kernel-variant table is
#: designer guidance, not a baseline-vs-TeamPlay build, so a ``custom_run``
#: regenerates the table and the registry sweep reports its shape.
M0_SCENARIO = register_scenario(ScenarioSpec(
    name="parking-dl-m0",
    title="CNN kernel variants on Cortex-M0 (E5)",
    kind="custom",
    platform="nucleo-stm32f091rc",
    custom_run=_run_m0_custom,
    summarize=_summarize_m0,
    description="Multi-criteria compilation of the CNN inner kernels on "
                "the Cortex-M0: one WCET/energy variant row per (kernel, "
                "configuration, operating point) — the designer guidance "
                "table of paper Section IV-D.",
    tags=("paper", "custom"),
))


# ---------------------------------------------------------------------------
# E6: TK1 deployment vs the hand-optimised mapping
# ---------------------------------------------------------------------------
PARKING_CSL = """
system parking_detection {
    period 500 ms;
    deadline 500 ms;

    task capture     { budget time 100 ms; }
    task inference   { budget time 400 ms; }
    task postprocess { budget time 60 ms; }
    task report      { budget time 40 ms; }

    graph {
        capture -> inference -> postprocess -> report;
    }
}
"""


def parking_network(spots: int = 8, training_scenes: int = 40,
                    seed: int = 7) -> ParkingNet:
    """The trained parking detector whose workload is deployed on the TK1."""
    dataset = ParkingDataset(spots=spots, seed=seed)
    network = ParkingNet(dataset)
    network.train(dataset.batch(training_scenes))
    return network


def tk1_workload(network: Optional[ParkingNet] = None,
                 work_scale: float = 8000.0) -> List[WorkloadTask]:
    """The TK1 task set, sized from the network's MAC count.

    ``work_scale`` converts one inference's MACs into total work units per
    period (the application processes several camera tiles per activation).
    """
    network = network or parking_network()
    inference_units = network.inference_macs() * work_scale
    return [
        WorkloadTask("capture", work_units=inference_units * 0.08,
                     kernel="preprocess", gpu_capable=False),
        WorkloadTask("inference", work_units=inference_units, kernel="conv",
                     gpu_capable=True),
        WorkloadTask("postprocess", work_units=inference_units * 0.05,
                     kernel="matmul", gpu_capable=False),
        WorkloadTask("report", work_units=inference_units * 0.01, kernel=None,
                     gpu_capable=False),
    ]


@dataclass
class Tk1Comparison:
    """Outcome of the TK1 deployment experiment (E6)."""

    teamplay_schedule: Schedule
    manual_schedule: Schedule
    report: ImprovementReport
    teamplay_energy_j: float
    manual_energy_j: float

    @property
    def energy_ratio(self) -> float:
        """TeamPlay energy relative to the hand-optimised deployment."""
        return self.teamplay_energy_j / self.manual_energy_j

    @property
    def time_ratio(self) -> float:
        return (self.teamplay_schedule.makespan_s
                / self.manual_schedule.makespan_s)


def _manual_task_graph(board: Platform, tasks: List[WorkloadTask],
                       csl_text: str, profiling_runs: int) -> TaskGraph:
    """The human-optimised mapping: GPU at nominal for the CNN, fastest CPU
    at nominal for everything else (no DVFS, no search)."""
    spec = parse_csl(csl_text)
    profiler = PowProfiler(board, noise_std=0.0)
    gpu = next(core for core in board.complex_cores if core.kind.value == "gpu")
    cpu = next(core for core in board.complex_cores if core.kind.value == "cpu")
    implementations: Dict[str, List[Implementation]] = {}
    for task in tasks:
        core = gpu if task.gpu_capable else cpu
        profile = profiler.profile_workload(
            task.name, core.name, task.work_units, kernel=task.kernel,
            runs=profiling_runs, opp=core.nominal_opp)
        implementations[task.name] = [Implementation(
            core=core.name, properties=profile.to_properties(),
            opp_label=core.nominal_opp.label)]
    return build_task_graph(spec, implementations,
                            name=f"{spec.system}-manual")


def _manual_mapping(ctx: RunContext) -> Schedule:
    """The E6 baseline: schedule the hand-optimised mapping (no search)."""
    manual_graph = _manual_task_graph(ctx.platform, ctx.tasks, PARKING_CSL,
                                      ctx.profiling_runs)
    return EnergyAwareScheduler(ctx.platform).schedule(manual_graph)


def _finalize_tk1(result: ScenarioResult) -> Tk1Comparison:
    """Shape the generic scenario result into the paper's E6 comparison."""
    return Tk1Comparison(
        teamplay_schedule=result.teamplay.schedule,
        manual_schedule=result.baseline.schedule,
        report=result.report,
        teamplay_energy_j=result.teamplay.core_energy_j,
        manual_energy_j=result.baseline.core_energy_j,
    )


#: E6 as a declarative scenario.  As in the paper, only the coordination
#: layer is used on this target (the application structure and the
#: energy/time estimates come from profiling), so DVFS is left at the
#: nominal operating points and the comparison is about the mapping
#: decisions: the baseline side is the human-optimised mapping, built by a
#: custom hook instead of the profiling workflow.
TK1_SCENARIO = register_scenario(ScenarioSpec(
    name="parking-dl-tk1",
    title="Deep learning on TK1 (E6)",
    kind="complex",
    platform="apalis-tk1",
    csl=PARKING_CSL,
    workload=tk1_workload,
    baseline=BuildOptions(custom=_manual_mapping),
    teamplay=BuildOptions(scheduler="energy-aware", allow_gpu=True,
                          dvfs=False),
    profiling_runs=8,
    energy_model="total",
    report_name="deep learning on TK1 (E6)",
    postprocess=_finalize_tk1,
    description="CNN parking detection deployed on the Apalis TK1: "
                "coordination-layer mapping vs the hand-optimised one "
                "(paper Section IV-D).",
    tags=("paper", "complex"),
))


def run_tk1_comparison(profiling_runs: int = 8,
                       work_scale: float = 8000.0) -> Tk1Comparison:
    """Regenerate experiment E6: coordination-layer deployment vs manual."""
    spec = TK1_SCENARIO
    if work_scale != 8000.0:
        spec = TK1_SCENARIO.with_(
            workload=functools.partial(tk1_workload, work_scale=work_scale))
    result = run_scenario(spec, profiling_runs=profiling_runs)
    return result.detail
