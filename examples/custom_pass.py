#!/usr/bin/env python3
"""Quickstart: authoring a compilation pass and reading the profile view.

Walks the pass-authoring flow `docs/passes.md` teaches:

1. register a toy IR-stage pass (an instruction histogram) on a driver's
   `PassManager` — its cache-key contribution widens the variant key, and
   it becomes one step of every function's IR pass chain: it runs once
   per distinct input, and since it changes no IR it hands each function
   on as it found it,
2. flip the stock CSE/peephole passes on for one build and compare the
   resulting worst-case bounds against the baseline,
3. run a registered scenario the way ``python -m repro.scenarios run
   --profile`` does and print the aggregated per-pass wall-time table.

Run with:  PYTHONPATH=src python examples/custom_pass.py
"""

from collections import Counter

from repro.compiler.config import CompilerConfig
from repro.compiler.driver import MultiCriteriaCompiler
from repro.compiler.pipeline import Pass, PassContext, render_profile
from repro.counters import sum_counters
from repro.hw.presets import nucleo_stm32f091rc
from repro.scenarios.runner import run_scenario

#: Repeated `a / b` quotients and `a * b` products: exactly what CSE
#: downgrades to copies — on the Nucleo's Cortex-M0-class core a division
#: is 18 cycles against 1 for the replacing copy, so the WCET delta below
#: is clearly visible.
SOURCE = """
#pragma teamplay task(main) poi(main)
int kernel(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 8; i = i + 1) {
        acc = acc + a / b + i;
        acc = acc + a / b + a * b;
        acc = acc - a * b;
    }
    return acc;
}
"""

SCENARIO = "ecg-wearable"


def opcode_histogram(ctx: PassContext) -> None:
    """The toy pass: count instructions by opcode, report the top one.

    Like every IR pass it runs once per function and distinct input, on a
    program holding only that function; the engine sums its counter over
    functions.  It writes no block, so the engine hands its input on.
    """
    histogram = Counter(
        instr.opcode.value
        for function in ctx.program.functions.values()
        for instr in function.iter_instructions())
    opcode, count = histogram.most_common(1)[0]
    ctx.statistics[f"most_common_{opcode}"] = count


def main():
    # -- 1. register a custom pass on a driver's pipeline -------------------
    compiler = MultiCriteriaCompiler(nucleo_stm32f091rc())
    compiler.pipeline.manager.register(
        Pass("opcode-histogram", "ir", opcode_histogram,
             cache_key=lambda config: ("opcode-histogram",)),
        after="dead-code-elimination")
    names = [p.name for p in compiler.pipeline.manager.passes("ir")]
    print(f"IR-stage pass list: {' -> '.join(names)}")
    key = compiler.pipeline.manager.canonical_key(CompilerConfig.baseline())
    print(f"variant key widened to {len(key)} elements: {key}")
    probe = compiler.compile(SOURCE, "kernel", CompilerConfig.baseline())
    histogram = {k: v for k, v in probe.pass_statistics.items()
                 if k.startswith("most_common_")}
    timings = compiler.pipeline_stats()["opcode-histogram"]
    steps = compiler.cache_stats()["ir_stage"]["misses"]
    print(f"custom pass ran {timings['invocations']}x "
          f"({timings['wall_s'] * 1e3:.2f} ms) and reported {histogram}; "
          f"{steps} IR pass steps built\n")

    # -- 2. the stock CSE + peephole passes on one build --------------------
    baseline = compiler.compile(SOURCE, "kernel", CompilerConfig.baseline())
    tuned = compiler.compile(
        SOURCE, "kernel",
        CompilerConfig.baseline().with_(enable_cse=True,
                                        enable_peephole=True))
    print(f"baseline  {baseline.config.short_name():14s} "
          f"WCET {baseline.wcet_cycles:8.1f} cycles, "
          f"{baseline.code_size_bytes} B")
    print(f"tuned     {tuned.config.short_name():14s} "
          f"WCET {tuned.wcet_cycles:8.1f} cycles, "
          f"{tuned.code_size_bytes} B  "
          f"(cse_replacements={tuned.pass_statistics['cse_replacements']}, "
          f"peephole_rewrites={tuned.pass_statistics['peephole_rewrites']})\n")

    # -- 3. the --profile view over a scenario run --------------------------
    result = run_scenario(SCENARIO)
    totals = sum_counters({}, result.pipeline_stats)
    print(render_profile(totals, title=f"pipeline profile ({SCENARIO})"))


if __name__ == "__main__":
    main()
