"""``dse-cold``: design-space exploration on cold caches.

Each op is one ``MultiCriteriaCompiler.explore`` call on a fresh compiler
(so the variant, lowering, IR-stage and analysis caches start empty) over
the extended gene space, so the CSE, peephole and path-sensitive genes vary.
The time goes into lowering, AST and IR passes, analysis-cache misses and
search; toolchain, coordination and the service are bypassed.

Inputs: ops over the 20 task entry functions of the four predictable
sources.  A search that visits ``unroll_limit=32`` on camera-pill or
space-spacewire spends 0.2-0.5 s per such build, so one op takes 0.05 s or
2 s depending on its search seed alone.  So that every ``--seed`` does the
same work, the ops form a fixed design: every light entry (ecg-wearable,
smart-meter) with both optimizers and a pool of search seeds, every heavy
entry (camera-pill, space-spacewire) once.  The seed draws the op order and
the simulator inputs of the checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from harness import Measurement
from tracing import op_scope

NAME = "dse-cold"
UNIT = "variant evaluations"
#: Whether the ops run in the benchmark process (timed with speed samples).
IN_PROCESS = True
SOURCES = ("camera-pill", "ecg-wearable", "smart-meter", "space-spacewire")
#: Sources whose unrolled loops make ops up to 20x costlier.
HEAVY = ("camera-pill", "space-spacewire")
OPTIMIZERS = ("fpa", "nsga2")
POPULATION = 4
GENERATIONS = 2
#: Seconds of ``--seconds`` per search seed of the light entries' pool, and
#: per repeat of the heavy entries.
LIGHT_SEED_S = 4.0
HEAVY_REPEAT_S = 20.0


@dataclass(frozen=True)
class Op:
    source: str
    entry: str
    optimizer: str
    search_seed: int
    args_seed: int


@dataclass
class State:
    ops: List[Op]
    sources: Dict[str, str]
    platforms: Dict[str, object]


def prepare(seed: int, seconds: float, limit: int = 0) -> State:
    """Imports, registry look-ups and the seeded op sequence."""
    from repro.compiler.driver import MultiCriteriaCompiler  # noqa: F401
    from repro.frontend import parse
    from repro.scenarios import get_scenario
    from repro.sim.machine import Simulator  # noqa: F401

    rng = random.Random(seed)
    light_seeds = max(1, round(seconds / LIGHT_SEED_S))
    heavy_repeats = max(1, round(seconds / HEAVY_REPEAT_S))
    sources, platforms, designs = {}, {}, []
    for name in SOURCES:
        spec = get_scenario(name)
        sources[name] = spec.source
        platforms[name] = spec.make_platform()
        entries = [function.name
                   for function in parse(spec.source).functions
                   if function.pragmas.get("task")]
        for position, entry in enumerate(entries):
            if name in HEAVY:
                designs += [(name, entry, OPTIMIZERS[position % 2],
                             position + repeat)
                            for repeat in range(1, heavy_repeats + 1)]
            else:
                designs += [(name, entry, optimizer, search_seed)
                            for optimizer in OPTIMIZERS
                            for search_seed in range(1, light_seeds + 1)]
    rng.shuffle(designs)
    ops = [Op(*design, args_seed=rng.randrange(1 << 30))
           for design in designs]
    return State(ops=ops[:limit] if limit else ops, sources=sources,
                 platforms=platforms)


def _dominates(a, b) -> bool:
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def _check(op: Op, front, compiler, simulated: Dict[tuple, str]) -> str:
    """Empty string when the op's output is correct, else the reason."""
    from repro.sim.machine import Simulator

    vectors = [variant.objectives() for variant in front]
    if not vectors:
        return "empty Pareto front"
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and _dominates(a, b):
                return f"front member {i} dominates member {j}"
    chosen = front.best_by_time()
    key = (op.source, op.entry, chosen.config)
    if key not in simulated:
        function = chosen.program.function(op.entry)
        rng = random.Random(op.args_seed)
        args = [rng.randrange(1, 17) for _ in function.params]
        run = Simulator(chosen.program, compiler.platform, core=compiler.core,
                        opp=compiler.opp).run(op.entry, args)
        simulated[key] = ("" if run.cycles <= chosen.wcet_cycles else
                          f"simulated {run.cycles} cycles > WCET "
                          f"{chosen.wcet_cycles}")
    return simulated[key]


def measure(state: State, tracer=None) -> Measurement:
    """Run the op sequence; each op's output is checked right after it,
    outside the timed region."""
    from repro.compiler.driver import MultiCriteriaCompiler

    result = Measurement(tracer=tracer)
    simulated: Dict[tuple, str] = {}
    result.between_ops()
    for index, op in enumerate(state.ops):
        try:
            with result.timed(), op_scope(tracer, index):
                compiler = MultiCriteriaCompiler(state.platforms[op.source])
                front = compiler.explore(
                    state.sources[op.source], op.entry,
                    optimizer=op.optimizer, population_size=POPULATION,
                    generations=GENERATIONS, seed=op.search_seed,
                    extended_space=True)
        except Exception as error:  # counted as a failed op
            result.errors[index] = f"{type(error).__name__}: {error}"
            result.outputs.append(None)
        else:
            result.units += front.evaluations
            result.outputs.append(_check(op, front, compiler, simulated))
        result.between_ops()
    result.wall_s = sum(result.latencies)
    return result


def check(state: State, measurement: Measurement) -> Dict[int, str]:
    """Op index -> reason for every op whose output check failed."""
    return {index: reason for index, reason in enumerate(measurement.outputs)
            if reason}
