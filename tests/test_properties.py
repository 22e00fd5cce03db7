"""Property-based tests (hypothesis) for the core invariants.

The invariants checked here are the load-bearing ones of the reproduction:

* simulated integer semantics match a Python model of 32-bit C arithmetic,
* static WCET / WCEC bounds dominate any observed execution,
* the security hardening transformation preserves functional semantics,
* schedulers always produce precedence- and resource-consistent schedules,
* quantisation error is bounded by its scale,
* the numpy-vectorised Pareto machinery agrees exactly with the retained
  pure-Python reference implementations.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compiler.engine.vectorized import (
    crowding_distance,
    non_dominated_sort,
    pareto_front,
)
from repro.coordination import (
    EnergyAwareScheduler,
    EtsProperties,
    Implementation,
    Task,
    TaskGraph,
    TimeGreedyScheduler,
    analyse_schedule,
)
from repro.dl.quantize import dequantize_tensor, quantize_tensor
from repro.energy.static_analyzer import EnergyAnalyzer
from repro.frontend.lowering import compile_source, lower_module
from repro.frontend.parser import parse
from repro.hw.presets import gr712rc, nucleo_stm32f091rc
from repro.ir.instructions import wrap32
from repro.security.ciphers import modexp_reference
from repro.security.metrics import histogram_overlap, indiscernibility_score
from repro.security.transforms import harden_module
from repro.sim.machine import Simulator
from repro.wcet.analyzer import WCETAnalyzer
from oracles import (
    ObjectivePoint,
    crowding_distance_reference,
    non_dominated_sort_reference,
    pareto_front_reference,
)

PLATFORM = nucleo_stm32f091rc()

small_ints = st.integers(min_value=-(2 ** 20), max_value=2 ** 20)


class TestSimulatorSemantics:
    @given(a=small_ints, b=small_ints)
    @settings(max_examples=30, deadline=None)
    def test_expression_evaluation_matches_python_model(self, a, b):
        source = "int f(int a, int b) { return ((a + b) * 3 - (a ^ b)) + (a & b) + (b << 2); }"
        program = compile_source(source)
        result = Simulator(program, PLATFORM).run("f", [a, b])
        expected = wrap32(wrap32((a + b) * 3 - (a ^ b)) + (a & b) + wrap32(b << 2))
        assert result.return_value == expected

    @given(a=st.integers(min_value=-10**6, max_value=10**6),
           b=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_division_truncates_toward_zero(self, a, b):
        program = compile_source("int f(int a, int b) { return a / b + (a % b) * 10000; }")
        result = Simulator(program, PLATFORM).run("f", [a, b])
        quotient = abs(a) // b if a >= 0 else -(abs(a) // b)
        remainder = a - quotient * b
        assert result.return_value == wrap32(quotient + remainder * 10000)

    @given(values=st.lists(st.integers(min_value=0, max_value=255),
                           min_size=8, max_size=8),
           gain=st.integers(min_value=0, max_value=15))
    @settings(max_examples=25, deadline=None)
    def test_loop_program_matches_reference(self, values, gain):
        source = """
        int buf[8];
        int f(int gain) {
            int acc = 0;
            for (int i = 0; i < 8; i = i + 1) {
                if (buf[i] > 128) { acc = acc + buf[i] * gain; }
                else { acc = acc - buf[i]; }
            }
            return acc;
        }
        """
        program = compile_source(source)
        result = Simulator(program, PLATFORM).run("f", [gain],
                                                  globals_init={"buf": values})
        expected = 0
        for v in values:
            expected = expected + v * gain if v > 128 else expected - v
        assert result.return_value == wrap32(expected)


class TestStaticBoundsDominate:
    SOURCE = """
    int samples[24];
    int smooth(int x) { return (x * 3 + 1) / 2; }
    int task(int gain, int threshold) {
        int acc = 0;
        for (int i = 0; i < 24; i = i + 1) {
            int v = samples[i] * gain;
            if (v > threshold) { acc = acc + smooth(v); }
            else { acc = acc + v % 7; }
        }
        return acc;
    }
    """

    @given(gain=st.integers(min_value=0, max_value=100),
           threshold=st.integers(min_value=-100, max_value=5000),
           data=st.lists(st.integers(min_value=0, max_value=500),
                         min_size=24, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_wcet_and_wcec_dominate_any_run(self, gain, threshold, data):
        program = compile_source(self.SOURCE)
        wcet = WCETAnalyzer(PLATFORM).analyze(program, "task")
        wcec = EnergyAnalyzer(PLATFORM).analyze(program, "task")
        observed = Simulator(program, PLATFORM).run(
            "task", [gain, threshold], globals_init={"samples": data})
        assert wcet.cycles >= observed.cycles
        assert wcec.energy_j >= observed.energy_j


class TestHardeningPreservesSemantics:
    SOURCE = """
    #pragma teamplay secret(key)
    int mix(int key, int data) {
        int acc = data;
        #pragma teamplay loopbound(8)
        for (int i = 0; i < 8; i = i + 1) {
            int bit = (key >> i) & 1;
            if (bit) { acc = (acc * 5 + i) % 8191; }
            else { acc = (acc + 3) % 8191; }
        }
        return acc;
    }
    """

    @given(key=st.integers(min_value=0, max_value=255),
           data=st.integers(min_value=0, max_value=8190))
    @settings(max_examples=25, deadline=None)
    def test_predicated_code_computes_the_same_function(self, key, data):
        module = parse(self.SOURCE)
        hardened, report = harden_module(module)
        assert report.transformed_count == 1
        original = Simulator(compile_source(self.SOURCE), PLATFORM)
        transformed = Simulator(lower_module(hardened), PLATFORM)
        assert (original.run("mix", [key, data]).return_value
                == transformed.run("mix", [key, data]).return_value)

    @given(base=st.integers(min_value=2, max_value=250),
           exponent=st.integers(min_value=0, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_modexp_reference_model(self, base, exponent):
        from repro.security.ciphers import MODEXP_LEAKY_SOURCE
        program = compile_source(MODEXP_LEAKY_SOURCE)
        result = Simulator(program, PLATFORM).run("modexp", [base, exponent, 251])
        assert result.return_value == modexp_reference(base, exponent, 251)


class TestSchedulerInvariants:
    @st.composite
    def task_graphs(draw):
        board = gr712rc()
        core_names = [core.name for core in board.schedulable_cores]
        task_count = draw(st.integers(min_value=2, max_value=6))
        graph = TaskGraph(name="random", deadline_s=10.0, period_s=10.0)
        for index in range(task_count):
            implementations = []
            for core in core_names:
                wcet = draw(st.floats(min_value=1e-4, max_value=5e-2))
                energy = draw(st.floats(min_value=1e-6, max_value=1e-2))
                implementations.append(Implementation(core,
                                                      EtsProperties(wcet, energy)))
            graph.add_task(Task.single_version(f"t{index}", implementations))
        # Random forward edges keep the graph acyclic.
        for src in range(task_count):
            for dst in range(src + 1, task_count):
                if draw(st.booleans()):
                    graph.add_edge(f"t{src}", f"t{dst}")
        return graph

    @given(graph=task_graphs())
    @settings(max_examples=20, deadline=None)
    def test_schedules_are_always_consistent(self, graph):
        board = gr712rc()
        for scheduler in (TimeGreedyScheduler(board), EnergyAwareScheduler(board)):
            schedule = scheduler.schedule(graph)
            report = analyse_schedule(schedule, graph, board)
            assert report.feasible, report.violations
            assert len(schedule.entries) == len(graph.tasks)

    @given(graph=task_graphs())
    @settings(max_examples=15, deadline=None)
    def test_energy_aware_never_uses_more_energy(self, graph):
        board = gr712rc()
        greedy = TimeGreedyScheduler(board).schedule(graph)
        frugal = EnergyAwareScheduler(board).schedule(graph)
        window = graph.deadline_s
        assert (frugal.total_energy_j(board, window)
                <= greedy.total_energy_j(board, window) + 1e-12)


class TestMetricAndQuantisationBounds:
    @given(a=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                      min_size=2, max_size=40),
           b=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                      min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    # Subnormal range: the histogram bin width underflowed to zero.
    @example(a=[0.0, 0.0], b=[0.0, 5e-324])
    def test_security_scores_stay_in_unit_interval(self, a, b):
        assert 0.0 <= histogram_overlap(a, b) <= 1.0
        assert 0.0 <= indiscernibility_score({0: a, 1: b}) <= 1.0

    @given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=64),
           bits=st.integers(min_value=4, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_quantisation_error_bounded_by_scale(self, values, bits):
        tensor = np.array(values)
        quantised, scale = quantize_tensor(tensor, bits=bits)
        restored = dequantize_tensor(quantised, scale)
        assert np.abs(restored - tensor).max() <= scale * (1 + 1e-9)

    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_wrap_is_idempotent_and_in_range(self, seed):
        rng = random.Random(seed)
        value = rng.randrange(-2 ** 40, 2 ** 40)
        wrapped = wrap32(value)
        assert -(2 ** 31) <= wrapped <= 2 ** 31 - 1
        assert wrap32(wrapped) == wrapped


#: Coordinate pool deliberately small so random vectors collide: duplicate
#: points and tied coordinates are the interesting cases for dominance,
#: crowding tie-breaking and deduplication.
_coordinates = st.one_of(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, -3.25, 100.0]),
    st.floats(min_value=-50, max_value=50,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def objective_point_lists(draw):
    """Random objective vectors of one shared width (possibly duplicated)."""
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(
        st.tuples(*[_coordinates] * width), min_size=0, max_size=16))
    return [ObjectivePoint(row) for row in rows]


class TestVectorisedParetoMachineryMatchesReference:
    """The numpy implementations must agree *exactly* with the seed's
    pure-Python references — same fronts in the same order, same crowding
    values including the stable-sort tie-breaking, same first-occurrence
    deduplication — because the optimisers' Pareto archives for fixed seeds
    must not change."""

    @given(points=objective_point_lists())
    @settings(max_examples=120, deadline=None)
    def test_non_dominated_sort_agrees(self, points):
        assert non_dominated_sort(points) == non_dominated_sort_reference(points)

    @given(points=objective_point_lists())
    @settings(max_examples=120, deadline=None)
    def test_crowding_distance_agrees_on_every_front(self, points):
        for front in non_dominated_sort_reference(points):
            assert (crowding_distance(points, front)
                    == crowding_distance_reference(points, front))

    @given(points=objective_point_lists())
    @settings(max_examples=120, deadline=None)
    def test_pareto_front_agrees_including_identity_and_order(self, points):
        expected = pareto_front_reference(points)
        actual = pareto_front(points)
        assert len(actual) == len(expected)
        assert all(a is b for a, b in zip(actual, expected))

    @given(value=st.tuples(_coordinates, _coordinates),
           count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_all_equal_points(self, value, count):
        points = [ObjectivePoint(value) for _ in range(count)]
        assert non_dominated_sort(points) == non_dominated_sort_reference(points)
        front = list(range(count))
        assert (crowding_distance(points, front)
                == crowding_distance_reference(points, front))
        expected = pareto_front_reference(points)
        actual = pareto_front(points)
        assert len(actual) == len(expected) == 1
        assert actual[0] is expected[0] is points[0]

    def test_empty_and_singleton(self):
        assert non_dominated_sort([]) == non_dominated_sort_reference([])
        assert pareto_front([]) == pareto_front_reference([])
        assert crowding_distance([], []) == crowding_distance_reference([], [])
        single = [ObjectivePoint((1.0, 2.0))]
        assert non_dominated_sort(single) == [[0]]
        assert crowding_distance(single, [0]) == {0: float("inf")}
        assert pareto_front(single) == single
