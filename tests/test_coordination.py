"""Tests for the coordination layer: task graphs, schedulers, schedulability,
glue code and battery-aware adaptation."""

import pytest

from repro.coordination import (
    BatteryAwareManager,
    EnergyAwareScheduler,
    EtsProperties,
    Implementation,
    MissionPhase,
    SequentialScheduler,
    Task,
    TaskGraph,
    TaskVersion,
    TimeGreedyScheduler,
    analyse_schedule,
    generate_glue_code,
    response_time_analysis,
)
from repro.coordination.battery_aware import SoftwareMode
from repro.coordination.schedulability import PeriodicTask, utilisation
from repro.errors import SchedulingError
from repro.hw.battery import Battery
from repro.hw.presets import gr712rc


def impl(core, wcet, energy, opp=None, security=None):
    return Implementation(core, EtsProperties(wcet, energy, security), opp)


def diamond_graph(deadline=0.1):
    """a -> (b, c) -> d with two versions of c."""
    graph = TaskGraph(name="diamond", deadline_s=deadline, period_s=deadline)
    graph.add_task(Task.single_version("a", [impl("leon3-0", 0.01, 0.002),
                                             impl("leon3-1", 0.01, 0.002)]))
    graph.add_task(Task.single_version("b", [impl("leon3-0", 0.02, 0.004),
                                             impl("leon3-1", 0.02, 0.004)]))
    graph.add_task(Task("c", versions=[
        TaskVersion("fast", [impl("leon3-0", 0.015, 0.006),
                             impl("leon3-1", 0.015, 0.006)]),
        TaskVersion("frugal", [impl("leon3-0", 0.03, 0.003),
                               impl("leon3-1", 0.03, 0.003)]),
    ]))
    graph.add_task(Task.single_version("d", [impl("leon3-0", 0.01, 0.002),
                                             impl("leon3-1", 0.01, 0.002)]))
    for edge in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        graph.add_edge(*edge)
    return graph


class TestTaskGraph:
    def test_validation_catches_cycles_and_missing_tasks(self):
        graph = diamond_graph()
        graph.edges.append(("d", "a"))
        with pytest.raises(SchedulingError):
            graph.validate()
        with pytest.raises(SchedulingError):
            graph.add_edge("a", "zz")

    def test_task_without_implementation_rejected(self):
        graph = TaskGraph(name="empty")
        graph.add_task(Task("lonely"))
        with pytest.raises(SchedulingError):
            graph.validate()

    def test_duplicate_task_rejected(self):
        graph = diamond_graph()
        with pytest.raises(SchedulingError):
            graph.add_task(Task.single_version("a", [impl("leon3-0", 1, 1)]))

    def test_topology_queries(self):
        graph = diamond_graph()
        assert graph.sources() == ["a"]
        assert graph.sinks() == ["d"]
        assert set(graph.predecessors("d")) == {"b", "c"}
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")

    @staticmethod
    def _graph(names, edges):
        graph = TaskGraph(name="pinned")
        for name in names:
            graph.add_task(Task.single_version(name, [impl("leon3-0", 1, 1)]))
        for source, destination in edges:
            graph.add_edge(source, destination)
        return graph

    def test_topological_order_is_kahn_by_generation(self):
        # Neither insertion order nor a DFS order: generation one is the
        # sources in insertion order (b waits for a), then each generation
        # in the order its in-degree reaches zero.
        graph = self._graph(
            ["sink", "b", "a", "mid", "c"],
            [("c", "mid"), ("a", "sink"), ("b", "mid"), ("mid", "sink"),
             ("a", "b")])
        assert graph.topological_order() == ["a", "c", "b", "mid", "sink"]
        graph.validate()

    def test_cycle_behind_a_source_rejected(self):
        graph = self._graph(["s", "x", "y", "t"],
                            [("s", "x"), ("x", "y"), ("y", "x"), ("s", "t")])
        assert graph.topological_order() == ["s", "t"]
        with pytest.raises(SchedulingError, match="cycle"):
            graph.validate()

    def test_upward_ranks_decrease_along_edges(self):
        ranks = diamond_graph().upward_ranks()
        assert ranks["a"] > ranks["b"] > ranks["d"]
        assert ranks["a"] > ranks["c"] > ranks["d"]


class TestSchedulers:
    def test_sequential_scheduler_uses_one_core_in_order(self):
        board = gr712rc()
        schedule = SequentialScheduler(board).schedule(diamond_graph())
        assert len(schedule.by_core()) == 1
        report = analyse_schedule(schedule, diamond_graph(), board)
        assert report.feasible

    def test_time_greedy_uses_parallelism(self):
        board = gr712rc()
        graph = diamond_graph()
        sequential = SequentialScheduler(board).schedule(graph)
        parallel = TimeGreedyScheduler(board).schedule(graph)
        assert parallel.makespan_s < sequential.makespan_s
        assert len(parallel.by_core()) == 2

    def test_energy_aware_never_worse_than_time_greedy_on_energy(self):
        board = gr712rc()
        graph = diamond_graph()
        greedy = TimeGreedyScheduler(board).schedule(graph)
        frugal = EnergyAwareScheduler(board).schedule(graph)
        window = graph.deadline_s
        assert frugal.total_energy_j(board, window) <= greedy.total_energy_j(board, window) + 1e-15
        assert frugal.is_feasible(graph.deadline_s)

    def test_energy_aware_picks_frugal_version_when_slack_allows(self):
        board = gr712rc()
        schedule = EnergyAwareScheduler(board).schedule(diamond_graph(deadline=0.2))
        assert schedule.entry("c").version == "frugal"

    def test_energy_aware_keeps_fast_version_under_tight_deadline(self):
        board = gr712rc()
        schedule = EnergyAwareScheduler(board).schedule(diamond_graph(deadline=0.045))
        assert schedule.entry("c").version == "fast"
        assert schedule.is_feasible(0.045)

    def test_unschedulable_graph_raises(self):
        board = gr712rc()
        with pytest.raises(SchedulingError):
            EnergyAwareScheduler(board).schedule(diamond_graph(deadline=0.01))

    def test_security_requirement_filters_candidates(self):
        board = gr712rc()
        graph = TaskGraph(name="secure", deadline_s=1.0)
        graph.add_task(Task("t", versions=[
            TaskVersion("insecure", [impl("leon3-0", 0.01, 0.001, security=0.2)]),
            TaskVersion("secure", [impl("leon3-0", 0.02, 0.005, security=0.9)]),
        ], security_requirement=0.8))
        schedule = EnergyAwareScheduler(board).schedule(graph)
        assert schedule.entry("t").version == "secure"

    def test_precedence_respected_in_all_schedules(self):
        board = gr712rc()
        graph = diamond_graph()
        for scheduler in (SequentialScheduler(board), TimeGreedyScheduler(board),
                          EnergyAwareScheduler(board)):
            schedule = scheduler.schedule(graph)
            report = analyse_schedule(schedule, graph, board)
            assert report.feasible, report.violations

    def test_schedule_queries(self):
        board = gr712rc()
        schedule = TimeGreedyScheduler(board).schedule(diamond_graph())
        assert schedule.entry("a").start_s == 0.0
        with pytest.raises(SchedulingError):
            schedule.entry("nope")
        assert len(schedule.gantt_rows()) == 4
        assert schedule.task_energy_j > 0
        assert schedule.idle_energy_j(board, 0.1) >= 0


class TestSchedulabilityAnalysis:
    def test_analysis_flags_missed_deadline(self):
        board = gr712rc()
        graph = diamond_graph(deadline=0.03)
        schedule = TimeGreedyScheduler(board).schedule(graph)
        report = analyse_schedule(schedule, graph, board)
        assert not report.feasible
        assert any("deadline" in v for v in report.violations)
        assert report.slack_s < 0

    def test_analysis_flags_overlap_and_precedence_violations(self):
        board = gr712rc()
        graph = diamond_graph()
        schedule = TimeGreedyScheduler(board).schedule(graph)
        # Corrupt the schedule: start task d before its predecessors finish.
        entry = schedule.entry("d")
        entry.start_s = 0.0
        entry.finish_s = 0.01
        report = analyse_schedule(schedule, graph, board)
        assert not report.feasible

    def test_response_time_analysis_schedulable_set(self):
        tasks = [PeriodicTask("fast", 0.001, 0.01), PeriodicTask("slow", 0.02, 0.1)]
        ok, response = response_time_analysis(tasks)
        assert ok
        assert response["fast"] == pytest.approx(0.001)
        assert response["slow"] >= 0.02
        assert utilisation(tasks) < 1.0

    def test_response_time_analysis_detects_overload(self):
        tasks = [PeriodicTask("a", 0.06, 0.1), PeriodicTask("b", 0.05, 0.1)]
        ok, _ = response_time_analysis(tasks)
        assert not ok


class TestGlueCode:
    def test_posix_and_rtems_styles(self):
        board = gr712rc()
        graph = diamond_graph()
        schedule = TimeGreedyScheduler(board).schedule(graph)
        posix = generate_glue_code(schedule, graph, board, style="posix")
        rtems = generate_glue_code(schedule, graph, board, style="rtems")
        assert "pthread_create" in posix and "sem_wait" in posix
        assert "rtems_task_start" in rtems and "rtems_semaphore_obtain" in rtems
        for code in (posix, rtems):
            assert "tp_coordination_init" in code
            for task in graph.tasks:
                assert task in code

    def test_unknown_style_rejected(self):
        board = gr712rc()
        graph = diamond_graph()
        schedule = TimeGreedyScheduler(board).schedule(graph)
        with pytest.raises(SchedulingError):
            generate_glue_code(schedule, graph, board, style="zephyr")


class TestBatteryAware:
    def _manager(self, capacity_wh=20.0):
        modes = [SoftwareMode("full", 10.0, 1.0), SoftwareMode("eco", 2.0, 0.3)]
        return BatteryAwareManager(Battery(capacity_wh, usable_fraction=1.0), modes,
                                   reserve_fraction=0.0, decision_interval_s=60)

    def test_selects_best_mode_that_fits(self):
        manager = self._manager(capacity_wh=20.0)
        long_mission = [MissionPhase("cruise", 3000, 28.0)]
        short_mission = [MissionPhase("cruise", 600, 28.0)]
        assert manager.select_mode(short_mission).name == "full"
        assert manager.select_mode(long_mission).name == "eco"

    def test_mission_simulation_tracks_state_of_charge(self):
        manager = self._manager()
        outcome = manager.simulate_mission([MissionPhase("cruise", 1200, 28.0)])
        assert outcome.completed
        socs = [step.state_of_charge for step in outcome.steps]
        assert all(a >= b for a, b in zip(socs, socs[1:]))

    def test_mission_fails_when_battery_too_small(self):
        manager = self._manager(capacity_wh=1.0)
        outcome = manager.simulate_mission([MissionPhase("cruise", 3600, 28.0)])
        assert not outcome.completed
        assert outcome.flight_time_s < 3600

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SchedulingError):
            BatteryAwareManager(Battery(1), [])
        with pytest.raises(SchedulingError):
            MissionPhase("x", 0, 1.0)
