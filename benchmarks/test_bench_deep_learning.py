"""E5/E6 — deep-learning deployment (paper IV-D).

E5: on the Cortex-M0, the multi-criteria compiler offers variants of the CNN
kernels with different WCET/energy characteristics.
E6: on the TK1, the coordination-layer deployment performs similarly to the
hand-optimised mapping.
"""

import pytest

from conftest import print_experiment
from repro.toolchain.report import format_table
from repro.usecases import deep_learning


@pytest.fixture(scope="module")
def m0_rows():
    return deep_learning.run_m0_variants()


def test_e5_m0_variants(benchmark, m0_rows):
    table_rows = benchmark.pedantic(deep_learning.run_m0_variants,
                                    rounds=1, iterations=1)
    rows = [row for row in table_rows if row.opp.endswith("48MHz")]

    table = [row.as_dict() for row in m0_rows if row.kernel == "conv2d"
             and row.opp.endswith("48MHz")]
    print_experiment(
        "E5 deep learning on the Cortex-M0 — compiled variants",
        "the compiler offers variants of the same tasks with different energy "
        "and WCET characteristics, guiding the application designer",
        format_table(table).splitlines(),
    )
    # Shape: several distinct variants exist per kernel, and the spread
    # between the fastest/cheapest and the baseline is substantial.
    for kernel in ("conv2d", "matmul"):
        kernel_rows = [row for row in rows if row.kernel == kernel]
        wcets = sorted(row.wcet_ms for row in kernel_rows)
        energies = sorted(row.energy_uj for row in kernel_rows)
        assert len({round(w, 6) for w in wcets}) >= 3
        assert wcets[0] < 0.85 * wcets[-1]
        assert energies[0] < 0.95 * energies[-1]


def test_e5_dvfs_sweet_spot(benchmark, m0_rows):
    """Across operating points the energy is not monotone in frequency."""
    def sweep():
        return [row for row in m0_rows
                if row.kernel == "conv2d" and row.config == "baseline"]

    rows = benchmark(sweep)
    print_experiment(
        "E5 deep learning — operating-point sweep (conv2d, baseline config)",
        "time and energy can be traded by frequency selection",
        [f"{row.opp:12s}  WCET {row.wcet_ms:7.3f} ms  energy "
         f"{row.energy_uj:7.3f} uJ" for row in rows],
    )
    assert len(rows) >= 3
    wcet_by_freq = [row.wcet_ms for row in rows]
    # Higher frequency always shortens the WCET...
    assert wcet_by_freq == sorted(wcet_by_freq, reverse=True)
    # ...but the energy ranking differs from the time ranking (a sweet spot
    # exists away from one end), unless leakage is negligible.
    energy_by_freq = [row.energy_uj for row in rows]
    assert energy_by_freq != sorted(energy_by_freq, reverse=True)


@pytest.fixture(scope="module")
def tk1_comparison():
    return deep_learning.run_tk1_comparison()


def test_e6_tk1_vs_manual(benchmark, tk1_comparison):
    comparison = benchmark.pedantic(
        lambda: deep_learning.run_tk1_comparison(profiling_runs=5),
        rounds=1, iterations=1)

    print_experiment(
        "E6 deep learning on the TK1 — generated vs hand-optimised deployment",
        "the TeamPlay-generated application performs similarly to the "
        "human-optimised version in both energy and time",
        [
            f"energy ratio (TeamPlay / manual): {comparison.energy_ratio:.3f}",
            f"time ratio   (TeamPlay / manual): {comparison.time_ratio:.3f}",
            f"deadline met: {comparison.report.deadlines_met}",
        ],
    )
    assert 0.8 <= comparison.energy_ratio <= 1.2
    assert 0.7 <= comparison.time_ratio <= 1.3
    assert comparison.report.deadlines_met


def test_e6_network_accuracy(benchmark):
    """The deployed detector actually detects free parking spots."""
    def evaluate():
        network = deep_learning.parking_network(training_scenes=30)
        dataset = deep_learning.ParkingDataset(spots=8, seed=123)
        return network.accuracy(dataset.batch(20))

    accuracy = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print_experiment(
        "E6 deep learning — functional check",
        "the CNN reports the number of free parking spots",
        [f"per-spot accuracy on held-out scenes: {accuracy * 100:.1f}%"],
    )
    assert accuracy >= 0.9
