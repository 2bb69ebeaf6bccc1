import numpy as np
import pytest

from parcoil import (
    PararealReport,
    cumulative_fine_times,
    load_balance,
    max_possible_speedup,
    speedup,
)


def synthetic_report(time_f, total_wall=10.0):
    k = len(time_f)
    n = len(time_f[0]) if time_f else 0
    return PararealReport(
        n_windows=n,
        m_coarse_steps=4 * n,
        boundaries=np.linspace(0.0, 1.0, n + 1),
        converged=True,
        k_converged=k,
        err_per_iter=[1e-3] * k,
        time_ghat=0.5,
        time_g_per_window_per_iter=[[0.0] * n for _ in range(k)],
        time_f_per_window_per_iter=time_f,
        total_wall=total_wall,
        nr_ghat=10,
        nr_g_per_window_per_iter=[[0] * n for _ in range(k)],
        nr_f_per_window_per_iter=[[1] * n for _ in range(k)],
    )


class TestLoadBalance:
    def test_ratio(self):
        assert load_balance([1.0, 2.0, 4.0]) == 0.25

    def test_perfect_balance(self):
        assert load_balance([3.0, 3.0, 3.0]) == 1.0

    def test_single_window(self):
        assert load_balance([5.0]) == 1.0

    def test_empty_is_hard_error(self):
        with pytest.raises(ValueError):
            load_balance([])

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            values = rng.uniform(0.1, 10.0, size=rng.integers(1, 12))
            ratio = load_balance(values)
            assert 0.0 < ratio <= 1.0
            assert (ratio == 1.0) == bool(np.all(values == values[0]))


class TestSpeedup:
    def test_ratio(self):
        report = synthetic_report([[1.0, 2.0]], total_wall=50.0)
        assert speedup(report, 100.0) == 2.0

    def test_equal_times(self):
        report = synthetic_report([[1.0]], total_wall=42.0)
        assert speedup(report, 42.0) == 1.0

    def test_definitional_round_trip(self):
        report = synthetic_report([[1.0]], total_wall=7.25)
        seq = 29.0
        assert speedup(report, seq) * report.total_wall == seq


class TestMaxPossibleSpeedup:
    def test_table_entries(self):
        assert max_possible_speedup(16, 2) == 8.0
        assert max_possible_speedup(8, 2) == 4.0

    def test_no_parallel_gain(self):
        assert max_possible_speedup(6, 6) == 1.0

    def test_exact_ratio_not_rounded(self):
        assert max_possible_speedup(24, 5) == 4.8


class TestFineTimeStats:
    def test_cumulative_then_min_avg_max(self):
        report = synthetic_report([[1.0, 2.0], [3.0, 4.0]])
        assert cumulative_fine_times(report) == [4.0, 6.0]

    def test_single_window(self):
        report = synthetic_report([[2.0], [3.0]])
        assert cumulative_fine_times(report) == [5.0]

    def test_empty_report_is_hard_error(self):
        report = synthetic_report([])
        with pytest.raises(ValueError):
            cumulative_fine_times(report)
