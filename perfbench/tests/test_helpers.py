"""Self-tests of the benchmark's helpers.

Run from the repository root: ``python -m pytest -q perfbench/tests``.
"""

import random

import pytest

from perfbench import programs
from perfbench.stats import (
    block_percentile,
    percentile,
    require_percentile,
    self_times,
    tail_percentile,
    valid_name,
    window_rate,
)


class TestTailPercentile:
    @pytest.mark.parametrize(
        "samples, expected",
        [
            (9, None),
            (19, None),
            (20, 50.0),
            (39, 50.0),
            (40, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 95.0),
            (999, 95.0),
            (1000, 99.0),
            (9999, 99.0),
            (10000, 99.9),
        ],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, samples, expected):
        assert tail_percentile(samples) == expected

    def test_p99_refused_below_a_thousand_samples(self):
        with pytest.raises(ValueError, match="1000 samples"):
            require_percentile([1.0] * 999, 99)
        assert require_percentile(list(range(1, 1001)), 99) == 990

    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 1) == 1.0


class TestBlocksAndWindows:
    def test_one_noisy_block_moves_the_p99_by_one_rank(self):
        quiet = [1.0] * 1000
        noisy = [1.0] * 960 + [50.0] * 40
        values = quiet + noisy + quiet
        assert percentile(values, 99) == 50.0
        assert block_percentile(values, 99, 1000) == 1.0
        assert block_percentile(noisy, 99, 1000) == 50.0

    def test_remainder_joins_the_last_block(self):
        with pytest.raises(ValueError):
            block_percentile([1.0] * 999, 99, 1000)
        assert block_percentile([1.0] * 1999, 99, 1000) == 1.0

    def test_window_rate_ignores_gaps_between_segments(self):
        # two stretches of 4 events, one per 0.5 s, with a long gap between
        segments = [(1.0, [0.0, 0.5, 1.0, 1.5, 2.0]),
                    (1.0, [100.0, 100.5, 101.0, 101.5, 102.0])]
        assert window_rate(segments, 2) == 2.0

    def test_window_rate_scales_by_machine_speed(self):
        # the same work seen on a machine running twice as fast
        slow = [(1.0, [0.0, 1.0, 2.0])]
        fast = [(2.0, [0.0, 0.5, 1.0])]
        assert window_rate(slow, 2) == window_rate(fast, 2) == 1.0

    def test_window_rate_needs_a_full_window(self):
        with pytest.raises(ValueError):
            window_rate([(1.0, [0.0, 1.0])], 2)


class TestSelfTimes:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([(1, None, 0, 10)]) == {1: 10}

    def test_children_are_subtracted(self):
        spans = [(1, None, 0, 100), (2, 1, 10, 30), (3, 1, 50, 60)]
        assert self_times(spans)[1] == 100 - 20 - 10

    def test_overlapping_children_count_once(self):
        # two concurrent child tasks covering 10..40 together
        spans = [(1, None, 0, 50), (2, 1, 10, 30), (3, 1, 20, 40)]
        assert self_times(spans)[1] == 50 - 30

    def test_child_outliving_parent_is_clipped(self):
        spans = [(1, None, 0, 20), (2, 1, 10, 35)]
        assert self_times(spans) == {1: 10, 2: 25}

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [(1, None, 0, 100), (2, 1, 0, 50), (3, 2, 0, 20)]
        assert self_times(spans) == {1: 50, 2: 30, 3: 20}


class TestMetricNames:
    @pytest.mark.parametrize(
        "name",
        ["setup_s", "pause_p99_ms", "tracestore.at_ms_p50", "a-b.c_d", "9x", "x" * 64],
    )
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize(
        "name", ["", "_lead", ".lead", "has space", "slash/x", "ünï", "x" * 65, "a:b"]
    )
    def test_invalid(self, name):
        assert not valid_name(name)


class TestPrograms:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permutation_has_the_requested_inversions(self, seed):
        program = programs.sort_search_program(random.Random(seed), 20, 6, 57)
        assert program.expect["sorted"] == sorted(program.expect["sorted"])
        assert len(program.expect["keys"]) == 19

    def test_same_seed_same_program(self):
        first = programs.hot_loop_program(random.Random(7))
        second = programs.hot_loop_program(random.Random(7))
        assert first.source == second.source
        assert first.expect == second.expect
