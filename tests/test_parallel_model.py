"""Tests for the multi-core CPU parallel-time model (Figure 12 machinery)."""

import pytest

from repro.optimizers import DPCcp, DPE, DPSize, MPDP
from repro.parallel import CPUCostConstants, ParallelCPUModel, speedup_curve
from repro.workloads import musicbrainz_query, star_query


@pytest.fixture(scope="module")
def query():
    return musicbrainz_query(12, seed=6)


@pytest.fixture(scope="module")
def mpdp_stats(query):
    return MPDP().optimize(query).stats


@pytest.fixture(scope="module")
def dpe_stats(query):
    return DPE().optimize(query).stats


class TestEffectiveThreads:
    def test_monotone_nondecreasing(self):
        model = ParallelCPUModel()
        values = [model.effective_threads(t) for t in range(1, 33)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_linear_until_saturation(self):
        model = ParallelCPUModel(cache_saturation_threads=6)
        for threads in range(1, 7):
            assert model.effective_threads(threads) == threads

    def test_sublinear_beyond_saturation(self):
        model = ParallelCPUModel(cache_saturation_threads=6, contention_factor=0.05)
        assert model.effective_threads(24) < 24
        assert model.effective_threads(24) > 6

    def test_positive_threads_required(self):
        with pytest.raises(ValueError):
            ParallelCPUModel().effective_threads(0)


class TestSimulatedTimes:
    def test_more_threads_never_slower(self, mpdp_stats):
        model = ParallelCPUModel()
        times = [model.simulate(mpdp_stats, t, "MPDP") for t in (1, 2, 4, 8, 16, 24)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(times, times[1:]))

    def test_speedup_bounded_by_thread_count(self, mpdp_stats):
        model = ParallelCPUModel()
        curve = speedup_curve(model, mpdp_stats, "MPDP", range(1, 25))
        for threads, speedup in curve.items():
            assert 0 < speedup <= threads + 1e-9

    def test_mpdp_scales_better_than_dpe(self, mpdp_stats, dpe_stats):
        """Figure 12: MPDP's enumeration parallelises, DPE's does not."""
        model = ParallelCPUModel()
        mpdp_speedup = speedup_curve(model, mpdp_stats, "MPDP", [24])[24]
        dpe_speedup = speedup_curve(model, dpe_stats, "DPE", [24])[24]
        assert mpdp_speedup > dpe_speedup

    def test_dpe_speedup_saturates(self, dpe_stats):
        model = ParallelCPUModel()
        curve = speedup_curve(model, dpe_stats, "DPE", [4, 8, 16, 24])
        # Once the sequential producer dominates, more consumers change little.
        assert curve[24] - curve[16] < 0.5

    def test_single_thread_is_baseline(self, mpdp_stats):
        model = ParallelCPUModel()
        assert speedup_curve(model, mpdp_stats, "MPDP", [1])[1] == pytest.approx(1.0)

    def test_sequential_time_positive(self, mpdp_stats):
        assert ParallelCPUModel().sequential_time(mpdp_stats) > 0

    def test_dpsize_pays_for_wasted_pairs(self):
        query = star_query(9, seed=3)
        model = ParallelCPUModel()
        dpsize_time = model.simulate(DPSize().optimize(query).stats, 24, "DPsize")
        mpdp_time = model.simulate(MPDP().optimize(query).stats, 24, "MPDP")
        assert mpdp_time < dpsize_time

    def test_custom_constants_change_absolute_times(self, mpdp_stats):
        fast = ParallelCPUModel(constants=CPUCostConstants(cost_seconds=50e-9))
        slow = ParallelCPUModel(constants=CPUCostConstants(cost_seconds=500e-9))
        assert fast.simulate(mpdp_stats, 8, "MPDP") < slow.simulate(mpdp_stats, 8, "MPDP")

    def test_dpccp_routes_to_producer_consumer(self, query):
        stats = DPCcp().optimize(query).stats
        model = ParallelCPUModel()
        assert model.simulate(stats, 8, "DPccp") == pytest.approx(
            model.producer_consumer_time(stats, 8))


class TestSpeedupCurveDispatch:
    def test_explicit_style_needs_no_registry_entry(self, mpdp_stats):
        """An unregistered name with an explicit style must not raise — the
        style is forwarded to every curve point instead of being re-resolved
        through the registry per point."""
        model = ParallelCPUModel()
        curve = speedup_curve(model, mpdp_stats, "MyCustomOptimizer",
                              [1, 8, 24], execution_style="level_parallel")
        assert curve[1] == pytest.approx(1.0)
        assert curve[24] > curve[8] > curve[1] - 1e-9

    def test_explicit_style_overrides_name(self, dpe_stats):
        model = ParallelCPUModel()
        as_producer = speedup_curve(model, dpe_stats, "DPE", [24])[24]
        forced = speedup_curve(model, dpe_stats, thread_counts=[24],
                               execution_style="producer_consumer")[24]
        assert forced == pytest.approx(as_producer)

    def test_unregistered_name_raises(self, mpdp_stats):
        model = ParallelCPUModel()
        with pytest.raises(ValueError, match="not in the optimizer registry"):
            speedup_curve(model, mpdp_stats, "NotRegisteredDP",
                          [1, 4, 8, 16, 24])

    def test_requires_name_or_style(self, mpdp_stats):
        with pytest.raises(ValueError):
            speedup_curve(ParallelCPUModel(), mpdp_stats, thread_counts=[1])
