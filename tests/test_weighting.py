import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from evotraj.tree import PartialDate, SequenceMeta, Trajectory
from evotraj.weighting import (
    DensityRecord,
    WeightConfig,
    aggregate_densities,
    density_key,
    representative_weight,
    sampling_probability,
    sequence_weights,
    temporal_adjust,
)

CFG = WeightConfig(t0_month=75)


def sample(country, date, region=None):
    return Trajectory(
        meta=SequenceMeta(
            name="s", collected=date and PartialDate.parse(date), country=country, region=region
        ),
        variant_name="root",
        variant_mutations=(),
        sequence_mutations=(),
    )


class TestRepresentativeWeight:
    def test_anchor_points(self):
        assert representative_weight(0.05) == pytest.approx(1_000_000)
        assert representative_weight(10) == pytest.approx(100_000)
        assert representative_weight(20_000) == pytest.approx(100)
        assert representative_weight(100) == pytest.approx(10_000)

    def test_continuity_at_thresholds(self):
        cfg = WeightConfig()
        for edge in (cfg.d0, cfg.d1, cfg.d2):
            below = representative_weight(edge * (1 - 1e-12), cfg)
            at = representative_weight(edge, cfg)
            above = representative_weight(edge * (1 + 1e-12), cfg)
            assert abs(below - at) / at < 1e-9
            assert abs(above - at) / at < 1e-9

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
    def test_monotone_non_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert representative_weight(lo) >= representative_weight(hi)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            representative_weight(-1)

    def test_bounds(self):
        for d in (0.0, 0.01, 1, 50, 1e5, 1e9):
            assert 100 <= representative_weight(d) <= 1_000_000


class TestSamplingProbability:
    def test_floor_value_exact(self):
        assert sampling_probability(100) == pytest.approx(0.1, abs=0)

    def test_cap_value(self):
        assert sampling_probability(1_000_000) == pytest.approx((math.log(1e4) + 1) / 10)

    def test_unit_m(self):
        assert sampling_probability(100, WeightConfig(m=1)) == pytest.approx(1.0)

    @given(st.floats(min_value=100, max_value=1e6), st.floats(min_value=1.0001, max_value=10))
    def test_strictly_increasing(self, r, factor):
        assert sampling_probability(r * factor) > sampling_probability(r)

    def test_rejects_nonpositive_probability_inputs(self):
        with pytest.raises(ValueError):
            sampling_probability(100 / math.e - 1e-9)


class TestTemporalAdjust:
    def test_one_month_age_is_identity(self):
        assert temporal_adjust(0.4, 74, CFG) == pytest.approx(0.4)

    def test_lambda_zero_is_identity(self):
        cfg = WeightConfig(lam=0.0, t0_month=75)
        for month in (1, 30, 74):
            assert temporal_adjust(0.7, month, cfg) == 0.7

    def test_32_months_with_default_lambda(self):
        # 32^0.1 = 2^0.5
        assert temporal_adjust(1.0, 75 - 32, CFG) == pytest.approx(math.sqrt(2))

    def test_sample_at_or_after_cutoff_rejected(self):
        with pytest.raises(ValueError, match="not before cutoff"):
            temporal_adjust(0.5, 75, CFG)
        with pytest.raises(ValueError, match="not before cutoff"):
            temporal_adjust(0.5, 80, CFG)

    def test_negative_lambda_prioritizes_recent(self):
        cfg = WeightConfig(lam=-0.1, t0_month=75)
        recent = temporal_adjust(1.0, 74, cfg)
        old = temporal_adjust(1.0, 40, cfg)
        assert recent > old

    def test_positive_lambda_upweights_older_as_written(self):
        recent = temporal_adjust(1.0, 74, CFG)
        old = temporal_adjust(1.0, 40, CFG)
        assert old > recent


class TestSequenceWeights:
    # one sample in a month among 100,000 people is density 10: r = 1e5
    POP = {"X": 1e5}

    def test_combined(self):
        [w], _ = sequence_weights([sample("X", "2025-03-09")], self.POP, CFG)
        assert (w.region_key, w.month) == ("X", 74)
        assert w.r == pytest.approx(100_000)
        assert w.p == pytest.approx((math.log(1000) + 1) / 10)
        assert w.p_adjusted == pytest.approx(w.p)

    def test_temporal_disabled(self):
        cfg = replace(CFG, temporal_weighting=False)
        [w], _ = sequence_weights([sample("X", "2022-05-01")], self.POP, cfg)
        assert w.month == 40
        assert w.p_adjusted == w.p

    def test_equals_explicit_composition(self):
        cfg = WeightConfig(lam=-0.3, t0_month=75)
        trajs = [
            sample("X", "2025-03-09"),
            sample("X", "2025-03-20"),
            sample("X", "2023-11-02"),
            sample("Y", "2024-01-30"),
            sample("China", "2024-06-01", region="Sichuan"),
        ]
        pops = {"X": 1e5, "Y": 3e7, "China/Sichuan": 8e7}
        weights, densities = sequence_weights(trajs, pops, cfg)
        assert densities == aggregate_densities(trajs, pops, cfg)
        for traj, w in zip(trajs, weights):
            month = traj.meta.collected.month_index(2019)
            key = density_key(traj.meta.country, traj.meta.region, cfg)
            r = representative_weight(densities[(key, month)].density, cfg)
            p = sampling_probability(r, cfg)
            assert (w.region_key, w.month) == (key, month)
            assert (w.r, w.p, w.p_adjusted) == (r, p, temporal_adjust(p, month, cfg))

    def test_cutoff_month_or_later_clamps_to_age_one(self):
        cfg = WeightConfig(lam=-0.5, t0_month=75)
        trajs = [sample("X", d) for d in ("2025-02-28", "2025-04-01", "2025-09-15")]
        weights, _ = sequence_weights(trajs, self.POP, cfg)
        assert [w.month for w in weights] == [73, 75, 80]
        assert weights[0].p_adjusted == temporal_adjust(weights[0].p, 73, cfg) != weights[0].p
        for w in weights[1:]:
            assert w.p_adjusted == temporal_adjust(w.p, 74, cfg) == w.p

    def test_representative_disabled_gives_r0(self):
        cfg = replace(CFG, representative_weighting=False)
        weights, _ = sequence_weights(
            [sample("X", "2025-03-09"), sample("Y", "2023-01-01")], self.POP, cfg
        )
        for w in weights:
            assert w.r == cfg.r0
            assert w.p == sampling_probability(cfg.r0, cfg)
            assert w.p_adjusted == temporal_adjust(w.p, w.month, cfg)

    def test_no_collection_month_gets_r0_without_adjustment(self):
        cfg = WeightConfig(lam=-0.5, t0_month=75)
        for date in ("2024", None):
            [w], densities = sequence_weights([sample("X", date)], self.POP, cfg)
            assert densities == {}
            assert (w.region_key, w.month) == ("X", None)
            assert w.r == cfg.r0
            assert w.p_adjusted == w.p == sampling_probability(cfg.r0, cfg)


class TestDensities:
    def test_density_units(self):
        rec = DensityRecord("Germany", 10, n=84, population=84_000_000)
        assert rec.density == pytest.approx(1.0)

    def test_subnational_key(self):
        cfg = WeightConfig()
        assert density_key("Germany", "Bavaria", cfg) == "Germany"
        assert density_key("China", "Sichuan", cfg) == "China/Sichuan"
        assert density_key("India", None, cfg) == "India"
        assert density_key(None, None, cfg) == "unknown"

    def test_aggregate(self):
        def traj(country, region, date):
            return Trajectory(
                meta=SequenceMeta(
                    name="s", collected=PartialDate.parse(date), country=country, region=region
                ),
                variant_name="root",
                variant_mutations=(),
                sequence_mutations=(),
            )

        trajs = [
            traj("Germany", None, "2025-03-01"),
            traj("Germany", "Bavaria", "2025-03-15"),
            traj("Germany", None, "2025-04-01"),
            traj("United States", "California", "2025-03-02"),
        ]
        pops = {"Germany": 84e6, "United States/California": 39e6}
        recs = aggregate_densities(trajs, pops, WeightConfig())
        month_march = PartialDate(2025, 3).month_index(2019)
        assert recs[("Germany", month_march)].n == 2
        assert recs[("Germany", month_march + 1)].n == 1
        assert recs[("United States/California", month_march)].population == 39e6

    def test_partial_dates_skipped(self):
        t = Trajectory(
            meta=SequenceMeta(name="s", collected=PartialDate(2025), country="X"),
            variant_name="root",
            variant_mutations=(),
            sequence_mutations=(),
        )
        assert aggregate_densities([t], {}, WeightConfig()) == {}


class TestConfigValidation:
    def test_threshold_order(self):
        with pytest.raises(ValueError):
            WeightConfig(d0=10, d1=1)

    def test_positive_m(self):
        with pytest.raises(ValueError):
            WeightConfig(m=0)
