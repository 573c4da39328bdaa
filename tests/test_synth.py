import numpy as np
import pytest

from evotraj.synth import (
    RegionSpec,
    SynthConfig,
    build_spectra,
    draw_mutation,
    generate,
    pick,
    plant_temporal_shift,
    spectrum_to_json,
    write_outputs,
)
from evotraj.tree import extract_all_trajectories, parse_tree, serialize_tree

SMALL = SynthConfig(depth=5, branching=(2, 3), branching_probs=(0.5, 0.5), seed=11)


@pytest.fixture(scope="module")
def small_output():
    return generate(SMALL)


class TestDeterminism:
    def test_same_seed_same_bytes(self, small_output):
        again = generate(SMALL)
        assert serialize_tree(again.tree) == serialize_tree(small_output.tree)
        assert spectrum_to_json(again.truth) == spectrum_to_json(small_output.truth)

    def test_different_seed_differs(self, small_output):
        other = generate(SynthConfig(depth=5, branching=(2, 3), branching_probs=(0.5, 0.5), seed=12))
        assert serialize_tree(other.tree) != serialize_tree(small_output.tree)

    def test_shift_beyond_span_is_identity(self, small_output):
        shifted = generate(plant_temporal_shift(SMALL, shift_month=99))
        assert serialize_tree(shifted.tree) == serialize_tree(small_output.tree)

    def test_same_shift_same_output(self):
        cfg = plant_temporal_shift(SMALL, shift_month=3)
        a, b = generate(cfg), generate(cfg)
        assert serialize_tree(a.tree) == serialize_tree(b.tree)


class TestTreeValidity:
    def test_passes_parser_invariants(self, small_output):
        text = serialize_tree(small_output.tree)
        reparsed = parse_tree(text.splitlines())
        assert len(reparsed) == len(small_output.tree)
        assert serialize_tree(reparsed) == text

    def test_leaves_carry_metadata(self, small_output):
        for leaf in small_output.tree.leaves():
            assert leaf.leaf_meta is not None
            assert leaf.leaf_meta.collected is not None and leaf.leaf_meta.collected.is_full
            assert leaf.leaf_meta.released is not None
            assert leaf.leaf_meta.country is not None
            assert len(leaf.branch_mutations) >= 1

    def test_some_variants_tagged(self, small_output):
        tagged = [n for n in small_output.tree.nodes.values() if n.variant_name]
        assert tagged
        names = [n.variant_name for n in tagged]
        assert len(names) == len(set(names))

    def test_trajectories_extractable(self, small_output):
        trajs = extract_all_trajectories(small_output.tree)
        assert len(trajs) == small_output.n_leaves
        deep = [t for t in trajs if t.variant_name != "root"]
        assert len(deep) > len(trajs) * 0.5


class TestDensities:
    def test_population_table_complete(self, small_output):
        for leaf in small_output.tree.leaves():
            assert leaf.leaf_meta.country in small_output.populations


class TestPick:
    class FixedRng:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    @pytest.mark.parametrize("u, index", [(0.0, 0), (0.25, 1), (0.4, 1), (0.5, 2), (0.9999, 2)])
    def test_first_cumulative_weight_above_the_uniform(self, u, index):
        assert pick([0.25, 0.5, 1.0], self.FixedRng(u)) == index

    def test_cdf_ending_below_one_clamps_to_the_last_index(self):
        # float sums can end just under 1; a uniform in that gap picks the last
        # category instead of indexing past it
        cdf = [0.3, 0.7, 1.0 - 1e-9]
        assert pick(cdf, self.FixedRng(1.0 - 1e-12)) == 2
        assert pick(cdf, self.FixedRng(0.7)) == 2


class TestSpectrum:
    def test_rows_are_distributions(self, small_output):
        for table in (small_output.truth.base, small_output.truth.alt):
            assert np.allclose(table.probs.sum(axis=1), 1.0)
            assert (table.probs > 0).all()

    def test_alt_table_shares_support_with_reversed_probs(self, small_output):
        base, alt = small_output.truth.base, small_output.truth.alt
        assert np.array_equal(base.sites, alt.sites)
        assert np.array_equal(base.states, alt.states)
        assert np.allclose(base.probs, alt.probs[:, ::-1])
        # total variation between the two conditionals is substantial
        tv = 0.5 * np.abs(base.probs - alt.probs).sum(axis=1)
        assert (tv > 0.3).all()

    def test_support_cells_unique_within_bucket(self, small_output):
        base = small_output.truth.base
        for b in range(SMALL.n_buckets):
            cells = {(int(s), int(st)) for s, st in zip(base.sites[b], base.states[b])}
            assert len(cells) == SMALL.support_per_bucket

    def test_supports_live_in_hopped_bucket(self, small_output):
        cfg = SMALL
        for b in range(cfg.n_buckets):
            target = (b + cfg.bucket_hop) % cfg.n_buckets
            for site in small_output.truth.base.sites[b]:
                assert cfg.bucket_of_site(int(site)) == target

    def test_draw_frequencies_match_probs_3sigma(self):
        truth = build_spectra(SMALL)
        rng = np.random.default_rng(5)
        n = 100_000
        counts = np.zeros(SMALL.support_per_bucket)
        for _ in range(n):
            mut, _ = draw_mutation(truth, 0, 0, rng)
            cell = list(
                zip(truth.base.sites[0].tolist(), truth.base.states[0].tolist())
            ).index((mut.site, "ATCG-".index(mut.to)))
            counts[cell] += 1
        freqs = counts / n
        probs = truth.base.probs[0]
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert (np.abs(freqs - probs) <= 3 * sigma + 1e-9).mean() > 0.97

    def test_chain_buckets_follow_hop(self):
        truth = build_spectra(SMALL)
        rng = np.random.default_rng(6)
        bucket = 0
        for _ in range(50):
            mut, bucket = draw_mutation(truth, bucket, 0, rng)
        # after 50 hops of 3 from 0 mod 10
        assert bucket == (50 * SMALL.bucket_hop) % SMALL.n_buckets


class TestTemporalShift:
    def test_halves_differ_after_shift(self):
        cfg = plant_temporal_shift(
            SynthConfig(depth=6, month_advance=0.9, seed=21), shift_month=3
        )
        out = generate(cfg)
        truth = out.truth
        k = cfg.support_per_bucket
        # cell index of each support pair, keyed by (site, state)
        cell_of = {}
        for b in range(cfg.n_buckets):
            for c in range(k):
                cell_of[(int(truth.base.sites[b, c]), int(truth.base.states[b, c]))] = c

        def cell_histogram(months):
            counts = np.zeros(k)
            for leaf in out.tree.leaves():
                m = leaf.leaf_meta.collected.month_index(cfg.start_year) - (cfg.start_month - 1)
                if m not in months:
                    continue
                for mut in leaf.branch_mutations:
                    cell = cell_of.get((mut.site, "ATCG-".index(mut.to)))
                    if cell is not None:
                        counts[cell] += 1
            return counts / counts.sum()

        early = cell_histogram(range(0, 3 + 1))
        late = cell_histogram(range(4, cfg.month_span))
        tv = 0.5 * np.abs(early - late).sum()
        assert tv > 0.3

    def test_alt_fraction_ramp(self):
        cfg = plant_temporal_shift(SynthConfig(), shift_month=4, ramp_months=4)
        assert cfg.alt_fraction(4) == 0.0
        assert cfg.alt_fraction(6) == pytest.approx(0.5)
        assert cfg.alt_fraction(8) == 1.0
        assert cfg.alt_fraction(99) == 1.0
        assert SynthConfig().alt_fraction(10) == 0.0


class TestOutputs:
    def test_write_outputs(self, tmp_path, small_output):
        paths = write_outputs(small_output, tmp_path / "synth")
        assert paths["tree"].exists()
        reparsed = parse_tree(paths["tree"])
        assert len(reparsed) == len(small_output.tree)
        assert "region_key,population" in paths["population"].read_text()
        # densities are aggregated from the tree by build-dataset, not written here
        assert sorted(paths) == ["population", "spectrum", "tree"]
        assert sorted(p.name for p in (tmp_path / "synth").iterdir()) == [
            "population.csv", "spectrum.json", "tree.jsonl"
        ]
        import json

        spec = json.loads(paths["spectrum"].read_text())
        assert spec["genome_length"] == SMALL.genome_length

    def test_config_validation(self):
        # 19 sites in 10 buckets: the last bucket's pool also covers sites 11-19
        cfg = SynthConfig(genome_length=19, support_per_bucket=4, depth=4, seed=3)
        out = generate(cfg)
        for table in (out.truth.base, out.truth.alt):
            assert 1 <= table.sites.min() and table.sites.max() <= 19
            # bucket 6 hops into the last bucket, sites 10-19
            assert table.sites[6].min() >= 10
        for node in out.tree.nodes.values():
            assert all(1 <= m.site <= 19 for m in node.branch_mutations)
        assert generate(SynthConfig(genome_length=1001, depth=3)).n_leaves > 0
        with pytest.raises(ValueError, match="at least n_buckets"):
            SynthConfig(genome_length=9)
        with pytest.raises(ValueError):
            SynthConfig(branching_probs=(0.5, 0.2, 0.1))

    def test_negative_branching_prob_refused(self):
        with pytest.raises(ValueError, match="branching_probs must not be negative"):
            SynthConfig(branching=(2, 3), branching_probs=(1.5, -0.5))

    @pytest.mark.parametrize("field, value, message", [
        ("private_mut_rate", -1.0, "private_mut_rate must not be negative"),
        ("internal_mut_rate", float("nan"), "internal_mut_rate must not be negative"),
        ("leaf_rate", -0.1, "leaf_rate must not be negative"),
        ("noise_rate", -1.0, "noise_rate must not be negative"),
        ("collection_lag_months", -1.0, "collection_lag_months must not be negative"),
        ("depth", -1, "depth must not be negative"),
        ("variant_prob", 2.0, r"variant_prob must be in \[0, 1\]"),
        ("month_advance", -0.5, r"month_advance must be in \[0, 1\]"),
    ])
    def test_rates_depth_and_probabilities_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**{field: value})
        SynthConfig(depth=0, variant_prob=1.0, month_advance=0.0, private_mut_rate=0.0)

    @pytest.mark.parametrize("weights", [(0.5, -0.1), (0.0, 0.0)], ids=["negative", "zero-sum"])
    def test_region_weights_refused(self, weights):
        regions = tuple(RegionSpec(name, 1.0, w) for name, w in zip("AB", weights))
        with pytest.raises(ValueError, match="region sample_weights"):
            SynthConfig(regions=regions)


class TestNoiseAndReplay:
    def test_zero_noise_means_every_private_mutation_is_spectrum_drawn(self, small_output):
        truth = small_output.truth
        support = set()
        for b in range(SMALL.n_buckets):
            support |= {
                (int(s), "ATCG-"[int(st)])
                for s, st in zip(truth.base.sites[b], truth.base.states[b])
            }
        for leaf in small_output.tree.leaves():
            for mut in leaf.branch_mutations:
                assert (mut.site, mut.to) in support

    def test_positive_noise_adds_off_support_mutations(self):
        cfg = SynthConfig(depth=5, branching=(2, 3), branching_probs=(0.5, 0.5),
                          noise_rate=1.5, seed=11)
        out = generate(cfg)
        support = set()
        for b in range(cfg.n_buckets):
            support |= {
                (int(s), "ATCG-"[int(st)])
                for s, st in zip(out.truth.base.sites[b], out.truth.base.states[b])
            }
        off = sum(
            (mut.site, mut.to) not in support
            for leaf in out.tree.leaves()
            for mut in leaf.branch_mutations
        )
        assert off > 0

    def test_trajectory_replay_matches_raw_path(self, small_output):
        from evotraj.tree import extract_all_trajectories

        def replay(mutations):
            return {m.site: m.to for m in mutations}

        tree = small_output.tree
        trajectories = extract_all_trajectories(tree)
        leaves = list(tree.leaves())
        assert len(trajectories) == len(leaves)
        for leaf, traj in zip(leaves, trajectories):
            assert traj.meta == leaf.leaf_meta
            raw = [m for node in tree.path_from_root(leaf.node_id) for m in node.branch_mutations]
            assert replay(traj.all_mutations) == replay(raw)
