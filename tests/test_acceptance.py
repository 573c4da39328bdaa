"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
build synthetic datasets and train desk-scale models; the whole module runs
in well under the per-criterion budgets on a desktop CPU.
"""

import datetime
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from evotraj.baseline import BloomRecord, BloomTable, mixed_score, rank_nt_table
from evotraj.evaluation import ModelPredictor, StaticPredictor
from evotraj.genome import (
    BASES,
    GENETIC_CODE,
    NT_STATES,
    AaMutation,
    NtMutation,
    SpikeMap,
    load_annotation,
    reachable_aa_mutations,
    translate_codon,
)
from evotraj.model import ModelConfig, TrainConfig, Transformer, train, trajectory_loss
from evotraj.model.nn import CausalSelfAttention, rope_angles, rope_rotate
from evotraj.sampler import WorkerState, run_epoch
from evotraj.synth import SynthConfig, generate, plant_temporal_shift
from evotraj.tokenizer import LayoutSpec, Tokenizer
from evotraj.tree import PartialDate, SequenceMeta, Trajectory, extract_all_trajectories, split_train_eval
from evotraj.variants import VariantDefinition, order_recombinant, resolve_disagreement
from evotraj.weighting import (
    WeightConfig,
    representative_weight,
    sampling_probability,
    sequence_weights,
    temporal_adjust,
)
from random_baseline import RandomPredictor, nucleotide_candidate_count
from test_evaluation import scored
from test_model import every_row


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d}: FAIL - {label} ({time.time() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number:02d}: PASS - {label} ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------- shared runs


def make_plans(probs, n_needed, seed):
    plan = []
    epoch = 0
    while len(plan) < n_needed:
        plan.extend(run_epoch(probs, seed=seed + epoch).flatten())
        epoch += 1
    return plan


DESK_TRAIN = dict(batch_size=32, lr_start=3e-3, lr_end=3e-4)


@dataclass
class TrainedRun:
    tokenizer: Tokenizer
    model: Transformer
    train_trajs: list
    eval_trajs: list
    eval_samples: list
    final_loss: float
    n_leaves: int


def run_experiment(
    synth_config: SynthConfig,
    train_cutoff: datetime.date,
    eval_cutoff: datetime.date,
    steps: int,
    weight_probs_fn,
    train_seed: int = 5,
    max_eval: int = 2000,
) -> TrainedRun:
    out = generate(synth_config)
    n_leaves = out.n_leaves
    trajs = extract_all_trajectories(out.tree)
    split = split_train_eval(trajs, train_cutoff, eval_cutoff)
    tok = Tokenizer(LayoutSpec(genome_length=synth_config.genome_length))
    for t in split.train:
        if t.meta.country:
            tok.register_location(t.meta.country)
    train_samples = [tok.tokenize(t) for t in split.train]
    probs = weight_probs_fn(split.train, out)
    plan = make_plans(probs, steps * DESK_TRAIN["batch_size"], seed=1000 + train_seed)
    mcfg = ModelConfig(vocab_size=tok.vocab_size, layers=2, hidden=64, heads=4, max_seq=256)
    tcfg = TrainConfig(steps=steps, seed=train_seed, **DESK_TRAIN)
    state = train(train_samples, plan, mcfg, tcfg)
    rng = np.random.default_rng(9)
    eval_trajs = list(split.eval)
    if len(eval_trajs) > max_eval:
        idx = rng.choice(len(eval_trajs), size=max_eval, replace=False)
        eval_trajs = [eval_trajs[i] for i in sorted(idx)]
    eval_samples = [tok.tokenize(t) for t in eval_trajs]
    return TrainedRun(tok, state.model, split.train, eval_trajs, eval_samples,
                      state.final_loss, n_leaves)


SYNTH_FAMILY = dict(
    genome_length=500,
    month_advance=0.4,
    collection_lag_months=1.0,
    variant_prob=0.6,
    private_mut_rate=2.0,
)


def full_weighting_probs(wcfg: WeightConfig, base_year=2019):
    """Representative + temporal weighting over the training split."""

    def fn(train_trajs, out):
        weights, _ = sequence_weights(train_trajs, out.populations, wcfg, base_year)
        return [w.p_adjusted for w in weights]

    return fn


@pytest.fixture(scope="module")
def learnability_run():
    # stationary spectrum, >= 5e4 leaves, full weighting pipeline
    cfg = SynthConfig(depth=10, seed=606, **SYNTH_FAMILY)
    cutoff = datetime.date(2024, 7, 15)
    t0 = (cutoff.year - 2019) * 12 + cutoff.month - 1
    wcfg = WeightConfig(lam=-0.1, t0_month=t0)
    return run_experiment(
        cfg, cutoff, datetime.date(2024, 12, 31), steps=500,
        weight_probs_fn=full_weighting_probs(wcfg), max_eval=600,
    )


@pytest.fixture(scope="module")
def ablation_runs():
    # spectrum drifts into the eval window; train once unweighted, once
    # temporally weighted toward recent samples
    cfg = plant_temporal_shift(
        SynthConfig(depth=9, seed=77, **SYNTH_FAMILY), shift_month=5, ramp_months=3
    )
    cutoff = datetime.date(2024, 8, 15)
    t0 = (cutoff.year - 2019) * 12 + cutoff.month - 1
    wcfg = WeightConfig(lam=-2.0, t0_month=t0)

    def uniform(train_trajs, out):
        return [0.5] * len(train_trajs)

    def temporal(train_trajs, out):
        return [
            temporal_adjust(0.5, min(t.meta.collected.month_index(2019), t0 - 1), wcfg)
            for t in train_trajs
        ]

    eval_cut = datetime.date(2025, 1, 31)
    nw = run_experiment(cfg, cutoff, eval_cut, steps=450, weight_probs_fn=uniform)
    tw = run_experiment(cfg, cutoff, eval_cut, steps=450, weight_probs_fn=temporal)
    return nw, tw


@pytest.fixture(scope="module")
def decay_run():
    # training months are purely pre-shift; drift ramps over the eval months
    cfg = plant_temporal_shift(
        SynthConfig(depth=9, seed=88, **SYNTH_FAMILY), shift_month=7, ramp_months=6
    )
    cutoff = datetime.date(2024, 8, 15)

    def uniform(train_trajs, out):
        return [0.5] * len(train_trajs)

    return run_experiment(
        cfg, cutoff, datetime.date(2025, 1, 31), steps=450, weight_probs_fn=uniform
    )


def month_slices(run: TrainedRun, k: int, min_sequences: int):
    predictor = ModelPredictor(run.model, run.tokenizer)
    result = scored(run.eval_trajs, run.eval_samples, predictor, ks=(k,), tokenizer=run.tokenizer)
    pooled = next(r for r in result.reports if r.slice_label == "all")
    months = [
        (int(r.slice_label.split("=")[1]), r.macro_recall, r.n_sequences)
        for r in result.reports
        if r.slice_label.startswith("month=") and r.n_sequences >= min_sequences
    ]
    return pooled, sorted(months)


# ------------------------------------------------------------------ criteria


class TestCriterion1Tokenizer:
    def test_totals_and_roundtrip(self):
        with criterion(1, "tokenizer totals and round-trip identity"):
            tok = Tokenizer()
            assert tok.vocab_size == 150_210
            assert tok.mutation_block == (0, 149_515)
            assert tok.location_block[1] - tok.location_block[0] == 366
            assert tok.day_block[1] - tok.year_block[0] == 122
            assert tok.reserved_block[1] - tok.reserved_block[0] == 206

            for name in ("CountryA", "CountryB", "RegionA"):
                tok.register_location(name)
            rng = np.random.default_rng(42)
            countries = [None, "CountryA", "CountryB"]
            regions = [None, "RegionA"]
            start = time.time()
            for _ in range(10_000):
                n_var = int(rng.integers(0, 6))
                n_priv = int(rng.integers(0, 6))
                muts = [
                    NtMutation(int(rng.integers(1, 29_904)), NT_STATES[int(rng.integers(0, 5))])
                    for _ in range(n_var + n_priv)
                ]
                date = None
                if rng.random() < 0.9:
                    y = int(rng.integers(2019, 2026))
                    month = int(rng.integers(1, 13)) if rng.random() < 0.9 else None
                    day = int(rng.integers(1, 29)) if month and rng.random() < 0.9 else None
                    date = PartialDate(y, month, day)
                traj = Trajectory(
                    meta=SequenceMeta(
                        name="s",
                        collected=date,
                        country=countries[int(rng.integers(0, 3))],
                        region=regions[int(rng.integers(0, 2))],
                    ),
                    variant_name="V",
                    variant_mutations=tuple(muts[:n_var]),
                    sequence_mutations=tuple(muts[n_var:]),
                )
                out = tok.detokenize(tok.tokenize(traj))
                assert out.variant_mutations == traj.variant_mutations
                assert out.sequence_mutations == traj.sequence_mutations
                assert out.country == traj.meta.country
                assert out.region == traj.meta.region
                assert out.date == date
            assert time.time() - start < 60


class TestCriterion2RepresentativeWeight:
    def test_anchors_and_continuity(self):
        with criterion(2, "representative-weight anchors and continuity"):
            assert representative_weight(0.05) == pytest.approx(1_000_000)
            assert representative_weight(10) == pytest.approx(100_000)
            assert representative_weight(20_000) == pytest.approx(100)
            cfg = WeightConfig()
            for edge in (cfg.d0, cfg.d1, cfg.d2):
                at = representative_weight(edge, cfg)
                for side in (1 - 1e-12, 1 + 1e-12):
                    near = representative_weight(edge * side, cfg)
                    assert abs(near - at) / at < 1e-9


class TestCriterion3SamplingProbability:
    def test_floor_and_monotonicity(self):
        with criterion(3, "sampling probability floor and monotonicity"):
            assert sampling_probability(100) == 0.1
            rs = np.linspace(100, 1_000_000, 5001)
            ps = [sampling_probability(float(r)) for r in rs]
            assert all(b > a for a, b in zip(ps, ps[1:]))


class TestCriterion4Sampler:
    def test_accumulator_identity_and_expectation(self):
        with criterion(4, "sampler accumulator identity and expectation"):
            rng = np.random.default_rng(7)
            for _ in range(1000):
                stream = rng.uniform(0.01, 3.0, size=rng.integers(1, 120))
                state = WorkerState(0)
                total = sum(state.encounter(float(p)) for p in stream)
                assert total == math.floor(state.accumulator)
            n = 100_000
            for p in (0.25, 0.9, 1.6):
                phases = rng.uniform(0, 1, size=n)
                copies = np.floor(phases + p) - np.floor(phases)
                sigma = copies.std(ddof=1) / math.sqrt(n)
                assert abs(copies.mean() - p) <= 3 * max(sigma, 1e-12)


class TestCriterion5ModelNumerics:
    def test_gradients_causality_softmax_rope(self):
        with criterion(5, "model numerics: gradients, causality, softmax, rotary"):
            vocab = 97
            model = Transformer(
                ModelConfig(vocab_size=vocab, layers=2, hidden=64, heads=4, max_seq=64),
                seed=11,
            )
            rng = np.random.default_rng(12)
            inputs = rng.integers(0, vocab, size=(2, 10))
            targets = rng.integers(0, vocab, size=(2, 10))
            mask = rng.random((2, 10)) < 0.6
            mask[0, 0] = True

            # the loss hands the head's gradient on block by block
            head_grad = np.zeros(model.head.weight.value.shape)

            def update(lo, grad):
                head_grad[:, lo : lo + grad.shape[1]] = grad

            res = trajectory_loss(model, inputs, targets, mask, update)
            model.backward(res.grad_hidden)

            def loss_fn():
                return trajectory_loss(model, inputs, targets, mask).loss

            touched = np.unique(inputs)
            for name, p in model.parameters().items():
                grad = head_grad if name == "head.weight" else p.grad
                if p.rows is not None:
                    # a row-wise gradient holds its rows only; the rest are zero
                    grad = np.zeros(p.value.shape)
                    grad[p.rows] = p.grad
                flat, gflat = p.value.reshape(-1), grad.reshape(-1)
                if name == "embed.weight":
                    cols = p.value.shape[1]
                    idxs = [r * cols + int(rng.integers(0, cols)) for r in touched[:5]]
                else:
                    idxs = rng.choice(flat.size, size=min(5, flat.size), replace=False)
                for i in idxs:
                    h = 1e-5 * max(1.0, abs(flat[i]))
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_fn()
                    flat[i] = orig - h
                    down = loss_fn()
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                    assert rel < 1e-4, f"{name}[{i}]"

            # causal exactness
            ids = rng.integers(0, vocab, size=(1, 16))
            base = every_row(model.logits, ids)
            for j in (0, 7, 15):
                perturbed = ids.copy()
                perturbed[0, j] = (perturbed[0, j] + 1) % vocab
                out = every_row(model.logits, perturbed)
                assert np.array_equal(base[:, :j], out[:, :j])

            # softmax normalization
            probs = every_row(model.forward, ids)
            assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-6

            # rotary common-offset invariance
            attn = CausalSelfAttention(32, 4, np.random.default_rng(3))
            x = np.random.default_rng(4).normal(size=(1, 12, 32))
            a = attn.forward(x, positions=np.arange(12))
            b = attn.forward(x, positions=np.arange(12) + 100)
            assert np.abs(a - b).max() < 1e-6


class TestCriterion6Learnability:
    def test_model_beats_random_and_count_table(self, learnability_run):
        with criterion(6, "end-to-end learnability vs random and count table"):
            run = learnability_run
            assert run.n_leaves >= 50_000

            predictor = ModelPredictor(run.model, run.tokenizer)
            result = scored(run.eval_trajs, run.eval_samples, predictor, ks=(10,), tokenizer=run.tokenizer)
            model_recall = next(r.macro_recall for r in result.reports if r.slice_label == "all")

            counts = Counter()
            for t in run.train_trajs:
                for m in t.sequence_mutations:
                    counts[run.tokenizer.mutation_token(m.site, m.to)] += 1
            count_predictor = StaticPredictor([t for t, _ in counts.most_common(10)])
            count_result = scored(
                run.eval_trajs, run.eval_samples, count_predictor, ks=(10,), tokenizer=run.tokenizer
            )
            count_recall = next(
                r.macro_recall for r in count_result.reports if r.slice_label == "all"
            )

            random_recall = 10 / nucleotide_candidate_count(500)
            print(
                f"\n  model@10={model_recall:.3f} count@10={count_recall:.3f} "
                f"random@10={random_recall:.4f} (train n={len(run.train_trajs)})"
            )
            assert model_recall >= 10 * random_recall
            assert model_recall > count_recall

    def test_planted_next_mutation_ranks_in_top_10(self, learnability_run):
        # for a context ending on a known spectrum cell, the planted
        # highest-probability next mutation should appear in the top 10
        from evotraj.model import rank_next_mutations
        from evotraj.synth import SynthConfig, build_spectra

        run = learnability_run
        truth = build_spectra(SynthConfig(depth=10, seed=606, **SYNTH_FAMILY))
        tok = run.tokenizer
        hits = 0
        for bucket in range(truth.config.n_buckets):
            context_mut = truth.base.cell_mutation(bucket, 0)
            target_bucket = truth.config.bucket_of_site(context_mut.site)
            top_next = truth.base.cell_mutation(target_bucket, 0)
            context = [tok.unknown_token] * 5 + [
                tok.mutation_token(context_mut.site, context_mut.to)
            ]
            pred = rank_next_mutations(run.model, tok, context, k=10)
            hits += tok.mutation_token(top_next.site, top_next.to) in pred.tokens
        assert hits >= 8


class TestCriterion7WeightingAblation:
    def test_temporal_weighting_helps_post_shift(self, ablation_runs):
        with criterion(7, "temporally weighted model >= unweighted on post-shift slices"):
            nw, tw = ablation_runs
            nw_pooled, nw_months = month_slices(nw, k=10, min_sequences=50)
            tw_pooled, tw_months = month_slices(tw, k=10, min_sequences=50)
            print(f"\n  unweighted pooled@10={nw_pooled.macro_recall:.3f} "
                  f"temporal pooled@10={tw_pooled.macro_recall:.3f}")
            assert tw_pooled.macro_recall >= nw_pooled.macro_recall
            nw_by_month = {m: r for m, r, _ in nw_months}
            for m, r_tw, n in tw_months:
                assert r_tw >= nw_by_month[m] - 0.01, f"month {m}: {r_tw} vs {nw_by_month[m]}"


class TestCriterion8TemporalDecay:
    def test_monotone_recall_decay_by_month(self, decay_run):
        with criterion(8, "per-month recall decays after the training window"):
            _, months = month_slices(decay_run, k=10, min_sequences=40)
            assert len(months) >= 3
            recalls = [r for _, r, _ in months]
            print("\n  month recalls:", [f"{r:.3f}" for r in recalls])
            for earlier, later in zip(recalls, recalls[1:]):
                assert later <= earlier + 0.02
            assert recalls[-1] < recalls[0]


class TestCriterion9Baseline:
    def test_mixed_score_and_random_guess(self):
        with criterion(9, "baseline mixed score, alpha->0 limit, random-guess rate"):
            assert mixed_score(2.0, 1.0, 1.0) == pytest.approx(2 * math.e, rel=1e-12)

            tok = Tokenizer()
            rng = np.random.default_rng(3)
            for trial in range(3):
                sites = rng.choice(np.arange(1, 29_904), size=1000, replace=False)
                records = tuple(
                    BloomRecord(f"{s}T", float(rng.uniform(0, 50)), float(rng.normal()))
                    for s in sites
                )
                table = BloomTable(kind="nt", records=records)
                count_rank = [t for t, _ in rank_nt_table(table, "count", 100, tok)]
                tiny = [t for t, _ in rank_nt_table(table, "mixed", 100, tok, alpha=1e-9)]
                assert count_rank == tiny

            n_candidates = nucleotide_candidate_count(29_903)
            expected = 100 / n_candidates
            assert n_candidates == 119_612
            assert round(expected * 100, 2) == 0.08  # percent, as reported
            predictor = RandomPredictor(np.arange(n_candidates), seed=8)
            n_trials = 100_000
            ranked = predictor.rank_at_positions([[]], [range(n_trials)], k=100)[0]
            trues = rng.integers(0, n_candidates, size=n_trials)
            hits = np.fromiter(
                (t in set(r) for t, r in zip(trues, ranked)), bool, count=n_trials
            )
            sigma = math.sqrt(expected * (1 - expected) / n_trials)
            assert abs(hits.mean() - expected) <= 3 * sigma


class TestCriterion10SpikeMapping:
    def test_codon_roundtrip_reachable_count_d614g(self):
        with criterion(10, "spike mapping: codon round-trip, reachable count, D614G"):
            annotation = load_annotation()
            spike_map = SpikeMap(annotation)

            for codon in GENETIC_CODE:
                for offset in range(3):
                    site = spike_map.site_of_codon(100, offset)
                    for base in BASES:
                        if base == codon[offset]:
                            continue
                        after = codon[:offset] + base + codon[offset + 1 :]
                        effect = spike_map.aa_mutation_of(NtMutation(site, base), codon)
                        if translate_codon(after) == translate_codon(codon):
                            assert effect is None
                        else:
                            assert isinstance(effect, AaMutation)
                            assert effect.to_aa == translate_codon(after)

            reachable = reachable_aa_mutations(spike_map)
            print(f"\n  single-substitution spike mutations: {len(reachable)}")
            assert 7_000 <= len(reachable) <= 8_500

            # D614G worked example against an independent replay
            site = spike_map.site_of_codon(614, 1)
            assert site == 23_403
            effect = spike_map.aa_mutation_of(NtMutation(site, "G"), spike_map.reference_codon(614))
            assert effect == AaMutation("S", 614, "D", "G")
            ref = annotation.spike.reference_sequence
            replayed = ref[: site - 21_563] + "G" + ref[site - 21_563 + 1 :]
            start = (614 - 1) * 3
            assert translate_codon(ref[start : start + 3]) == "D"
            assert translate_codon(replayed[start : start + 3]) == "G"


class TestCriterion11VariantRefinement:
    def test_rule_against_brute_force_and_recombinant_order(self):
        with criterion(11, "variant refinement rule vs brute force, recombinant order"):
            def brute(usher, counts):
                total = sum(counts.get(s, 0.0) for s in NT_STATES)
                winner = None
                for s in NT_STATES:
                    if total <= 0 or counts.get(s, 0.0) / total <= 0.5:
                        continue
                    if all(
                        counts.get(s, 0.0) >= 10 * counts.get(o, 0.0)
                        for o in NT_STATES
                        if o != s
                    ):
                        winner = s
                return winner if winner is not None else usher

            rng = np.random.default_rng(13)
            for _ in range(10_000):
                counts = {
                    s: float(rng.integers(0, 500))
                    for s in NT_STATES
                    if rng.random() < 0.85
                }
                usher = NT_STATES[rng.integers(0, 5)]
                nextclade = NT_STATES[rng.integers(0, 5)]
                assert resolve_disagreement(1, usher, nextclade, counts) == brute(usher, counts)

            definition = VariantDefinition(
                "XR",
                [NtMutation(500, "A"), NtMutation(100, "T"), NtMutation(300, "G"),
                 NtMutation(100, "-")],
                is_recombinant=True,
            )
            ordered = order_recombinant(definition)
            assert [m.site for m in ordered.nt_mutations] == [100, 100, 300, 500]
            assert ordered.nt_mutations[0] == NtMutation(100, "T")  # stable
