from dataclasses import replace

import numpy as np
import pytest

from evotraj.evaluation import (
    ModelPredictor,
    RandomPredictor,
    StaticPredictor,
    aggregate,
    evaluate_sequences,
    nucleotide_candidate_count,
    slice_by_month,
    spike_recall_at_k,
    write_report_csv,
)
from evotraj.genome import AaMutation, GENETIC_CODE, NtMutation, SpikeMap, load_annotation
from evotraj.model import ModelConfig, Transformer, ranking
from evotraj.tokenizer import LayoutSpec, TokenizedSample, Tokenizer
from evotraj.tree import PartialDate, SequenceMeta, Trajectory, spike_replay

TOK = Tokenizer(LayoutSpec(genome_length=120))


def sample_for(variant_sites, private_sites, date=None, country=None):
    traj = Trajectory(
        meta=SequenceMeta(
            name="s",
            collected=None if date is None else PartialDate.parse(date),
            country=country,
        ),
        variant_name="V",
        variant_mutations=tuple(NtMutation(s, b) for s, b in variant_sites),
        sequence_mutations=tuple(NtMutation(s, b) for s, b in private_sites),
    )
    return traj, TOK.tokenize(traj)


def withheld(trajectories):
    """The samples of trajectories tokenized without their location."""
    return [TOK.tokenize(replace(t, meta=replace(t.meta, country=None, region=None)))
            for t in trajectories]


def recalls(sequences, predictor, k, **kw):
    """Each (trajectory, sample)'s nucleotide recall at k, as
    ``evaluate_sequences`` scores it."""
    trajs, samples = zip(*sequences)
    return evaluate_sequences(trajs, samples, predictor, ks=(k,), **kw).per_k[k]


class TestNucleotideRecall:
    def test_half_hit(self):
        seq = sample_for([(1, "T")], [(10, "G"), (20, "G")])
        predictor = StaticPredictor([TOK.mutation_token(10, "G"), TOK.mutation_token(99, "A")])
        assert recalls([seq], predictor, k=2) == [0.5]

    def test_exhaustive_k_gives_full_recall(self):
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=1, hidden=32, heads=4, max_seq=64)
        model = Transformer(cfg, seed=0)
        predictor = ModelPredictor(model, TOK)
        seq = sample_for([(1, "T")], [(10, "G"), (20, "G"), (30, "-")])
        assert recalls([seq], predictor, k=TOK.mutation_block[1]) == [1.0]

    def test_monotone_in_k(self):
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=1, hidden=32, heads=4, max_seq=64)
        predictor = ModelPredictor(Transformer(cfg, seed=1), TOK)
        seq = sample_for([(5, "A")], [(10, "G"), (20, "C"), (40, "T")])
        last = 0.0
        for k in (1, 5, 20, 100, 480):
            [r] = recalls([seq], predictor, k)
            assert r >= last
            last = r

    def test_context_too_long_returns_none(self):
        traj, sample = sample_for([], [(i + 1, "T") for i in range(30)])
        res = evaluate_sequences([traj], [sample], StaticPredictor([0]), ks=(1,), max_context=20)
        assert res.n_excluded_too_long == 1 and res.per_k[1] == []

    def test_no_private_mutations_rejected(self):
        seq = sample_for([(1, "T")], [])
        with pytest.raises(ValueError):
            recalls([seq], StaticPredictor([0]), k=1)

    def test_random_guess_matches_candidate_ratio(self):
        rng = np.random.default_rng(5)
        n_candidates = nucleotide_candidate_count(120)
        assert n_candidates == 480
        k = 12
        candidates = np.arange(TOK.mutation_block[1])
        predictor = RandomPredictor(candidates[: n_candidates], seed=6)
        sequences = []
        for _ in range(3000):
            site = int(rng.integers(1, 121))
            state = "ATCG-"[rng.integers(0, 4)]
            sequences.append(sample_for([], [(site, state)]))
        hits = recalls(sequences, predictor, k)
        p = k / n_candidates
        sigma = np.sqrt(p * (1 - p) / len(hits))
        assert abs(np.mean(hits) - p) < 3 * sigma + 0.005


def mini_spike_annotation(tmp_path):
    seq = "ATGGATCTAAAAGGGCCCTTTGAAGTCTAA"  # M D L K G P F E V *
    ann = tmp_path / "ann.tsv"
    ann.write_text("genome\t1\t120\nS\t31\t60\n")
    fa = tmp_path / "ref.fasta"
    fa.write_text(">S\n" + seq + "\n")
    return load_annotation(ann, fa)


class TestSpikeRecall:
    def setup_mini(self, tmp_path):
        self.spike_map = SpikeMap(mini_spike_annotation(tmp_path))
        # variant: D2G; private: outside-ORF, L3V, G5W
        self.traj, self.sample = sample_for(
            [(34, "G")], [(10, "T"), (37, "G"), (43, "T")]
        )

    def test_steps_and_mapping(self, tmp_path):
        self.setup_mini(tmp_path)
        predictor = StaticPredictor(
            [TOK.mutation_token(37, "G"), TOK.mutation_token(99, "A")]
        )
        r = spike_recall_at_k(
            self.traj, self.sample, predictor, k=2, tokenizer=TOK, spike_map=self.spike_map
        )
        # step 1 target L3V: candidate 37G maps to L3V under codon CTA -> hit
        # step 2 target G5W: candidate 37G is a no-op by then, 99A outside -> miss
        assert r.n_steps == 2
        assert r.recall == 0.5

    def test_matches_independent_replay(self, tmp_path):
        self.setup_mini(tmp_path)
        candidates = [
            TOK.mutation_token(43, "T"),
            TOK.mutation_token(37, "G"),
            TOK.mutation_token(55, "A"),
        ]
        predictor = StaticPredictor(candidates)
        r = spike_recall_at_k(
            self.traj, self.sample, predictor, k=3, tokenizer=TOK, spike_map=self.spike_map
        )

        # independent oracle: string replay of the whole ORF
        def orf_after(muts):
            s = list("ATGGATCTAAAAGGGCCCTTTGAAGTCTAA")
            for m in muts:
                if 31 <= m.site <= 60:
                    s[m.site - 31] = m.to
            return "".join(s)

        applied = list(self.traj.variant_mutations)
        hits = 0
        n_steps = 0
        for mut in self.traj.sequence_mutations:
            before = orf_after(applied)
            after = orf_after(applied + [mut])
            step_is_aa = False
            target = None
            if 31 <= mut.site <= 60:
                ci = (mut.site - 31) // 3
                b, a = before[ci * 3 : ci * 3 + 3], after[ci * 3 : ci * 3 + 3]
                if "-" not in b and "-" not in a and GENETIC_CODE[b] != GENETIC_CODE[a]:
                    step_is_aa = True
                    target = (ci + 1, GENETIC_CODE[b], GENETIC_CODE[a])
            if step_is_aa:
                n_steps += 1
                for tok_id in candidates:
                    cand = TOK.mutation_of_token(tok_id)
                    if not 31 <= cand.site <= 60:
                        continue
                    ci = (cand.site - 31) // 3
                    b = before[ci * 3 : ci * 3 + 3]
                    a2 = b[: (cand.site - 31) % 3] + cand.to + b[(cand.site - 31) % 3 + 1 :]
                    if "-" in b or "-" in a2 or GENETIC_CODE[b] == GENETIC_CODE[a2]:
                        continue
                    if (ci + 1, GENETIC_CODE[b], GENETIC_CODE[a2]) == target:
                        hits += 1
                        break
            applied.append(mut)
        assert r.n_steps == n_steps
        assert r.recall == pytest.approx(hits / n_steps)

    def test_aa_predictor_direct_matching(self, tmp_path):
        self.setup_mini(tmp_path)
        predictor = StaticPredictor([AaMutation("S", 3, "L", "V")])
        r = spike_recall_at_k(
            self.traj, self.sample, predictor, k=1, tokenizer=TOK, spike_map=self.spike_map
        )
        assert r.recall == 0.5

    def test_token_and_aa_candidates_in_one_list(self, tmp_path):
        # a token candidate goes through the codon context in force at each
        # step, an amino-acid one is matched directly
        self.setup_mini(tmp_path)
        predictor = StaticPredictor([TOK.mutation_token(37, "G"), AaMutation("S", 5, "G", "W")])
        r = spike_recall_at_k(
            self.traj, self.sample, predictor, k=2, tokenizer=TOK, spike_map=self.spike_map
        )
        assert r.recall == 1.0

    def test_replay_cost_does_not_grow_with_k(self, tmp_path, monkeypatch):
        # each step's hits come from the one replay; the ranked candidates
        # are only looked up in them, never mapped through the codons
        self.setup_mini(tmp_path)
        calls = []
        aa_mutation_of = SpikeMap.aa_mutation_of
        monkeypatch.setattr(SpikeMap, "aa_mutation_of", lambda s, m, c: calls.append(m) or aa_mutation_of(s, m, c))
        misses = StaticPredictor([TOK.mutation_token(site, b) for site in range(1, 21) for b in "ATCG-"])
        counts = []
        for k in (1, 100):
            calls.clear()
            r = spike_recall_at_k(self.traj, self.sample, misses, k, TOK, self.spike_map)
            assert r.recall == 0.0 and r.n_steps == 2
            counts.append(len(calls))
        # the two private mutations inside the ORF are mapped as replayed,
        # and each of the two steps' codons offers three sites x the four
        # states other than the base in force
        assert counts == [2 + 2 * 12] * 2

    def test_every_token_making_the_change_hits(self, tmp_path):
        # codon 2 is AGA (R): a third-site T and a third-site C both give R2S,
        # so the other token ranked first scores the step at rank 0
        ann = tmp_path / "ann.tsv"
        ann.write_text("genome\t1\t120\nS\t31\t42\n")
        fa = tmp_path / "ref.fasta"
        fa.write_text(">S\nATGAGACTATAA\n")  # M R L *
        spike_map = SpikeMap(load_annotation(ann, fa))
        traj, sample = sample_for([], [(36, "T")])
        [(_, target, _)] = spike_replay(traj, spike_map)
        assert target == AaMutation("S", 2, "R", "S")
        predictor = StaticPredictor([TOK.mutation_token(36, "C"), TOK.mutation_token(36, "T")])
        r = spike_recall_at_k(traj, sample, predictor, k=1, tokenizer=TOK, spike_map=spike_map)
        assert r.recall == 1.0

    def test_site_beyond_the_layout_has_no_token(self, tmp_path):
        # the annotation's genome is longer than the 120-site layout: codon 3,
        # TTT at sites 119-121, becomes L by a first-site C or a third-site A,
        # and site 121 has no token to rank
        ann = tmp_path / "ann.tsv"
        ann.write_text("genome\t1\t200\nS\t113\t127\n")
        fa = tmp_path / "ref.fasta"
        fa.write_text(">S\nATGGATTTTGGGTAA\n")  # M D F G *
        spike_map = SpikeMap(load_annotation(ann, fa))
        traj, sample = sample_for([], [(119, "C")])
        predictor = StaticPredictor([TOK.mutation_token(119, "C")])
        r = spike_recall_at_k(traj, sample, predictor, k=1, tokenizer=TOK, spike_map=spike_map)
        assert (r.n_steps, r.recall) == (1, 1.0)

    def test_no_spike_steps_rejected(self, tmp_path):
        spike_map = SpikeMap(mini_spike_annotation(tmp_path))
        traj, sample = sample_for([], [(10, "T")])
        with pytest.raises(ValueError):
            spike_recall_at_k(traj, sample, StaticPredictor([0]), 1, TOK, spike_map)


class TestAggregate:
    def test_weighted_mean(self):
        macro, weighted = aggregate([1.0, 0.0], [100, 300])
        assert macro == 0.5
        assert weighted == 0.25

    def test_equal_weights_match_macro(self):
        macro, weighted = aggregate([0.2, 0.4, 0.9], [7, 7, 7])
        assert weighted == pytest.approx(macro)

    def test_single_sequence(self):
        macro, weighted = aggregate([0.6], [42])
        assert macro == weighted == 0.6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestEvaluateSequences:
    def make_batch(self):
        trajs, samples = [], []
        for i, (date, private) in enumerate(
            [
                ("2025-03-01", [(10, "G")]),
                ("2025-03-10", [(20, "G"), (30, "G")]),
                ("2025-04-02", [(10, "G"), (99, "T")]),
            ]
        ):
            t, s = sample_for([(1, "T")], private, date=date)
            trajs.append(t)
            samples.append(s)
        return trajs, samples

    def test_reports_and_month_slices(self):
        trajs, samples = self.make_batch()
        predictor = StaticPredictor([TOK.mutation_token(10, "G")])
        res = evaluate_sequences(
            trajs, samples, predictor, ks=(1,), weights=[100.0, 50.0, 50.0]
        )
        assert res.per_k[1] == [1.0, 0.0, 0.5]
        global_report = next(r for r in res.reports if r.slice_label == "all")
        assert global_report.n_sequences == 3
        march = PartialDate(2025, 3).month_index(2019)
        month_reports = [r for r in res.reports if r.slice_label.startswith("month=")]
        assert {r.slice_label for r in month_reports} == {
            f"month={march}",
            f"month={march + 1}",
        }

    def test_slice_weighted_sums_are_additive(self):
        trajs, samples = self.make_batch()
        predictor = StaticPredictor([TOK.mutation_token(10, "G")])
        res = evaluate_sequences(
            trajs, samples, predictor, ks=(1,), weights=[100.0, 50.0, 50.0]
        )
        global_report = next(r for r in res.reports if r.slice_label == "all")
        month_reports = [r for r in res.reports if r.slice_label.startswith("month=")]
        month_weights = {}
        for i, m in enumerate(res.months):
            month_weights.setdefault(m, 0.0)
            month_weights[m] += res.weights[i]
        numerator = sum(
            r.weighted_recall * month_weights[int(r.slice_label.split("=")[1])]
            for r in month_reports
        )
        total_w = sum(res.weights)
        assert numerator / total_w == pytest.approx(global_report.weighted_recall)
        assert sum(r.n_sequences for r in month_reports) == global_report.n_sequences

    def test_too_long_counted(self):
        traj, sample = sample_for([], [(i + 1, "T") for i in range(30)])
        predictor = StaticPredictor([0])
        res = evaluate_sequences([traj], [sample], predictor, ks=(1,), max_context=10)
        assert res.n_excluded_too_long == 1
        assert res.per_k[1] == []

    @pytest.mark.parametrize("max_context", [None, 256, 18])
    def test_bound_is_the_smaller_of_caller_and_model(self, max_context):
        # the model takes 20 tokens; the caller's larger bound cannot lift that
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=1, hidden=32, heads=4, max_seq=20)
        predictor = ModelPredictor(Transformer(cfg, seed=0), TOK)
        lengths = (11, 15, 17, 26)  # contexts of 15, 19, 21 and 30 tokens
        trajs, samples = zip(*(sample_for([], [(i + 1, "T") for i in range(n)]) for n in lengths))
        res = evaluate_sequences(trajs, samples, predictor, ks=(1,), max_context=max_context)
        assert res.n_excluded_too_long == (3 if max_context == 18 else 2)
        assert len(res.per_k[1]) == 4 - res.n_excluded_too_long
        longest = evaluate_sequences(trajs[-1:], samples[-1:], predictor, ks=(1,), max_context=max_context)
        assert longest.n_excluded_too_long == 1

    def test_amino_acid_ranking_refused_on_the_nucleotide_task(self):
        # an amino-acid candidate never equals a mutation token, so scoring it
        # would report recall 0 instead of a misuse
        traj, sample = sample_for([], [(37, "G")])
        predictor = StaticPredictor([AaMutation("S", 3, "L", "V")])
        with pytest.raises(ValueError, match="not task=nucleotide"):
            evaluate_sequences([traj], [sample], predictor, ks=(1,))

    def test_report_csv(self, tmp_path):
        trajs, samples = self.make_batch()
        res = evaluate_sequences(
            trajs, samples, StaticPredictor([TOK.mutation_token(10, "G")]), ks=(1, 10)
        )
        path = tmp_path / "report.csv"
        write_report_csv(res.reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "task,k,slice,macro_recall,weighted_recall,n_sequences"
        assert len(lines) > 2


class TestStaticPredictorStructure:
    def test_context_independent(self):
        predictor = StaticPredictor([5, 6, 7])
        a, b = predictor.rank_at_positions([[1, 2, 3], [9, 9, 9, 9]], [[0, 1], [2]], k=2)
        assert a[0] == a[1] == b[0] == (5, 6)


class TestNoLocationMode:
    def test_no_location_eval_produces_comparable_reports(self):
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=1, hidden=32, heads=4, max_seq=64)
        model = Transformer(cfg, seed=2)
        TOK.register_location("Xanadu")
        trajs, samples = [], []
        for i in range(4):
            t, s = sample_for([(1, "T")], [(10 + i, "G")], date="2025-03-01", country="Xanadu")
            trajs.append(t)
            samples.append(s)
        predictor = ModelPredictor(model, TOK)
        with_loc = evaluate_sequences(trajs, samples, predictor, ks=(5,))
        without = evaluate_sequences(trajs, withheld(trajs), predictor, ks=(5,))
        a = next(r for r in with_loc.reports if r.slice_label == "all")
        b = next(r for r in without.reports if r.slice_label == "all")
        assert a.n_sequences == b.n_sequences == 4
        assert 0.0 <= a.macro_recall <= 1.0 and 0.0 <= b.macro_recall <= 1.0


class TestSpikeTaskSplit:
    def test_synonymous_only_sequences_excluded_from_spike_eval(self, tmp_path):
        import datetime

        from evotraj.genome import SpikeMap
        from evotraj.tree import split_train_eval

        spike_map = SpikeMap(mini_spike_annotation(tmp_path))
        # codon 3 is CTA (L); third-base change to G is synonymous (CTG -> L)
        synonymous, _ = sample_for([], [(39, "G")], date="2025-03-01")
        missense, _ = sample_for([], [(37, "G")], date="2025-03-02")
        for t in (synonymous, missense):
            object.__setattr__(t.meta, "released", PartialDate(2025, 4, 1))
        res = split_train_eval(
            [synonymous, missense],
            datetime.date(2025, 2, 12),
            datetime.date(2025, 7, 16),
            task="spike",
            spike_map=spike_map,
        )
        assert len(res.eval) == 1
        assert res.eval[0] is missense
        assert res.n_excluded_no_signal == 1


def mixed_sequences(n=9, seed=0):
    """Trajectories of mixed lengths with repeated sites, collected over two
    months."""
    rng = np.random.default_rng(seed)
    TOK.register_location("Xanadu")
    trajs, samples = [], []
    for i in range(n):
        variant = [(int(s), "T") for s in rng.integers(1, 121, size=rng.integers(0, 4))]
        private = [(int(s), "ATCG-"[int(b)]) for s, b in zip(
            rng.integers(31, 61, size=rng.integers(1, 7)), rng.integers(0, 5, size=7))]
        t, smp = sample_for(variant, private, date=f"2025-0{3 + i % 2}-01",
                            country="Xanadu" if i % 3 else None)
        trajs.append(t)
        samples.append(smp)
    return trajs, samples


class TestBatchedRanking:
    def model(self):
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=2, hidden=32, heads=4, max_seq=64)
        return Transformer(cfg, seed=11)

    @pytest.mark.parametrize("located", [True, False])
    @pytest.mark.parametrize("batch_contexts, batch_rows", [(64, 128), (3, 128), (64, 5)])
    def test_batch_equals_each_context_alone(
        self, monkeypatch, located, batch_contexts, batch_rows
    ):
        monkeypatch.setattr(ranking, "BATCH_CONTEXTS", batch_contexts)
        monkeypatch.setattr(ranking, "BATCH_ROWS", batch_rows)
        predictor = ModelPredictor(self.model(), TOK)
        trajs, samples = mixed_sequences()
        if not located:
            samples = withheld(trajs)
        contexts = [list(s.tokens[:-1]) for s in samples]
        assert any(c[0] != TOK.unknown_token for c in contexts) == located
        positions = [list(range(4, len(c))) for c in contexts]
        batched = predictor.rank_at_positions(contexts, positions, 30)
        lo, hi = TOK.mutation_block
        for context, pos, ranked in zip(contexts, positions, batched):
            assert [ranked] == predictor.rank_at_positions([context], [pos], 30)
            for p, candidates in zip(pos, ranked):
                seen = {t for t in context[5 : p + 1] if lo <= t < hi}
                assert not seen & set(candidates)
                assert len(candidates) == min(30, hi - lo - len(seen))

    def test_forward_count_follows_batches(self, monkeypatch):
        monkeypatch.setattr(ranking, "BATCH_CONTEXTS", 4)
        model = self.model()
        calls = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        trajs, samples = mixed_sequences(n=9)
        evaluate_sequences(trajs, samples, ModelPredictor(model, TOK), ks=(1, 10, 100))
        assert len(calls) == 3


class TestRankOnceAtMaxK:
    def check_equal_to_separate_ks(self, predictor, task="nucleotide", **kw):
        trajs, samples = mixed_sequences(n=12, seed=3)
        if task == "spike":
            keep = [i for i, t in enumerate(trajs) if any(spike_replay(t, kw["spike_map"]))]
            trajs, samples = [trajs[i] for i in keep], [samples[i] for i in keep]
            assert len(trajs) >= 3
        together = evaluate_sequences(trajs, samples, predictor, ks=(1, 10, 100), task=task, **kw)
        for k in (1, 10, 100):
            alone = evaluate_sequences(trajs, samples, predictor, ks=(k,), task=task, **kw)
            assert together.per_k[k] == alone.per_k[k]
            assert [r for r in together.reports if r.k == k] == alone.reports
        assert together.per_k[1] != together.per_k[100]

    def test_model_predictor(self):
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=1, hidden=32, heads=4, max_seq=64)
        self.check_equal_to_separate_ks(ModelPredictor(Transformer(cfg, seed=4), TOK))

    def test_static_predictor(self):
        ranked = [TOK.mutation_token(s, b) for s in range(31, 61) for b in "ATCG-"]
        self.check_equal_to_separate_ks(StaticPredictor(ranked[::-1]))

    def test_model_predictor_spike_task(self, tmp_path):
        cfg = ModelConfig(vocab_size=TOK.vocab_size, layers=1, hidden=32, heads=4, max_seq=64)
        self.check_equal_to_separate_ks(
            ModelPredictor(Transformer(cfg, seed=4), TOK), task="spike",
            tokenizer=TOK, spike_map=SpikeMap(mini_spike_annotation(tmp_path)),
        )
