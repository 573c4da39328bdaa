"""The benchmark's workloads: their generated inputs, stage calls and checks.

A workload is a list of ``evotraj`` stage calls (one round) over inputs that
``setup`` generates from the workload seed. The program sees only those
inputs and the stage arguments.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from evotraj import synth

import checks
from checks import Checkpoint, Layout, Seq

TRAIN_SHARE = 0.7  # of the leaves, released by the training cutoff
LAM = -0.1
EPOCHS = 8  # program default
ALPHA = 1.0  # program default
KS = (1, 10, 100)
MAX_SEQ = 256  # program default
PROD_VOCAB = 150_210
REFERENCE_GENOME = 29_903  # the genome the bundled spike annotation describes
# the synthetic spike ORF for other genomes: 99 residues and a stop codon
SYNTH_ORF = (101, 400)


@dataclass(frozen=True)
class Stage:
    key: str  # metric name part: cli.<key>_s
    kind: str  # train | evaluate (by the model) | other
    argv: list[str]
    out: str  # stage directory, relative to the round directory


@dataclass(frozen=True)
class Spec:
    name: str
    sim_genome: int  # genome length of the simulated tree
    genome: int  # genome length of the tokenizer layout
    depth: int
    eval_target: int  # nucleotide evaluation sequences
    spike_target: int  # spike evaluation sequences
    steps: int
    batch: int
    predicts: int
    workers: int = 1
    # refine variant definitions, build with them, and rank and evaluate an
    # estimator table
    tables: bool = False
    token_sample: int = 200
    recall_gate: bool = False
    vocab: int | None = None


SPECS = {
    s.name: s
    for s in (
        Spec(
            "desk-e2e", sim_genome=500, genome=500, depth=8, eval_target=250, spike_target=150, steps=40, batch=32,
            predicts=6, recall_gate=True,
        ),
        Spec(
            "prod-vocab", sim_genome=29_900, genome=29_903, depth=8, eval_target=16, spike_target=10, steps=3, batch=8,
            predicts=2, workers=4, tables=True, vocab=PROD_VOCAB,
        ),
    )
}


@dataclass
class Inputs:
    """Paths of the generated inputs, the date cutoffs and the predict
    contexts."""

    root: Path
    train_cutoff: datetime.date | None = None
    eval_cutoff: datetime.date | None = None
    spike_cutoff: datetime.date | None = None  # the spike task's eval_cutoff
    contexts: list[dict] = field(default_factory=list)

    @property
    def tree(self) -> Path:
        return self.root / "sim" / "tree.jsonl"

    @property
    def population(self) -> Path:
        return self.root / "sim" / "population.csv"


class Workload:
    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        # our own model and its recalls, by checkpoint sha256: every round
        # of a run trains the same checkpoint
        self._models: dict[str, tuple[Checkpoint, dict]] = {}
        self._checked: set[tuple] = set()  # output hashes of checked rounds

    # -- settings --------------------------------------------------------------

    def settings(self, inputs: Inputs) -> list[str]:
        s = self.spec
        pairs = [
            f"genome_length={s.genome}",
            f"steps={s.steps}",
            f"batch_size={s.batch}",
            # above the 0.003 of scripts/run_end_to_end.py, so that 40 desk
            # steps beat the count table with a margin
            "lr_start=0.01",
            "lr_end=0.001",
            f"lam={LAM}",
            f"train_cutoff={inputs.train_cutoff}",
            f"eval_cutoff={inputs.eval_cutoff}",
            "ks=" + ",".join(map(str, KS)),
            f"workers={s.workers}",
        ]
        out = ["--seed", str(self.seed)]
        for p in pairs:
            out += ["--set", p]
        return out

    @property
    def synthetic_orf(self) -> bool:
        return self.spec.genome != REFERENCE_GENOME

    # -- inputs ------------------------------------------------------------------

    def setup(self, root: Path) -> Inputs:
        """Simulate the tree and write the annotation, estimator tables and
        predict contexts; every input is a function of the seed.

        Every internal node has three children, so the tree's size, and the
        work of a round, is the same for every seed; only its content varies.
        The other synthesis settings are those of ``evotraj simulate``."""
        s = self.spec
        config = synth.SynthConfig(
            genome_length=s.sim_genome, depth=s.depth, branching=(3,), branching_probs=(1.0,),
            variant_prob=0.6, private_mut_rate=2.0, month_advance=0.4, collection_lag_months=1.0,
            seed=self.seed,
        )
        synth.write_outputs(synth.generate(config), root / "sim")
        inputs = Inputs(root)
        rng = np.random.default_rng([self.seed, 17])
        if self.synthetic_orf:
            write_synthetic_orf(root, s.genome, rng)
        orf = checks.read_orf(*self.orf_files(inputs))
        if s.tables:
            write_table(root / "table_nt.csv", s.sim_genome, rng)
        seqs = checks.trajectories(checks.read_tree(inputs.tree))
        self.choose_cutoffs(inputs, seqs, orf)
        inputs.contexts = self.pick_contexts(seqs, inputs, rng)
        return inputs

    def choose_cutoffs(self, inputs: Inputs, seqs: list[Seq], orf: checks.Orf) -> None:
        """Release-date cutoffs that give every seed the same numbers of
        training and evaluation sequences, up to the leaves sharing a date.
        Synthetic dates depend strongly on the seed: fixed dates left from 12
        to 79 evaluation sequences on three seeds of one tree size."""
        s = self.spec
        full = [q for q in seqs if q.released and len(q.released) == 3]
        inputs.train_cutoff = nearest_cut([checks.as_date(q.released) for q in full], TRAIN_SHARE * len(full))
        later = [q for q in full if q.collected and len(q.collected) == 3 and q.private
                 and checks.as_date(q.collected) > inputs.train_cutoff]
        inputs.eval_cutoff = nearest_cut([checks.as_date(q.released) for q in later], s.eval_target)
        spike = [q for q in later if checks.has_spike_change(q, orf)]
        inputs.spike_cutoff = nearest_cut([checks.as_date(q.released) for q in spike], s.spike_target)

    def orf_files(self, inputs: Inputs) -> tuple[Path, Path]:
        if self.synthetic_orf:
            return inputs.root / "orf_annotation.tsv", inputs.root / "reference_orfs.fasta"
        data = Path(__file__).resolve().parent.parent / "src" / "evotraj" / "data"
        return data / "orf_annotation.tsv", data / "reference_orfs.fasta"

    def pick_contexts(self, seqs: list[Seq], inputs: Inputs, rng) -> list[dict]:
        _, candidates = checks.split(seqs, inputs.train_cutoff, inputs.eval_cutoff)
        candidates = [s for s in candidates if s.private]
        picks = rng.choice(len(candidates), size=self.spec.predicts, replace=False)
        out = []
        for i in sorted(int(p) for p in picks):
            s = candidates[i]
            out.append({
                "country": s.country,
                "date": "-".join(f"{p:02d}" for p in s.collected),
                "variant": ",".join(f"{site}{st}" for site, st in s.variant),
                "observed": f"{s.private[0][0]}{s.private[0][1]}",
            })
        return out

    # -- one round ---------------------------------------------------------------

    def stages(self, inputs: Inputs, out: Path) -> list[Stage]:
        s = self.spec
        common = self.settings(inputs)
        stages = []

        def add(key, kind, argv, stage_out, extra=()):
            stages.append(Stage(key, kind, argv + ["--out", str(out / stage_out)] + common + list(extra), stage_out))

        add("ingest", "other", ["ingest", "--tree", str(inputs.tree)], "ingest")
        tree = str(out / "ingest" / "tree.jsonl")
        definitions = []
        if s.tables:
            add("refine_variants", "other", ["refine-variants", "--tree", tree], "defs")
            definitions = ["--definitions", str(out / "defs" / "definitions.json")]
        add("build_dataset", "other",
            ["build-dataset", "--tree", tree, "--population", str(inputs.population)] + definitions, "dataset")
        dataset = str(out / "dataset")
        layout = str(out / "dataset" / "layout.txt")
        ckpt = str(out / "train" / "checkpoint.ckpt")
        add("sample_plan", "other", ["sample-plan", "--dataset", dataset], "plans")
        add("train", "train", ["train", "--dataset", dataset, "--plans", str(out / "plans")], "train")
        for i, c in enumerate(inputs.contexts):
            add("predict", "other",
                ["predict", "--checkpoint", ckpt, "--layout", layout, "--country", c["country"],
                 "--date", c["date"], "--variant-muts", c["variant"], "--observed", c["observed"],
                 "-k", "10"], f"predict{i}")
        evaluate = ["evaluate", "--tree", tree, "--layout", layout, "--population", str(inputs.population)]
        evaluate += definitions
        annotation, reference = self.orf_files(inputs)
        add("evaluate", "evaluate", evaluate + ["--checkpoint", ckpt], "eval")
        add("evaluate_spike", "evaluate",
            evaluate + ["--checkpoint", ckpt, "--annotation", str(annotation), "--reference", str(reference)],
            "eval_spike", ["--set", "task=spike", "--set", f"eval_cutoff={inputs.spike_cutoff}"])
        if s.tables:
            table = str(inputs.root / "table_nt.csv")
            add("baseline_rank", "other", ["baseline-rank", "--table", table, "-k", str(max(KS))], "ranked")
            add("evaluate_table", "other", evaluate + ["--baseline", table], "eval_table")
        return stages

    # -- counts for the end-to-end metrics ---------------------------------------------

    def counts(self, out: Path) -> dict[str, int]:
        """Loss-bearing target tokens trained, and sequences evaluated by the
        model over both tasks, read from the round's outputs."""
        return {
            "train_tokens": checks.trained_target_tokens(
                out / "dataset", out / "plans", self.spec.steps, self.spec.batch),
            "evaluated": sum(
                json.loads((out / d / "eval_stats.json").read_text())["n_evaluated"] for d in ("eval", "eval_spike")),
        }

    # -- checks --------------------------------------------------------------------

    def check(self, inputs: Inputs, out: Path, stages: list[Stage]) -> None:
        """Every check for one round's outputs; raises CheckFailed. A round
        whose outputs hash the same as an already checked round's, as every
        round of a run should, is checked by its manifests alone."""
        key = tuple(checks.check_manifest(out / st.out) for st in stages)
        if key in self._checked:
            return
        for name, check in self.checks(inputs, out, stages).items():
            if name != "manifest":
                check()
        self._checked.add(key)

    def checks(self, inputs: Inputs, out: Path, stages: list[Stage]) -> dict:
        """The round's checks by name, each a call that raises CheckFailed.
        What they share (trajectories, evaluation sets, the model's recalls)
        is computed here, from the tree, the layout and the checkpoint."""
        s = self.spec
        nodes = checks.read_tree(out / "ingest" / "tree.jsonl")
        definitions = None
        if s.tables:
            definitions = checks.read_definitions(out / "defs" / "definitions.json")
        seqs = checks.trajectories(nodes, definitions)
        train, candidates = checks.split(seqs, inputs.train_cutoff, inputs.eval_cutoff)
        _, spike_candidates = checks.split(seqs, inputs.train_cutoff, inputs.spike_cutoff)
        dataset = out / "dataset"
        layout = Layout(dataset / "layout.txt")
        rng = np.random.default_rng([self.seed, 23])
        sample = sorted(int(i) for i in rng.choice(len(train), size=min(s.token_sample, len(train)), replace=False))
        populations = checks.read_populations(inputs.population)
        nt = checks.eval_set(layout, candidates, lambda q: bool(q.private), populations, MAX_SEQ)
        table = inputs.root / "table_nt.csv"
        ckpt_path = out / "train" / "checkpoint.ckpt"
        digest = checks.sha256(ckpt_path)
        if digest not in self._models:
            ckpt = Checkpoint(ckpt_path)
            self._models[digest] = ckpt, checks.model_recalls(ckpt, layout, nt, KS)
        ckpt, recalls = self._models[digest]
        orf = checks.read_orf(*self.orf_files(inputs))
        spike = checks.eval_set(layout, spike_candidates, lambda q: checks.has_spike_change(q, orf), populations,
                                MAX_SEQ)

        def manifests():
            for st in stages:
                checks.check_manifest(out / st.out)

        def plans():
            probs = [float(r["p_adjusted"]) for r in checks.read_csv(dataset / "weights.csv")]
            checks.check_plans(out / "plans", probs, self.seed, EPOCHS, s.workers)

        def predictions():
            for i, c in enumerate(inputs.contexts):
                ctx = Seq("", c["country"], None, checks.parse_date(c["date"]), None,
                          tuple(checks.parse_mut(m) for m in c["variant"].split(",") if m),
                          (checks.parse_mut(c["observed"]),))
                checks.check_predict(out / f"predict{i}" / "ranked.csv", ckpt, layout, layout.tokens(ctx), 10)

        out_checks = {
            "manifest": manifests,
            "tokens": lambda: checks.check_tokens(dataset, train, sample, s.vocab),
            "weights": lambda: checks.check_weights(dataset, LAM, inputs.train_cutoff),
            "plans": plans,
            "train_log": lambda: checks.check_train_log(out / "train" / "train_log.csv", layout.vocab),
            "predict": predictions,
            "report": lambda: checks.check_report(out / "eval" / "report.csv", "nucleotide", KS, nt, recalls),
            "spike_report": lambda: checks.check_spike_report(out / "eval_spike" / "report.csv", len(spike.seqs)),
        }
        if s.recall_gate:
            out_checks["recall_gate"] = lambda: checks.check_recall_gate(
                out / "eval" / "report.csv", s.genome, train, nt)
        if s.tables:
            ranked = [t for t, _ in checks.table_ranking(table, ALPHA, max(KS))]
            out_checks["definitions"] = lambda: checks.check_definitions(out / "defs" / "definitions.json", nodes)
            out_checks["baseline_ranked"] = lambda: checks.check_baseline_ranked(
                out / "ranked" / "ranked.csv", table, ALPHA, max(KS))
            out_checks["table_report"] = lambda: checks.check_report(
                out / "eval_table" / "report.csv", "nucleotide", KS, nt, checks.static_recalls(ranked, nt, KS))
        return out_checks


# -- generated inputs ----------------------------------------------------------------------


def nearest_cut(dates: list[datetime.date], target: float) -> datetime.date:
    """The date d for which the count of dates on or before d is nearest to
    ``target``."""
    dates = sorted(dates)
    best, gap = dates[-1], abs(len(dates) - target)
    for count, (date, nxt) in enumerate(zip(dates, dates[1:]), start=1):
        if date != nxt and abs(count - target) < gap:
            best, gap = date, abs(count - target)
    return best


def write_synthetic_orf(root: Path, genome: int, rng) -> None:
    """A spike ORF for a short synthetic genome: random sense codons and a stop."""
    start, end = SYNTH_ORF
    sense = sorted(c for c, aa in checks.CODON_TABLE.items() if aa != "*")
    n_codons = (end - start + 1) // 3
    seq = "".join(sense[i] for i in rng.integers(0, len(sense), size=n_codons - 1)) + "TAA"
    (root / "orf_annotation.tsv").write_text(f"genome\t1\t{genome}\nS\t{start}\t{end}\n")
    lines = [seq[i : i + 60] for i in range(0, len(seq), 60)]
    (root / "reference_orfs.fasta").write_text(f">S synthetic spike ORF {start}-{end}\n" + "\n".join(lines) + "\n")


def write_table(path: Path, genome: int, rng) -> None:
    """A nucleotide estimator table: 300 random substitutions, each with an
    expected count and a fitness."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mutation", "expected_count", "fitness"])
        for cell in rng.choice(genome * 4, size=300, replace=False):
            site, state = divmod(int(cell), 4)
            w.writerow([f"{site + 1}{'ATCG'[state]}", f"{rng.gamma(2.0, 5.0):.10g}", f"{rng.normal():.10g}"])
