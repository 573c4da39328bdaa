import math

import numpy as np
import pytest

from evotraj.baseline import (
    BloomRecord,
    BloomTable,
    load_bloom_table,
    mixed_score,
    rank_aa_table,
    rank_nt_table,
    record_score,
)
from evotraj.genome import AaMutation
from evotraj.pipeline import write_csv
from evotraj.tokenizer import LayoutSpec, Tokenizer

TOK = Tokenizer(LayoutSpec(genome_length=2000))


def write_bloom_table(records, path):
    """A table in the format ``load_bloom_table`` reads."""
    write_csv(
        path,
        ["mutation", "expected_count", "fitness"],
        ([r.mutation, f"{r.expected_count:.10g}", f"{r.fitness:.10g}"] for r in records),
    )


def nt_table(rows):
    return BloomTable(kind="nt", records=tuple(BloomRecord(*r) for r in rows))


class TestMixedScore:
    def test_exponent_zero(self):
        assert mixed_score(1.0, 0.0) == 1.0

    def test_worked_value(self):
        assert mixed_score(2.0, 1.0, alpha=1.0) == pytest.approx(2 * math.e)

    def test_alpha_zero_reduces_to_count(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c, f = rng.uniform(0, 50), rng.normal()
            assert mixed_score(c, f, alpha=0.0) == c

    def test_monotone_in_count_and_fitness(self):
        assert mixed_score(3.0, 1.0) > mixed_score(2.0, 1.0)
        assert mixed_score(2.0, 2.0) > mixed_score(2.0, 1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BloomRecord("C10T", -1.0, 0.0)


class TestRankNt:
    def test_highest_score_first(self):
        table = nt_table([("C10T", 5.0, 0.0), ("C20T", 3.0, 0.0)])
        ranked = rank_nt_table(table, "count", k=1, tokenizer=TOK)
        assert ranked[0][0] == TOK.mutation_token(10, "T")

    def test_tie_breaks_by_token_id(self):
        table = nt_table([("C500T", 2.0, 0.0), ("C20G", 2.0, 0.0)])
        ranked = rank_nt_table(table, "count", k=2, tokenizer=TOK)
        assert ranked[0][0] == TOK.mutation_token(20, "G")
        assert ranked[1][0] == TOK.mutation_token(500, "T")

    def test_mixed_differs_from_both_pure_modes(self):
        # count order: a > b > c; fitness order: c > b > a; mixed puts b first
        table = nt_table(
            [("C10T", 10.0, -2.0), ("C20T", 5.0, 1.0), ("C30T", 1.0, 2.0)]
        )
        by = lambda mode: [t for t, _ in rank_nt_table(table, mode, 3, TOK)]
        count_order = by("count")
        fitness_order = by("fitness")
        mixed_order = by("mixed")
        assert mixed_order != count_order and mixed_order != fitness_order
        assert mixed_order[0] == TOK.mutation_token(20, "T")

    def test_alpha_to_zero_converges_to_count_ranking(self):
        rng = np.random.default_rng(1)
        rows = [
            (f"C{site}T", float(rng.uniform(0.1, 100)), float(rng.normal()))
            for site in rng.choice(np.arange(1, 2001), size=1000, replace=False)
        ]
        table = nt_table(rows)
        count_rank = [t for t, _ in rank_nt_table(table, "count", 50, TOK)]
        tiny_alpha = [t for t, _ in rank_nt_table(table, "mixed", 50, TOK, alpha=1e-9)]
        assert count_rank == tiny_alpha

    def test_k_validation(self):
        with pytest.raises(ValueError):
            rank_nt_table(nt_table([("C10T", 1, 0)]), "count", 0, TOK)

    def test_wrong_kind_rejected(self):
        aa = BloomTable(kind="aa", records=(BloomRecord("S:Q493E", 1, 0),))
        with pytest.raises(ValueError):
            rank_nt_table(aa, "count", 1, TOK)


class TestRankAa:
    def test_rank_and_tie_break(self):
        table = BloomTable(
            kind="aa",
            records=(
                BloomRecord("S:Q493E", 2.0, 0.0),
                BloomRecord("S:D614G", 2.0, 0.0),
                BloomRecord("S:N501Y", 9.0, 0.0),
            ),
        )
        ranked = [m.fmt() for m, _ in rank_aa_table(table, "count", 3)]
        assert ranked == ["S:N501Y", "S:Q493E", "S:D614G"]


class TestStructure:
    def test_rankings_are_context_independent(self):
        table = nt_table([("C10T", 5.0, 0.0), ("C20T", 3.0, 0.0)])
        a = rank_nt_table(table, "mixed", 2, TOK)
        b = rank_nt_table(table, "mixed", 2, TOK)
        assert a == b

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            nt_table([("C10T", 1, 0), ("C10T", 2, 0)])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            record_score(BloomRecord("C10T", 1, 0), "median")


class TestIO:
    def test_roundtrip(self, tmp_path):
        records = [BloomRecord("C10T", 1.5, -0.25), BloomRecord("C20G", 0.0, 2.0)]
        p = tmp_path / "table.csv"
        write_bloom_table(records, p)
        table = load_bloom_table(p)
        assert table.kind == "nt"
        assert list(table.records) == records

    def test_aa_detection(self, tmp_path):
        p = tmp_path / "aa.csv"
        write_bloom_table([BloomRecord("S:Q493E", 1.0, 0.5)], p)
        assert load_bloom_table(p).kind == "aa"

    def test_mixed_forms_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_bloom_table([BloomRecord("C10T", 1, 0), BloomRecord("S:Q493E", 1, 0)], p)
        with pytest.raises(ValueError, match="mixes"):
            load_bloom_table(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("mutation,expected_count,fitness\n")
        with pytest.raises(ValueError, match="empty"):
            load_bloom_table(p)
