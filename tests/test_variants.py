import numpy as np
import pytest
from hypothesis import given, strategies as st

from evotraj.genome import NT_STATES, NtMutation
from evotraj.tree import parse_tree
from evotraj.variants import (
    FrequencyTable,
    NextstrainDefinition,
    VariantDefinition,
    base_definition,
    load_nextstrain_definitions,
    merge_indels,
    order_recombinant,
    refine_definition,
    resolve_disagreement,
)


def brute_force_rule(usher_state, counts):
    # Deliberately different shape from the implementation: enumerate every
    # state and test the two clauses by explicit pairwise comparison.
    total = 0.0
    for s in NT_STATES:
        total += counts.get(s, 0.0)
    winner = None
    for s in NT_STATES:
        share_ok = total > 0 and counts.get(s, 0.0) / total > 0.5
        ratio_ok = True
        for other in NT_STATES:
            if other == s:
                continue
            if counts.get(s, 0.0) < 10.0 * counts.get(other, 0.0):
                ratio_ok = False
        if share_ok and ratio_ok:
            winner = s
    return winner if winner is not None else usher_state


TREE = parse_tree(
    [
        '{"id":"root","parent":null}',
        '{"id":"a","parent":"root","muts":["100T","200G"],"variant":"V"}',
        '{"id":"b","parent":"a","muts":["300C"]}',
        '{"id":"c","parent":"b","muts":["400A"],"variant":"V"}',
        '{"id":"leaf","parent":"c"}',
    ]
)


class TestBaseDefinition:
    def test_path_order(self):
        assert base_definition(TREE, "V") == [NtMutation(100, "T"), NtMutation(200, "G")]

    def test_closest_to_root_wins(self):
        # V is tagged at depth 1 (a) and depth 3 (c); depth-1 path is used
        muts = base_definition(TREE, "V")
        assert NtMutation(400, "A") not in muts

    def test_missing_variant(self):
        with pytest.raises(KeyError):
            base_definition(TREE, "nope")

    @pytest.mark.parametrize("first", ["a", "b"])
    def test_first_in_node_order_wins_a_depth_tie(self, first):
        # V is tagged at depth 3 (d, listed first), then at depth 1 twice
        # (a and b); the first depth-1 node in node order wins
        nodes = {
            "a": '{"id":"a","parent":"root","muts":["100T"],"variant":"V"}',
            "b": '{"id":"b","parent":"root","muts":["200G"],"variant":"V"}',
        }
        second = "b" if first == "a" else "a"
        tree = parse_tree([
            '{"id":"root","parent":null}',
            '{"id":"c","parent":"root","muts":["300C"]}',
            '{"id":"c2","parent":"c","muts":["350C"]}',
            '{"id":"d","parent":"c2","muts":["400A"],"variant":"V"}',
            nodes[first],
            nodes[second],
        ])
        expected = {"a": [NtMutation(100, "T")], "b": [NtMutation(200, "G")]}[first]
        assert base_definition(tree, "V") == expected
        assert tree.variant_roots == {"V": first}


class TestMergeIndels:
    def base(self):
        return VariantDefinition("V", [NtMutation(100, "T")])

    def test_deletion_range_expands(self):
        ns = NextstrainDefinition("V", dels=((11288, 11296),))
        merged = merge_indels(self.base(), ns)
        dels = [m for m in merged.nt_mutations if m.to == "-"]
        assert dels == [NtMutation(s, "-") for s in range(11288, 11297)]
        assert len(dels) == 9

    def test_insertion_is_metadata_only(self):
        ns = NextstrainDefinition("V", ins=((22204, "GAGCCAGAA"),))
        merged = merge_indels(self.base(), ns)
        assert merged.nt_mutations == [NtMutation(100, "T")]
        assert merged.indels[0].kind == "ins" and merged.indels[0].start == 22204

    def test_empty_definition_is_identity(self):
        merged = merge_indels(self.base(), NextstrainDefinition("V"))
        assert merged.nt_mutations == [NtMutation(100, "T")]
        assert not merged.indels


class TestResolveDisagreement:
    def test_clear_winner(self):
        counts = {"T": 120, "C": 10, "A": 0, "G": 0, "-": 0}
        assert resolve_disagreement(1000, "C", "T", counts) == "T"

    def test_majority_without_ratio_falls_back(self):
        counts = {"T": 60, "C": 40}
        assert resolve_disagreement(1000, "C", "T", counts) == "C"

    def test_ratio_blocked_by_third_state(self):
        counts = {"T": 55, "C": 5, "-": 45}
        assert resolve_disagreement(1000, "C", "T", counts) == "C"

    def test_zero_coverage_falls_back_to_first_source(self):
        assert resolve_disagreement(1000, "G", "A", {}) == "G"

    def test_deletion_can_win(self):
        counts = {"-": 500, "T": 3}
        assert resolve_disagreement(1000, "T", "-", counts) == "-"

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            counts = {
                s: float(rng.integers(0, 200)) for s in NT_STATES if rng.random() < 0.8
            }
            usher = NT_STATES[rng.integers(0, 5)]
            nextclade = NT_STATES[rng.integers(0, 5)]
            assert resolve_disagreement(1, usher, nextclade, counts) == brute_force_rule(
                usher, counts
            )

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=10_000), min_size=5, max_size=5),
        scale=st.integers(min_value=1, max_value=1000),
        usher=st.sampled_from(NT_STATES),
    )
    def test_scale_invariance(self, counts, scale, usher):
        base = dict(zip(NT_STATES, (float(c) for c in counts)))
        scaled = {s: c * scale for s, c in base.items()}
        assert resolve_disagreement(1, usher, "A", base) == resolve_disagreement(
            1, usher, "A", scaled
        )

    @given(
        counts=st.lists(st.floats(min_value=0, max_value=1e6), min_size=5, max_size=5),
        usher=st.sampled_from(NT_STATES),
        nextclade=st.sampled_from(NT_STATES),
    )
    def test_total_and_deterministic(self, counts, usher, nextclade):
        freq = dict(zip(NT_STATES, counts))
        first = resolve_disagreement(1, usher, nextclade, freq)
        assert first in NT_STATES
        assert resolve_disagreement(1, usher, nextclade, freq) == first


class TestOrderRecombinant:
    def test_sorts_by_site(self):
        d = VariantDefinition(
            "XR",
            [NtMutation(500, "A"), NtMutation(100, "T"), NtMutation(300, "G")],
            is_recombinant=True,
        )
        assert order_recombinant(d).nt_mutations == [
            NtMutation(100, "T"),
            NtMutation(300, "G"),
            NtMutation(500, "A"),
        ]

    def test_sorted_input_unchanged(self):
        d = VariantDefinition(
            "XR", [NtMutation(100, "T"), NtMutation(300, "G")], is_recombinant=True
        )
        assert order_recombinant(d).nt_mutations == d.nt_mutations

    def test_stable_for_equal_sites(self):
        d = VariantDefinition(
            "XR", [NtMutation(100, "T"), NtMutation(100, "-")], is_recombinant=True
        )
        assert order_recombinant(d).nt_mutations == [NtMutation(100, "T"), NtMutation(100, "-")]

    def test_non_recombinant_rejected(self):
        with pytest.raises(ValueError):
            order_recombinant(VariantDefinition("V", []))

    def test_non_recombinant_keeps_path_order(self):
        d = refine_definition(TREE, "V")
        assert d.nt_mutations == [NtMutation(100, "T"), NtMutation(200, "G")]


class TestRefineSchedule:
    def test_disagreement_resolution_updates_trace(self):
        freq = FrequencyTable()
        freq.set_counts("V", 200, {"C": 400, "G": 2})
        ns = NextstrainDefinition("V", subs=(NtMutation(200, "C"),))
        d = refine_definition(TREE, "V", ns, freq)
        assert NtMutation(200, "C") in d.nt_mutations
        assert NtMutation(200, "G") not in d.nt_mutations
        assert d.source_trace[200] == "covspectrum-resolved"

    def test_fallback_keeps_tree_state(self):
        freq = FrequencyTable()
        freq.set_counts("V", 200, {"C": 60, "G": 40})
        ns = NextstrainDefinition("V", subs=(NtMutation(200, "C"),))
        d = refine_definition(TREE, "V", ns, freq)
        assert NtMutation(200, "G") in d.nt_mutations

    def test_recombinant_ordering_applied(self):
        tree = parse_tree(
            [
                '{"id":"root","parent":null}',
                '{"id":"x","parent":"root","muts":["900A","100T"],"variant":"XR"}',
                '{"id":"leaf","parent":"x"}',
            ]
        )
        d = refine_definition(tree, "XR", is_recombinant=True)
        assert [m.site for m in d.nt_mutations] == [100, 900]


class TestIO:
    def test_nextstrain_file_parsing(self, tmp_path):
        p = tmp_path / "defs.json"
        p.write_text(
            '{"V":{"subs":["C1000T"],"dels":["11288-11296"],"ins":["22204:GAG"]}}'
        )
        defs = load_nextstrain_definitions(p)
        assert defs["V"].subs == (NtMutation(1000, "T"),)
        assert defs["V"].dels == ((11288, 11296),)
        assert defs["V"].ins == ((22204, "GAG"),)

    def test_frequency_csv(self, tmp_path):
        p = tmp_path / "freq.csv"
        p.write_text("variant,site,A,T,C,G,-\nV,100,1,2,3,4,5\n")
        table = FrequencyTable.load_csv(p)
        assert table.counts("V", 100) == {"A": 1, "T": 2, "C": 3, "G": 4, "-": 5}
        assert table.counts("V", 999) == {}


class TestFrequencyCsvDelColumn:
    def test_documented_del_header(self, tmp_path):
        p = tmp_path / "freq.csv"
        p.write_text("variant,site,A,T,C,G,Del\nV,100,1,2,3,4,5\n")
        table = FrequencyTable.load_csv(p)
        assert table.counts("V", 100) == {"A": 1, "T": 2, "C": 3, "G": 4, "-": 5}
