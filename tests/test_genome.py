import pytest

from evotraj import genome
from evotraj.genome import (
    AaMutation,
    Frameshift,
    NtMutation,
    SpikeMap,
    SpikeState,
    load_annotation,
    reachable_aa_mutations,
    translate_codon,
)


def independent_codon_table() -> dict[str, str]:
    # Transcribed from the NCBI standard-code amino-acid string, which orders
    # codons TTT, TTC, TTA, ... with base order T, C, A, G. Deliberately a
    # different encoding than the table in the source module.
    aa_string = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
    order = "TCAG"
    table = {}
    i = 0
    for b1 in order:
        for b2 in order:
            for b3 in order:
                table[b1 + b2 + b3] = aa_string[i]
                i += 1
    return table


@pytest.fixture(scope="module")
def annotation():
    return load_annotation()


@pytest.fixture(scope="module")
def spike_map(annotation):
    return SpikeMap(annotation)


class TestTranslateCodon:
    def test_full_table_matches_independent_transcription(self):
        oracle = independent_codon_table()
        assert len(oracle) == 64
        for codon, aa in oracle.items():
            assert translate_codon(codon) == aa, codon

    def test_canonical_codons(self):
        assert translate_codon("ATG") == "M"
        assert translate_codon("TAA") == "*"
        assert translate_codon("GAT") == "D"

    def test_deleted_position_rejected(self):
        with pytest.raises(ValueError, match="codon incomplete"):
            translate_codon("GA-")

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            translate_codon("GATT")


class TestCodonOfSite:
    def test_orf_boundaries(self, spike_map):
        start = spike_map.orf.nt_start
        assert spike_map.codon_of_site(start) == (1, 0)
        assert spike_map.codon_of_site(start - 1) is None
        assert spike_map.codon_of_site(start + 4) == (2, 1)
        assert spike_map.codon_of_site(spike_map.orf.nt_end) == (1274, 2)
        assert spike_map.codon_of_site(spike_map.orf.nt_end + 1) is None

    def test_out_of_genome_raises(self, spike_map):
        with pytest.raises(ValueError):
            spike_map.codon_of_site(0)
        with pytest.raises(ValueError):
            spike_map.codon_of_site(spike_map.genome_length + 1)

    def test_partition_covers_exactly_spike_span(self, spike_map):
        inside = sum(
            spike_map.codon_of_site(site) is not None
            for site in range(1, spike_map.genome_length + 1)
        )
        assert inside == 3822

    def test_site_of_codon_inverts(self, spike_map):
        for codon_idx in (1, 2, 614, 1273, 1274):
            for offset in range(3):
                site = spike_map.site_of_codon(codon_idx, offset)
                assert spike_map.codon_of_site(site) == (codon_idx, offset)


class TestAaMutationOf:
    def test_d614g(self, spike_map):
        # reference codon at residue 614 is GAT; mutating its middle base to G
        # gives GGT. Verified by independent replay: GAT->D, GGT->G.
        site = spike_map.site_of_codon(614, 1)
        assert spike_map.reference_codon(614) == "GAT"
        effect = spike_map.aa_mutation_of(NtMutation(site, "G"), "GAT")
        assert effect == AaMutation("S", 614, "D", "G")

    def test_outside_spike_is_none(self, spike_map):
        assert spike_map.aa_mutation_of(NtMutation(100, "T"), "GAT") is None

    def test_synonymous_is_none(self, spike_map):
        # CTA -> CTG both translate to L
        site = spike_map.site_of_codon(10, 2)
        assert spike_map.aa_mutation_of(NtMutation(site, "G"), "CTA") is None

    def test_stop_codon_site_excluded(self, spike_map):
        site = spike_map.site_of_codon(1274, 0)
        assert spike_map.aa_mutation_of(NtMutation(site, "G"), "TAA") is None

    def test_partial_deletion_is_frameshift(self, spike_map):
        site = spike_map.site_of_codon(70, 1)
        effect = spike_map.aa_mutation_of(NtMutation(site, "-"), "GTC")
        assert effect == Frameshift("S", 70)

    def test_full_codon_deletion_reports_reference_aa(self, spike_map):
        ref_aa = translate_codon(spike_map.reference_codon(70))
        site = spike_map.site_of_codon(70, 2)
        effect = spike_map.aa_mutation_of(NtMutation(site, "-"), "--C")
        assert effect == AaMutation("S", 70, ref_aa, "-")

    def test_substitution_in_partially_deleted_codon_is_frameshift(self, spike_map):
        site = spike_map.site_of_codon(70, 0)
        effect = spike_map.aa_mutation_of(NtMutation(site, "T"), "G-C")
        assert effect == Frameshift("S", 70)

    def test_no_op_mutation_is_none(self, spike_map):
        site = spike_map.site_of_codon(614, 0)
        assert spike_map.aa_mutation_of(NtMutation(site, "G"), "GAT") is None

    def test_roundtrip_exhaustive_codon_enumeration(self, spike_map):
        # every codon context x position x alternative base: applying the
        # substitution then translating must reproduce the reported to_aa
        for codon in genome.GENETIC_CODE:
            for offset in range(3):
                site = spike_map.site_of_codon(50, offset)
                for base in genome.BASES:
                    if base == codon[offset]:
                        continue
                    after = codon[:offset] + base + codon[offset + 1 :]
                    effect = spike_map.aa_mutation_of(NtMutation(site, base), codon)
                    if translate_codon(after) == translate_codon(codon):
                        assert effect is None
                    else:
                        assert isinstance(effect, AaMutation)
                        assert effect.to_aa == translate_codon(after)
                        assert effect.from_aa == translate_codon(codon)
                        assert effect.pos == 50

    def test_residue_index_never_exceeds_1273(self, spike_map):
        for codon_idx in (1, 637, 1273):
            for offset in range(3):
                site = spike_map.site_of_codon(codon_idx, offset)
                context = spike_map.reference_codon(codon_idx)
                for base in genome.BASES:
                    effect = spike_map.aa_mutation_of(NtMutation(site, base), context)
                    if isinstance(effect, AaMutation):
                        assert effect.pos <= 1273


class TestReachableCount:
    def test_reference_reachable_count_in_expected_band(self, spike_map):
        reachable = reachable_aa_mutations(spike_map)
        assert 7_000 <= len(reachable) <= 8_500


class TestSpikeState:
    def test_sequential_context_tracking(self, spike_map):
        state = SpikeState(spike_map)
        s1 = spike_map.site_of_codon(614, 1)
        first = state.apply(NtMutation(s1, "G"))
        assert first == AaMutation("S", 614, "D", "G")
        # same codon, first base: context is now GGT, not the reference GAT
        s0 = spike_map.site_of_codon(614, 0)
        second = state.apply(NtMutation(s0, "C"))
        assert second == AaMutation("S", 614, "G", "R")  # GGT->G, CGT->R

    def test_outside_sites_ignored(self, spike_map):
        state = SpikeState(spike_map)
        assert state.apply(NtMutation(5, "T")) is None

    def test_sources_of_maps_only_states_that_change_a_base(self, spike_map, monkeypatch):
        # codon 614 in force is GAC (D): GGC and GGT are both G, so only the
        # second site's G makes D614G. One step maps its three sites with the
        # four states other than the base in force there, and finds what all
        # fifteen (site, state) pairs find
        state = SpikeState(spike_map)
        state.write(NtMutation(spike_map.site_of_codon(614, 2), "C"))
        change = AaMutation("S", 614, "D", "G")
        sites = [spike_map.site_of_codon(614, offset) for offset in range(3)]
        every = [NtMutation(site, s) for site in sites for s in genome.NT_STATES]
        assert [m for m in every if state.effect_of(m) == change] == [NtMutation(sites[1], "G")]
        calls = []
        aa_mutation_of = SpikeMap.aa_mutation_of
        monkeypatch.setattr(SpikeMap, "aa_mutation_of", lambda s, m, c: calls.append(m) or aa_mutation_of(s, m, c))
        assert state.sources_of(change) == [NtMutation(sites[1], "G")]
        assert len(calls) == 12


class TestMutationParsing:
    def test_origin_base_ignored(self):
        assert NtMutation.parse("C1000T") == NtMutation.parse("1000T") == NtMutation(1000, "T")

    def test_deletion(self):
        assert NtMutation.parse("1000-") == NtMutation(1000, "-")
        assert NtMutation.parse("A1000-") == NtMutation(1000, "-")

    def test_malformed_rejected(self):
        for bad in ("", "T", "12", "X1000T", "1000Z", "10 00T"):
            with pytest.raises(ValueError):
                NtMutation.parse(bad)

    def test_fmt_parse_roundtrip(self):
        for mut in (NtMutation(1, "A"), NtMutation(29903, "-")):
            assert NtMutation.parse(mut.fmt()) == mut

    def test_aa_mutation_fmt(self):
        assert AaMutation("S", 614, "D", "G").fmt() == "S:D614G"
        assert AaMutation.parse("S:Q493E") == AaMutation("S", 493, "Q", "E")


class TestAnnotationLoading:
    def test_default_annotation_loads(self, annotation):
        assert annotation.genome_length == 29_903
        assert annotation.spike.nt_start == 21_563
        assert annotation.spike.nt_end == 25_384
        assert annotation.spike.n_codons == 1274

    def test_bad_span_rejected(self, tmp_path):
        ann = tmp_path / "ann.tsv"
        ann.write_text("genome\t1\t100\nS\t10\t20\n")
        fa = tmp_path / "ref.fasta"
        fa.write_text(">S\n" + "A" * 11 + "\n")
        with pytest.raises(genome.AnnotationError):
            load_annotation(ann, fa)

    def test_internal_stop_rejected(self, tmp_path):
        seq = "ATG" + "TAA" + "GGT" * 1271 + "TAA"
        ann = tmp_path / "ann.tsv"
        ann.write_text(f"genome\t1\t29903\nS\t21563\t{21563 + len(seq) - 1}\n")
        fa = tmp_path / "ref.fasta"
        fa.write_text(">S\n" + seq + "\n")
        with pytest.raises(genome.AnnotationError, match="internal stop"):
            load_annotation(ann, fa)


class TestClassifySite:
    def test_classification(self, spike_map):
        assert spike_map.codon_of_site(100) is None
        assert spike_map.codon_of_site(spike_map.site_of_codon(614, 1)) == (614, 1)
        assert spike_map.orf.n_codons == 1274
        assert spike_map.codon_of_site(spike_map.site_of_codon(1274, 0)) == (1274, 0)
