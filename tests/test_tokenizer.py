import re

import pytest
from hypothesis import given, settings, strategies as st

from evotraj.genome import NT_STATES, NtMutation
from evotraj.pipeline import Refused
from evotraj.tokenizer import (
    PREFIX_LENGTH,
    LayoutSpec,
    TokenizedSample,
    Tokenizer,
    read_token_stream,
    write_token_stream,
)
from evotraj.tree import PartialDate, SequenceMeta, Trajectory


@pytest.fixture
def tok():
    return Tokenizer()


class TestVocabularyTotals:
    def test_default_layout_is_150210(self, tok):
        assert tok.vocab_size == 150_210

    def test_block_sizes(self, tok):
        assert tok.mutation_block == (0, 149_515)
        assert tok.location_block == (149_515, 149_881)
        assert tok.day_block[1] - tok.year_block[0] == 122
        assert tok.unknown_token == 150_003
        assert tok.reserved_block == (150_004, 150_210)

    def test_small_genome_layout(self):
        t = Tokenizer(LayoutSpec(genome_length=1000))
        assert t.vocab_size == 1000 * 5 + 366 + 122 + 1 + 206


class TestMutationTokens:
    def test_first_site_first_state(self, tok):
        assert tok.mutation_token(1, "A") == 0

    def test_last_site_deletion(self, tok):
        assert tok.mutation_token(29_903, "-") == 149_514

    def test_out_of_range(self, tok):
        with pytest.raises(ValueError):
            tok.mutation_token(0, "A")
        with pytest.raises(ValueError):
            tok.mutation_token(29_904, "A")

    def test_bijection_with_mutation_block(self, tok):
        small = Tokenizer(LayoutSpec(genome_length=50))
        seen = set()
        for site in range(1, 51):
            for state in NT_STATES:
                t = small.mutation_token(site, state)
                assert small.mutation_block[0] <= t < small.mutation_block[1]
                assert t not in seen
                seen.add(t)
                assert small.mutation_of_token(t) == NtMutation(site, state)
        assert len(seen) == small.mutation_block[1]

    def test_origin_state_is_irrelevant(self, tok):
        # A1T and G1T are the same event for the encoder
        assert NtMutation.parse("A1T") == NtMutation.parse("G1T")
        a = tok.mutation_token(*((m := NtMutation.parse("A1T")).site, m.to))
        g = tok.mutation_token(*((m := NtMutation.parse("G1T")).site, m.to))
        assert a == g


class TestTimeTokens:
    def test_base_date(self, tok):
        y, m, d = tok.time_tokens(PartialDate(2019, 1, 1))
        assert y == tok.year_block[0]
        assert m == tok.month_block[0]
        assert d == tok.day_block[0]

    def test_last_representable_date(self, tok):
        y, m, d = tok.time_tokens(PartialDate(2025, 12, 31))
        assert y == tok.year_block[0] + 6
        assert m == tok.month_block[0] + 83
        assert d == tok.day_block[0] + 30

    def test_partial_dates_fill_unknown(self, tok):
        u = tok.unknown_token
        assert tok.time_tokens(PartialDate(2025)) == (tok.year_block[0] + 6, u, u)
        y, m, d = tok.time_tokens(PartialDate(2025, 3))
        assert d == u and m == tok.month_block[0] + 6 * 12 + 2

    def test_no_date_is_all_unknown(self, tok):
        u = tok.unknown_token
        assert tok.time_tokens(None) == (u, u, u)

    def test_year_out_of_range(self, tok):
        with pytest.raises(ValueError, match="out of layout range"):
            tok.time_tokens(PartialDate(2026, 1, 1))
        with pytest.raises(ValueError, match="out of layout range"):
            tok.time_tokens(PartialDate(2018))


class TestLocationRegistry:
    def test_first_registered_gets_first_id(self, tok):
        t = tok.register_location("Germany")
        assert t == tok.location_block[0]
        assert tok.location_tokens("Germany", None) == (t, tok.unknown_token)

    def test_unregistered_is_unknown(self, tok):
        assert tok.location_tokens("Atlantis", None) == (tok.unknown_token,) * 2

    def test_reregistering_is_idempotent(self, tok):
        a = tok.register_location("Kenya")
        assert tok.register_location("Kenya") == a
        assert len(tok.locations) == 1

    def test_overflow_consumes_reserved_ids(self):
        t = Tokenizer(LayoutSpec(genome_length=10))
        for i in range(366):
            t.register_location(f"loc{i}")
        overflow = t.register_location("loc366")
        assert overflow == t.reserved_block[0]
        assert t.location_tokens("loc366", None)[0] == overflow

    def test_registry_exhaustion(self):
        t = Tokenizer(LayoutSpec(genome_length=10))
        for i in range(366 + 206):
            t.register_location(f"loc{i}")
        with pytest.raises(ValueError, match="registry full"):
            t.register_location("one-too-many")


def mk_trajectory(country="Germany", region=None, date="2025-03-05", variant=2, private=1):
    return Trajectory(
        meta=SequenceMeta(
            name="s",
            collected=None if date is None else PartialDate.parse(date),
            released=PartialDate(2025, 6, 1),
            country=country,
            region=region,
        ),
        variant_name="V",
        variant_mutations=tuple(NtMutation(10 + i, "T") for i in range(variant)),
        sequence_mutations=tuple(NtMutation(100 + i, "G") for i in range(private)),
    )


class TestTokenizeDetokenize:
    def test_empty_trajectory(self, tok):
        tok.register_location("Germany")
        sample = tok.tokenize(mk_trajectory(variant=0, private=0))
        assert len(sample.prefix_tokens) == PREFIX_LENGTH
        assert sample.trajectory_tokens == ()

    def test_split_index_and_mask(self, tok):
        sample = tok.tokenize(mk_trajectory(variant=2, private=1))
        assert sample.split_index == 2
        assert len(sample.trajectory_tokens) == 3

    def test_roundtrip_simple(self, tok):
        tok.register_location("Germany")
        traj = mk_trajectory()
        out = tok.detokenize(tok.tokenize(traj))
        assert out.country == "Germany"
        assert out.region is None
        assert out.date == PartialDate(2025, 3, 5)
        assert out.variant_mutations == traj.variant_mutations
        assert out.sequence_mutations == traj.sequence_mutations

    def test_detokenize_rejects_foreign_token(self, tok):
        sample = TokenizedSample(
            prefix_tokens=(tok.unknown_token,) * 5,
            trajectory_tokens=(tok.vocab_size - 1,),
            split_index=0,
        )
        with pytest.raises(ValueError, match=str(tok.vocab_size - 1)):
            tok.detokenize(sample)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, data):
        t = Tokenizer(LayoutSpec(genome_length=500))
        for name in ("A", "B", "C"):
            t.register_location(name)
        country = data.draw(st.sampled_from([None, "A", "B", "C"]))
        region = data.draw(st.sampled_from([None, "A", "C"]))
        has_date = data.draw(st.booleans())
        date = None
        if has_date:
            y = data.draw(st.integers(2019, 2025))
            m = data.draw(st.sampled_from([None, 1, 6, 12]))
            d = None if m is None else data.draw(st.sampled_from([None, 1, 28]))
            date = PartialDate(y, m, d)
        n_var = data.draw(st.integers(0, 5))
        n_priv = data.draw(st.integers(0, 5))
        muts = data.draw(
            st.lists(
                st.tuples(st.integers(1, 500), st.sampled_from(NT_STATES)),
                min_size=n_var + n_priv,
                max_size=n_var + n_priv,
            )
        )
        traj = Trajectory(
            meta=SequenceMeta(name="s", collected=date, country=country, region=region),
            variant_name="V",
            variant_mutations=tuple(NtMutation(s, ns) for s, ns in muts[:n_var]),
            sequence_mutations=tuple(NtMutation(s, ns) for s, ns in muts[n_var:]),
        )
        out = t.detokenize(t.tokenize(traj))
        assert out.country == country
        assert out.region == region
        assert out.date == date
        assert out.variant_mutations == traj.variant_mutations
        assert out.sequence_mutations == traj.sequence_mutations


class TestPersistence:
    def test_save_load_byte_identical(self, tmp_path, tok):
        tok.register_location("Germany")
        tok.register_location("Bavaria")
        p1 = tmp_path / "layout.txt"
        tok.save(p1)
        reloaded = Tokenizer.load(p1)
        p2 = tmp_path / "layout2.txt"
        reloaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert reloaded.locations == tok.locations
        assert reloaded.vocab_size == tok.vocab_size

    def test_ids_stable_across_updates(self, tmp_path, tok):
        tok.register_location("Germany")
        tok.save(tmp_path / "layout.txt")
        updated = Tokenizer.load(tmp_path / "layout.txt")
        updated.register_location("Kenya")
        assert updated.location_tokens("Germany", None) == tok.location_tokens("Germany", None)

    def test_load_rejects_other_files(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("not a layout\n")
        with pytest.raises(ValueError, match="not a tokenizer layout"):
            Tokenizer.load(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("day_count 31\n", ""), "layout key day_count is missing"),
        (lambda text: text + "month_count 84\n", "unknown layout key 'month_count'"),
        (lambda text: text.replace("year_count 7", "year_count seven"),
         "layout key year_count has non-integer value 'seven'"),
        (lambda text: text + "genome_length 500\n", "layout key genome_length is repeated"),
        (lambda text: text + "location Alandia\nlocation Alandia\n", "location 'Alandia' is repeated"),
    ], ids=["missing", "unknown", "non-integer", "repeated-key", "repeated-location"])
    def test_load_names_the_file_for_a_bad_key(self, tmp_path, edit, message):
        p = tmp_path / "layout.txt"
        Tokenizer(LayoutSpec(genome_length=10)).save(p)
        p.write_text(edit(p.read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}$"):
            Tokenizer.load(p)


class TestTokenStream:
    def test_roundtrip(self, tmp_path, tok):
        samples = [
            tok.tokenize(mk_trajectory(variant=v, private=p))
            for v, p in [(0, 0), (2, 1), (5, 3)]
        ]
        path = tmp_path / "tokens.bin"
        write_token_stream(samples, path)
        assert read_token_stream(path) == samples

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"JUNK" + b"\0" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            read_token_stream(p)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=3
        )
    )
    def test_truncation_at_every_offset_names_path_and_offset(self, tmp_path_factory, shapes):
        tok = Tokenizer()
        samples = [tok.tokenize(mk_trajectory(variant=v, private=p)) for v, p in shapes]
        path = tmp_path_factory.mktemp("stream") / "tokens.bin"
        write_token_stream(samples, path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError) as err:
                read_token_stream(path)
            assert str(path) in str(err.value)
            assert f"file ends at byte {cut}" in str(err.value)

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 7, b"\0" * 12],
                             ids=["one-byte", "seven-bytes", "one-header"])
    def test_data_past_the_last_sample_refused(self, tmp_path, tok, extra):
        # twelve bytes would hold a whole sample header, yet the stream's
        # sample count ends its data before them
        path = tmp_path / "tokens.bin"
        write_token_stream([tok.tokenize(mk_trajectory(variant=1, private=2))], path)
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(Refused) as err:
            read_token_stream(path)
        assert str(err.value) == f"{path}: {len(extra)} bytes past the data, which ends at byte offset {end}"

    @pytest.mark.parametrize("n_prefix, split_index, message", [
        (3, 0, "sample 1 has a prefix of 3 tokens, not 5"),
        (PREFIX_LENGTH, 3, "sample 1 has split index 3 beyond its 2 trajectory tokens"),
    ], ids=["short-prefix", "split-beyond-trajectory"])
    def test_unmeant_sample_header_refused(self, tmp_path, tok, n_prefix, split_index, message):
        # a header the tokenizer cannot have written: training would mask its
        # loss by this prefix, while ranking and evaluation assume PREFIX_LENGTH
        good = tok.tokenize(mk_trajectory(variant=1, private=1))
        bad = TokenizedSample(good.tokens[:n_prefix], good.tokens[n_prefix:][:2], split_index)
        path = tmp_path / "tokens.bin"
        write_token_stream([good, bad], path)
        with pytest.raises(Refused) as err:
            read_token_stream(path)
        assert str(err.value) == f"{path}: {message}"

    def test_deterministic_bytes(self, tmp_path, tok):
        samples = [tok.tokenize(mk_trajectory())]
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_token_stream(samples, a)
        write_token_stream(samples, b)
        assert a.read_bytes() == b.read_bytes()
