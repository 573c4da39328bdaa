import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evotraj.pipeline import Refused
from evotraj.sampler import (
    EpochSelection,
    WorkerState,
    load_plan,
    run_epoch,
    run_worker,
    save_plan,
    shard,
    shuffle_pool,
)


class TestEncounter:
    def test_crossing_one_integer(self):
        s = WorkerState(0, accumulator=0.95)
        assert s.encounter(0.10) == 1
        assert s.accumulator == pytest.approx(1.05)

    def test_large_probability_multiple_copies(self):
        s = WorkerState(0)
        assert s.encounter(2.30) == 2

    def test_no_crossing(self):
        s = WorkerState(0, accumulator=0.20)
        assert s.encounter(0.30) == 0

    def test_nonpositive_rejected(self):
        s = WorkerState(0)
        with pytest.raises(ValueError):
            s.encounter(0.0)
        with pytest.raises(ValueError):
            s.encounter(-0.5)

    @given(st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=200))
    def test_copies_bounded_by_floor_ceil(self, ps):
        s = WorkerState(0)
        for p in ps:
            copies = s.encounter(p)
            assert math.floor(p) <= copies <= math.ceil(p)

    @given(st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=200))
    def test_accumulator_identity(self, ps):
        s = WorkerState(0)
        total = sum(s.encounter(p) for p in ps)
        assert total == math.floor(s.accumulator)


class TestRunEpoch:
    def test_half_probability_selects_exactly_half(self):
        sel = run_epoch([0.5] * 10, seed=1)
        assert sel.total_copies == 5

    def test_probability_three_gives_three_copies(self):
        sel = run_epoch([3.0], seed=1)
        assert sel.flatten() == [0, 0, 0]

    def test_empty_pool(self):
        sel = run_epoch([], seed=1)
        assert sel.total_copies == 0

    def test_deterministic_given_seed(self):
        ps = list(np.random.default_rng(3).uniform(0.05, 2.0, size=500))
        a = run_epoch(ps, seed=42, n_workers=4)
        b = run_epoch(ps, seed=42, n_workers=4)
        assert a.per_worker == b.per_worker
        c = run_epoch(ps, seed=43, n_workers=4)
        assert a.per_worker != c.per_worker

    def test_worker_shards_are_share_nothing(self):
        # same shard contents -> same selections regardless of other workers
        ps = list(np.random.default_rng(5).uniform(0.1, 1.5, size=120))
        pool = shuffle_pool(len(ps), seed=9)
        shards = shard(pool, 3)
        solo = [run_worker(s, ps, w) for w, s in enumerate(shards)]
        epoch = run_epoch(ps, seed=9, n_workers=3)
        assert epoch.per_worker == solo

    def test_total_bounded_by_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ps = rng.uniform(0.01, 2.5, size=rng.integers(1, 300)).tolist()
            sel = run_epoch(ps, seed=int(rng.integers(1 << 30)), n_workers=int(rng.integers(1, 6)))
            # each worker floors its own accumulator, so the epoch total sits
            # within n_workers of floor(sum p)
            assert abs(sel.total_copies - math.floor(sum(ps))) <= len(sel.per_worker)

    def test_expected_copies_match_probability_under_random_phase(self):
        rng = np.random.default_rng(17)
        n = 100_000
        for p in (0.3, 0.8, 1.7):
            phases = rng.uniform(0, 1, size=n)
            copies = np.floor(phases + p) - np.floor(phases)
            sigma = copies.std(ddof=1) / math.sqrt(n)
            assert abs(copies.mean() - p) <= 3 * max(sigma, 1e-12)


class TestSharding:
    def test_contiguous_cover(self):
        pool = shuffle_pool(10, seed=0)
        shards = shard(pool, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert np.concatenate(shards).tolist() == pool.tolist()

    def test_single_worker(self):
        pool = shuffle_pool(5, seed=0)
        assert shard(pool, 1)[0].tolist() == pool.tolist()

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            shard([1, 2], 0)


class TestPlanIO:
    def test_roundtrip(self, tmp_path):
        ps = list(np.random.default_rng(2).uniform(0.2, 1.2, size=50))
        sel = run_epoch(ps, seed=7, n_workers=2)
        path = tmp_path / "epoch0.plan"
        save_plan(sel, path)
        loaded = load_plan(path)
        assert loaded.per_worker == sel.per_worker

    def test_bad_file_rejected(self, tmp_path):
        p = tmp_path / "x.plan"
        p.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_plan(p)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.floats(0.05, 2.5), min_size=1, max_size=12),
        st.integers(1, 3),
    )
    def test_truncation_at_every_offset_names_path_and_offset(self, tmp_path_factory, ps, workers):
        path = tmp_path_factory.mktemp("plan") / "epoch_000.plan"
        save_plan(run_epoch(ps, seed=1, n_workers=workers), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError) as err:
                load_plan(path)
            assert str(path) in str(err.value)
            assert f"file ends at byte {cut}" in str(err.value)

    @pytest.mark.parametrize("extra", [b"\0", b"\0\0\0", b"\1\0\0\0\2\0\0\0"],
                             ids=["one-byte", "three-bytes", "one-more-pair"])
    def test_data_past_the_last_worker_refused(self, tmp_path, extra):
        path = tmp_path / "epoch_000.plan"
        save_plan(run_epoch([0.6, 1.3, 0.9], seed=1, n_workers=2), path)
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(Refused) as err:
            load_plan(path)
        assert str(err.value) == f"{path}: {len(extra)} bytes past the data, which ends at byte offset {end}"
