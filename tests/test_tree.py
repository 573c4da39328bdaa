import collections
import datetime
import json

import pytest

from evotraj.genome import NtMutation
from evotraj.synth import SynthConfig, generate
from evotraj.tree import (
    PartialDate,
    SequenceMeta,
    Trajectory,
    TreeFormatError,
    TreeNode,
    extract_all_trajectories,
    parse_tree,
    serialize_tree,
    split_train_eval,
)


def lines(*objs):
    return list(objs)


CHAIN = [
    '{"id":"root","parent":null}',
    '{"id":"A","parent":"root","muts":["100T"],"variant":"V"}',
    '{"id":"leaf","parent":"A","muts":["200G"],"meta":{"name":"s1","collected":"2025-03-05","released":"2025-03-20","country":"Germany"}}',
]


class TestParse:
    def test_minimal_chain(self):
        tree = parse_tree(CHAIN)
        assert len(tree) == 3
        assert tree.root_id == "root"
        assert [n.node_id for n in tree.path_from_root("leaf")] == ["root", "A", "leaf"]
        assert [n.node_id for n in tree.leaves()] == ["leaf"]

    def test_dangling_parent(self):
        bad = lines('{"id":"root","parent":null}', '{"id":"x","parent":"ghost"}')
        with pytest.raises(TreeFormatError, match="line 2.*dangling parent"):
            parse_tree(bad)

    def test_duplicate_id(self):
        bad = lines('{"id":"root","parent":null}', '{"id":"root","parent":null}')
        with pytest.raises(TreeFormatError, match="line 2.*duplicate"):
            parse_tree(bad)

    def test_multiple_roots(self):
        bad = lines('{"id":"a","parent":null}', '{"id":"b","parent":null}')
        with pytest.raises(TreeFormatError, match="line 2.*multiple roots"):
            parse_tree(bad)

    def test_no_root(self):
        with pytest.raises(TreeFormatError, match="no root"):
            parse_tree(lines('{"id":"a","parent":"b"}', '{"id":"b","parent":"a"}'))

    def test_cycle_detected(self):
        bad = lines(
            '{"id":"root","parent":null}',
            '{"id":"a","parent":"b"}',
            '{"id":"b","parent":"a"}',
        )
        with pytest.raises(TreeFormatError, match="cycle"):
            parse_tree(bad)

    def test_cycle_names_the_first_node_climbed_twice(self):
        # x hangs below the cycle a -> b -> c -> a; the climb from x, the
        # first node in file order that the root does not reach, meets c twice
        bad = lines(
            '{"id":"root","parent":null}',
            '{"id":"x","parent":"c"}',
            '{"id":"a","parent":"b"}',
            '{"id":"b","parent":"c"}',
            '{"id":"c","parent":"a"}',
            '{"id":"leaf","parent":"root"}',
        )
        with pytest.raises(TreeFormatError, match="^line 5: cycle through node 'c'$"):
            parse_tree(bad)

    def test_malformed_mutation(self):
        bad = lines('{"id":"root","parent":null,"muts":["X100Z"]}')
        with pytest.raises(TreeFormatError, match="line 1.*malformed mutation"):
            parse_tree(bad)

    def test_invalid_json_names_line(self):
        with pytest.raises(TreeFormatError, match="line 2"):
            parse_tree(lines('{"id":"root","parent":null}', "{nope"))

    def test_origin_base_ignored(self):
        tree = parse_tree(lines('{"id":"root","parent":null,"muts":["C100T","100T"]}'))
        muts = tree.nodes["root"].branch_mutations
        assert muts[0] == muts[1] == NtMutation(100, "T")

    def test_release_before_collection_rejected(self):
        bad = lines(
            '{"id":"root","parent":null,"meta":{"name":"s","collected":"2025-03-05","released":"2025-03-01"}}'
        )
        with pytest.raises(TreeFormatError, match="line 1.*precedes"):
            parse_tree(bad)

    @pytest.mark.parametrize("line, message", [
        ("5", "node is not a JSON object"),
        ('["id"]', "node is not a JSON object"),
        ('{"id":"a","parent":"root","muts":null}', "'muts' is not a list: None"),
        ('{"id":"a","parent":"root","muts":[123]}', "malformed mutation string 123"),
        ('{"id":"a","parent":"root","muts":[["100T"]]}', r"malformed mutation string \[\'100T\'\]"),
        ('{"id":"a","parent":"root","meta":"x"}', "bad metadata: not an object: 'x'"),
        ('{"id":"a","parent":"root","variant":5}', "'variant' is not a string: 5"),
        ('{"id":"a","parent":"root","meta":{"name":7}}', "bad metadata: 'name' is not a string: 7"),
        ('{"id":"a","parent":"root","meta":{"name":"s","country":7}}',
         "bad metadata: 'country' is not a string: 7"),
        ('{"id":"a","parent":"root","meta":{"name":"s","region":["x"]}}',
         r"bad metadata: 'region' is not a string: \[\'x\'\]"),
    ], ids=["number", "list", "null-muts", "int-mutation", "list-mutation", "string-meta",
            "int-variant", "int-name", "int-country", "list-region"])
    def test_malformed_node_names_its_line(self, line, message):
        with pytest.raises(TreeFormatError, match=f"^line 2: {message}$"):
            parse_tree(lines('{"id":"root","parent":null}', line))

    def test_null_text_fields_accepted(self):
        tree = parse_tree(lines(
            '{"id":"root","parent":null,"variant":null,'
            '"meta":{"name":null,"country":null,"region":null}}'
        ))
        node = tree.nodes["root"]
        assert node.variant_name is None
        assert node.leaf_meta == SequenceMeta(name=None)

    def test_release_on_collection_day_accepted(self):
        tree = parse_tree(lines(
            '{"id":"root","parent":null,"meta":{"name":"s","collected":"2025-03-05","released":"2025-03-05"}}'
        ))
        assert tree.nodes["root"].leaf_meta.released == PartialDate(2025, 3, 5)

    def test_forward_parent_reference_allowed(self):
        tree = parse_tree(lines('{"id":"child","parent":"root"}', '{"id":"root","parent":null}'))
        assert [n.node_id for n in tree.path_from_root("child")] == ["root", "child"]


class TestParseOnce:
    """A parse validates each distinct mutation and date string once, and
    keeps nothing from one call to the next."""

    @pytest.fixture(scope="class")
    def sim_lines(self):
        config = SynthConfig(depth=6, branching=(2, 3), branching_probs=(0.5, 0.5), seed=4)
        return serialize_tree(generate(config).tree).splitlines()

    @staticmethod
    def count_parses(monkeypatch):
        counts = {NtMutation: collections.Counter(), PartialDate: collections.Counter()}
        for cls, counter in counts.items():
            def counted(text, real=cls.parse, counter=counter):
                counter[text] += 1
                return real(text)
            monkeypatch.setattr(cls, "parse", counted)
        return counts

    def test_each_distinct_string_parsed_once_per_call(self, sim_lines, monkeypatch):
        objs = [json.loads(line) for line in sim_lines]
        mutations = [m for obj in objs for m in obj.get("muts", [])]
        dates = [obj["meta"][key] for obj in objs if "meta" in obj
                 for key in ("collected", "released") if key in obj["meta"]]
        assert len(set(mutations)) < len(mutations) and len(set(dates)) < len(dates)
        counts = self.count_parses(monkeypatch)
        first = parse_tree(sim_lines)
        assert counts[NtMutation] == collections.Counter(set(mutations))
        assert counts[PartialDate] == collections.Counter(set(dates))
        for counter in counts.values():
            counter.clear()
        second = parse_tree(sim_lines)
        assert counts[NtMutation] == collections.Counter(set(mutations))
        assert counts[PartialDate] == collections.Counter(set(dates))
        assert second.nodes == first.nodes

    def test_nodes_equal_a_parse_of_each_string_alone(self, sim_lines):
        tree = parse_tree(sim_lines)
        assert len(tree) == len(sim_lines)
        for line, node in zip(sim_lines, tree.nodes.values()):
            obj = json.loads(line)
            meta = obj.get("meta")
            assert node == TreeNode(
                obj["id"],
                obj["parent"],
                tuple(NtMutation.parse(m) for m in obj.get("muts", [])),
                obj.get("variant"),
                meta and SequenceMeta(
                    meta["name"],
                    PartialDate.parse(meta["collected"]),
                    PartialDate.parse(meta["released"]),
                    meta.get("country"),
                    meta.get("region"),
                ),
            )
        shared: dict[NtMutation, NtMutation] = {}
        for node in tree.nodes.values():
            for m in node.branch_mutations:
                assert shared.setdefault(m, m) is m

    def test_repeated_malformed_string_reports_its_first_line(self):
        bad = lines(
            '{"id":"root","parent":null}',
            '{"id":"a","parent":"root","muts":["100T"]}',
            '{"id":"b","parent":"a","muts":["100T","X9Z"]}',
            '{"id":"c","parent":"b","muts":["100T"]}',
            '{"id":"d","parent":"c","muts":["X9Z"]}',
        )
        with pytest.raises(TreeFormatError, match=r"^line 3: malformed mutation string 'X9Z'$"):
            parse_tree(bad)


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        text = "\n".join(CHAIN) + "\n"
        tree = parse_tree(CHAIN)
        assert parse_tree(serialize_tree(tree).splitlines()).nodes == tree.nodes

    def test_serialize_is_fixed_point(self):
        tree = parse_tree(CHAIN)
        once = serialize_tree(tree)
        again = serialize_tree(parse_tree(once.splitlines()))
        assert once == again


def replay(mutations):
    """Each site's final state after applying mutations in order."""
    return {m.site: m.to for m in mutations}


class TestExtractTrajectory:
    """The split of a one-leaf tree's path, as ``extract_all_trajectories``
    makes it."""

    def test_leaf_under_variant(self):
        [traj] = extract_all_trajectories(parse_tree(CHAIN))
        assert traj.variant_name == "V"
        assert traj.variant_mutations == (NtMutation(100, "T"),)
        assert traj.sequence_mutations == (NtMutation(200, "G"),)

    def test_leaf_under_root(self):
        tree = parse_tree(
            lines('{"id":"root","parent":null}', '{"id":"leaf","parent":"root","muts":["500A"]}')
        )
        [traj] = extract_all_trajectories(tree)
        assert traj.variant_name == "root"
        assert traj.variant_mutations == ()
        assert traj.sequence_mutations == (NtMutation(500, "A"),)

    def test_nearest_variant_ancestor_wins(self):
        tree = parse_tree(
            lines(
                '{"id":"root","parent":null}',
                '{"id":"a","parent":"root","muts":["100T"],"variant":"outer"}',
                '{"id":"b","parent":"a","muts":["200G"],"variant":"inner"}',
                '{"id":"leaf","parent":"b","muts":["300C"]}',
            )
        )
        [traj] = extract_all_trajectories(tree)
        assert traj.variant_name == "inner"
        assert traj.variant_mutations == (NtMutation(100, "T"), NtMutation(200, "G"))
        assert traj.sequence_mutations == (NtMutation(300, "C"),)

    def test_refined_definition_substitutes_variant_path(self):
        defs = {"V": [NtMutation(100, "T"), NtMutation(150, "-")]}
        [traj] = extract_all_trajectories(parse_tree(CHAIN), defs)
        assert traj.variant_mutations == (NtMutation(100, "T"), NtMutation(150, "-"))
        assert traj.sequence_mutations == (NtMutation(200, "G"),)

    def test_back_mutations_retained_in_order(self):
        tree = parse_tree(
            lines(
                '{"id":"root","parent":null,"muts":["300T"]}',
                '{"id":"leaf","parent":"root","muts":["300C"]}',
            )
        )
        [traj] = extract_all_trajectories(tree)
        assert traj.all_mutations == (NtMutation(300, "T"), NtMutation(300, "C"))
        assert replay(traj.all_mutations) == {300: "C"}

    def test_replay_equals_raw_path_replay(self):
        tree = parse_tree(CHAIN)
        [traj] = extract_all_trajectories(tree)
        raw = [m for node in tree.path_from_root("leaf") for m in node.branch_mutations]
        assert replay(traj.all_mutations) == replay(raw)


def mk_traj(collected, released, n_private=1, name="s"):
    return Trajectory(
        meta=SequenceMeta(
            name=name,
            collected=None if collected is None else PartialDate.parse(collected),
            released=None if released is None else PartialDate.parse(released),
            country="X",
        ),
        variant_name="V",
        variant_mutations=(NtMutation(100, "T"),),
        sequence_mutations=tuple(NtMutation(200 + i, "G") for i in range(n_private)),
    )


class TestSplit:
    CUT = datetime.date(2025, 2, 12)
    EVAL_CUT = datetime.date(2025, 7, 16)

    def test_released_before_cutoff_goes_to_train(self):
        res = split_train_eval([mk_traj("2025-01-05", "2025-02-01")], self.CUT, self.EVAL_CUT)
        assert len(res.train) == 1 and not res.eval

    def test_collected_after_cutoff_goes_to_eval(self):
        res = split_train_eval([mk_traj("2025-03-01", "2025-04-01", n_private=2)], self.CUT, self.EVAL_CUT)
        assert len(res.eval) == 1 and not res.train

    def test_zero_private_mutations_excluded_from_eval(self):
        res = split_train_eval([mk_traj("2025-03-01", "2025-04-01", n_private=0)], self.CUT, self.EVAL_CUT)
        assert not res.eval and res.n_excluded_no_signal == 1

    def test_partial_collection_date_excluded_and_counted(self):
        res = split_train_eval([mk_traj("2025-03", "2025-04-01")], self.CUT, self.EVAL_CUT)
        assert not res.eval and res.n_excluded_partial_dates == 1

    def test_released_after_eval_cutoff_dropped(self):
        res = split_train_eval([mk_traj("2025-03-01", "2025-08-01")], self.CUT, self.EVAL_CUT)
        assert not res.train and not res.eval

    def test_collected_before_cutoff_released_after_is_dropped(self):
        # released too late for train, collected too early for eval
        res = split_train_eval([mk_traj("2025-01-20", "2025-03-01")], self.CUT, self.EVAL_CUT)
        assert not res.train and not res.eval

    def test_disjoint_by_construction(self):
        trajs = [
            mk_traj("2025-01-05", "2025-02-01", name="a"),
            mk_traj("2025-03-01", "2025-04-01", name="b"),
            mk_traj("2025-02-20", "2025-02-25", name="c", n_private=3),
        ]
        res = split_train_eval(trajs, self.CUT, self.EVAL_CUT)
        train_names = {t.meta.name for t in res.train}
        eval_names = {t.meta.name for t in res.eval}
        assert not (train_names & eval_names)

    def test_bad_cutoff_order(self):
        with pytest.raises(ValueError):
            split_train_eval([], self.EVAL_CUT, self.CUT)


class TestPartialDate:
    def test_parse_forms(self):
        assert PartialDate.parse("2025") == PartialDate(2025)
        assert PartialDate.parse("2025-03") == PartialDate(2025, 3)
        assert PartialDate.parse("2025-03-05") == PartialDate(2025, 3, 5)

    def test_fmt_roundtrip(self):
        for s in ("2025", "2025-03", "2025-03-05"):
            assert PartialDate.parse(s).fmt() == s

    def test_month_index(self):
        assert PartialDate(2019, 1).month_index(2019) == 0
        assert PartialDate(2025, 12).month_index(2019) == 83
        assert PartialDate(2025).month_index(2019) is None

    def test_invalid(self):
        with pytest.raises(ValueError):
            PartialDate.parse("2025-13")
        with pytest.raises(ValueError):
            PartialDate.parse("03-2025-x")
        with pytest.raises(ValueError):
            PartialDate(2025, None, 5)
