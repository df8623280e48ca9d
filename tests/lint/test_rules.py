"""Self-tests for the determinism linter (rules R1-R4).

Each rule gets at least one fixture snippet it must catch and one it
must allow; the planted-violation files under ``fixtures/planted/``
pin exact file/line/rule reporting; and the final test asserts the
shipped tree itself lints clean.
"""

from pathlib import Path


from repro.lint import lint_paths, main
from repro.lint.rules import ALL_RULES, check_source, rules_for_path

REPO_ROOT = Path(__file__).resolve().parents[2]
PLANTED = Path(__file__).resolve().parent / "fixtures" / "planted"


def codes(source: str, rules: set[str]) -> list[str]:
    """Rule codes found in ``source`` when only ``rules`` are active."""
    return [v.rule for v in check_source(source, "snippet.py", rules=rules)]


class TestR1Randomness:
    def test_catches_stdlib_random_import(self):
        assert codes("import random\n", {"R1"}) == ["R1"]

    def test_catches_unseeded_draw(self):
        source = "import random\nx = random.random()\n"
        assert codes(source, {"R1"}) == ["R1", "R1"]

    def test_catches_numpy_global_random(self):
        source = "import numpy\nx = numpy.random.rand()\n"
        assert codes(source, {"R1"}) == ["R1"]

    def test_catches_wall_clock(self):
        source = "import time\nnow = time.time()\n"
        assert codes(source, {"R1"}) == ["R1"]

    def test_catches_datetime_now(self):
        source = "import datetime\nnow = datetime.datetime.now()\n"
        assert codes(source, {"R1"}) == ["R1"]

    def test_allows_perf_counter(self):
        source = "import time\nelapsed = time.perf_counter()\n"
        assert codes(source, {"R1"}) == []

    def test_allows_seeded_streams(self):
        source = (
            "from repro.sim.random_streams import StreamFactory\n"
            "rng = StreamFactory(7).stream('arrivals')\n"
        )
        assert codes(source, {"R1"}) == []

    def test_allows_unrelated_attribute_chains(self):
        # 'random' as a *local* attribute is not the random module.
        source = "value = config.random.seed\n"
        assert codes(source, {"R1"}) == []


class TestR2SetIteration:
    def test_catches_for_over_set_literal(self):
        assert codes("for x in {1, 2}:\n    pass\n", {"R2"}) == ["R2"]

    def test_catches_comprehension_over_bound_set(self):
        source = "s = set(items)\nout = [x for x in s]\n"
        assert codes(source, {"R2"}) == ["R2"]

    def test_catches_list_of_set(self):
        assert codes("out = list({1, 2})\n", {"R2"}) == ["R2"]

    def test_catches_keys_iteration(self):
        source = "for k in mapping.keys():\n    pass\n"
        assert codes(source, {"R2"}) == ["R2"]

    def test_allows_sorted_set(self):
        assert codes("out = sorted({1, 2})\n", {"R2"}) == []

    def test_allows_membership_and_dict_iteration(self):
        source = "ok = 1 in {1, 2}\nfor k in mapping:\n    pass\n"
        assert codes(source, {"R2"}) == []

    def test_rebinding_to_list_clears_set_taint(self):
        source = "s = set(items)\ns = sorted(s)\nout = [x for x in s]\n"
        assert codes(source, {"R2"}) == []


class TestR3ColumnWrites:
    def test_catches_subscript_assignment(self):
        assert codes("state.reserved[i] = 0.0\n", {"R3"}) == ["R3"]

    def test_catches_augmented_assignment(self):
        assert codes("state.reserved[i] += amount\n", {"R3"}) == ["R3"]

    def test_catches_capacity_mutator(self):
        assert codes("state.capacity.append(1.0)\n", {"R3"}) == ["R3"]

    def test_catches_write_counter(self):
        assert codes("state.writes += 1\n", {"R3"}) == ["R3"]
        assert codes("state.writes = 0\n", {"R3"}) == ["R3"]

    def test_allows_reads(self):
        source = "available = state.capacity[i] - state.reserved[i]\n"
        assert codes(source, {"R3"}) == []
        assert codes("seen = state.writes\n", {"R3"}) == []


class TestR4TimestampEquality:
    def test_catches_equality_on_time(self):
        assert codes("hit = event.time == now\n", {"R4"}) == ["R4"]

    def test_catches_inequality_on_suffixed_name(self):
        assert codes("miss = arrival_time != deadline\n", {"R4"}) == ["R4"]

    def test_allows_ordering(self):
        assert codes("due = event.time <= now\n", {"R4"}) == []

    def test_allows_string_comparisons(self):
        assert codes("named = kind == 'time'\n", {"R4"}) == []

    def test_allows_non_time_names(self):
        assert codes("same = count == total\n", {"R4"}) == []


class TestSuppressions:
    def test_disable_comment_suppresses_matching_rule(self):
        source = "hit = event.time == now  # repro-lint: disable=R4\n"
        assert check_source(source, "snippet.py", rules={"R4"}) == []

    def test_disable_comment_is_rule_specific(self):
        source = "hit = event.time == now  # repro-lint: disable=R1\n"
        assert codes(source, {"R4"}) == ["R4"]

    def test_disable_many_rules_on_one_line(self):
        source = (
            "import random  # repro-lint: disable=R1, R2\n"
        )
        assert check_source(source, "snippet.py", rules={"R1", "R2"}) == []

    def test_suppressed_fixture_file_is_clean(self):
        assert lint_paths([PLANTED / "suppressed_clean.py"]) == []


class TestPathScoping:
    def test_sim_modules_get_all_rules(self):
        assert rules_for_path("src/repro/sim/engine.py") == {
            "R1", "R2", "R3", "R4",
        }

    def test_network_modules_may_write_columns(self):
        assert "R3" not in rules_for_path("src/repro/network/link.py")

    def test_random_streams_module_may_use_numpy_random(self):
        assert "R1" not in rules_for_path("src/repro/sim/random_streams.py")

    def test_parallel_runner_is_order_critical(self):
        assert "R2" in rules_for_path("src/repro/experiments/parallel.py")

    def test_signaling_modules_are_order_critical(self):
        assert rules_for_path("src/repro/signaling/rsvp.py") == {
            "R1", "R2", "R3", "R4", "R5", "R6",
        }
        assert "R2" in rules_for_path("src/repro/signaling/softstate.py")

    def test_other_experiments_modules_skip_r2(self):
        assert "R2" not in rules_for_path("src/repro/experiments/runner.py")

    def test_reservation_pairing_scope(self):
        assert "R5" in rules_for_path("src/repro/network/topology.py")
        assert "R5" in rules_for_path("src/repro/signaling/softstate.py")
        assert "R5" in rules_for_path("src/repro/core/admission.py")
        assert "R5" not in rules_for_path("src/repro/core/reservation.py")
        assert "R5" not in rules_for_path("src/repro/sim/engine.py")

    def test_signaling_discipline_scope(self):
        assert "R6" in rules_for_path("src/repro/signaling/channel.py")
        assert "R6" not in rules_for_path("src/repro/signaling/softstate.py")
        assert "R6" not in rules_for_path("src/repro/network/link.py")

    def test_pool_purity_scope(self):
        assert "R7" in rules_for_path("src/repro/experiments/parallel.py")
        assert "R7" not in rules_for_path("src/repro/experiments/runner.py")

    def test_files_outside_repro_get_every_rule(self):
        assert rules_for_path("tests/lint/fixtures/planted/x.py") == set(
            ALL_RULES
        )


class TestPlantedFixtures:
    """The planted files must be reported with exact file/line/rule."""

    EXPECTED = {
        ("column_write.py", 9, "R3"),
        ("column_write.py", 13, "R3"),
        ("column_write.py", 17, "R3"),
        ("column_write.py", 25, "R3"),
        # Fixture files sit outside repro/, so they also get the
        # R6 column-access rule on top of R3's write-only check.
        ("column_write.py", 9, "R6"),
        ("column_write.py", 13, "R6"),
        ("column_write.py", 17, "R6"),
        ("column_write.py", 21, "R6"),
        ("set_iteration.py", 10, "R2"),
        ("set_iteration.py", 17, "R2"),
        ("set_iteration.py", 21, "R2"),
        ("set_iteration.py", 25, "R2"),
        ("timestamp_equality.py", 9, "R4"),
        ("timestamp_equality.py", 13, "R4"),
        ("uses_wall_clock.py", 8, "R1"),
        ("uses_wall_clock.py", 11, "R1"),
        ("uses_wall_clock.py", 15, "R1"),
        ("uses_wall_clock.py", 19, "R1"),
        ("uses_wall_clock.py", 23, "R1"),
    }

    def test_every_planted_violation_is_reported(self):
        found = {
            (Path(v.path).name, v.line, v.rule)
            for v in lint_paths([PLANTED])
        }
        assert found == self.EXPECTED


class TestCli:
    def test_violating_tree_exits_one(self, capsys):
        assert main([str(PLANTED)]) == 1
        captured = capsys.readouterr()
        assert "uses_wall_clock.py" in captured.out
        assert "R1" in captured.out
        assert "violation" in captured.err

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_path_exits_two(self, capsys):
        assert main([str(PLANTED / "no_such_file.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ALL_RULES:
            assert code in out

    def test_syntax_error_is_reported_not_raised(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 1
        assert "E999" in capsys.readouterr().out


class TestShippedTreeIsClean:
    def test_src_repro_lints_clean(self):
        violations = lint_paths([REPO_ROOT / "src" / "repro"])
        assert violations == [], "\n".join(v.format() for v in violations)
