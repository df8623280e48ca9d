"""Self-tests for the flow-sensitive rules (R5-R7) and the CLI.

Snippet tests pin each rule's semantics (including the acceptance
criterion that R5 traverses exception edges: leaks that exist *only*
on a ``raise`` path must be caught); the planted fixtures under
``fixtures/flow/`` pin exact file/line/rule reporting; CLI tests cover
exit codes, output formats and ``--show-source``; the final test
asserts the shipped tree itself is R5-R7 clean.
"""

import json
import textwrap
from pathlib import Path

from repro.lint import main
from repro.lint.callgraph import build_callgraph
from repro.lint.flowrules import check_flow_source

REPO_ROOT = Path(__file__).resolve().parents[2]
FLOW = Path(__file__).resolve().parent / "fixtures" / "flow"


def flow_codes(source: str, rules: set[str]) -> list[tuple[int, str]]:
    """(line, rule) pairs found in a dedented snippet."""
    violations = check_flow_source(
        textwrap.dedent(source), "snippet.py", rules=rules
    )
    return [(v.line, v.rule) for v in violations]


def fixture_findings(name: str) -> list[tuple[int, str]]:
    path = FLOW / name
    source = path.read_text(encoding="utf-8")
    graph = build_callgraph({str(path): source})
    violations = check_flow_source(
        source, path, rules={"R5", "R6", "R7"}, graph=graph
    )
    return [(v.line, v.rule) for v in violations]


class TestR5ExceptionPaths:
    def test_leak_only_on_raise_path_is_caught(self):
        # The normal path is perfectly balanced; the reservation leaks
        # *only* if charge() raises between reserve and release.  The
        # analysis must walk the exception edge to see it.
        source = """
        def f(link, flow_id, bw, charge):
            link.reserve(flow_id, bw)
            charge(flow_id)
            link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == [(3, "R5")]

    def test_release_in_finally_is_clean(self):
        source = """
        def f(link, flow_id, bw, charge):
            link.reserve(flow_id, bw)
            try:
                charge(flow_id)
            finally:
                link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == []

    def test_release_in_catch_all_handler_is_clean(self):
        source = """
        def f(link, flow_id, bw, charge):
            link.reserve(flow_id, bw)
            try:
                charge(flow_id)
            except Exception:
                link.release(flow_id)
                raise
            link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == []

    def test_leak_on_early_return(self):
        source = """
        def f(link, flow_id, bw, budget):
            link.reserve(flow_id, bw)
            if budget < 0:
                return None
            link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == [(3, "R5")]

    def test_balanced_straight_line_flags_exception_span_only(self):
        # With no call between reserve and release, nothing can raise
        # while the token is held: clean.
        source = """
        def f(link, flow_id, bw):
            link.reserve(flow_id, bw)
            link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == []

    def test_escape_via_call_argument_transfers_ownership(self):
        source = """
        def f(link, flow_id, bw, ledger):
            link.reserve(flow_id, bw)
            ledger.append(link)
        """
        assert flow_codes(source, {"R5"}) == []

    def test_reserve_named_function_exempt_at_normal_exit(self):
        # A constructor-style helper hands the held link to its caller.
        source = """
        def reserve_leg(link, flow_id, bw):
            link.reserve(flow_id, bw)
            return None
        """
        assert flow_codes(source, {"R5"}) == []

    def test_fragile_rollback_loop_flagged(self):
        source = """
        def f(links, flow_id):
            for link in links:
                link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == [(4, "R5")]

    def test_guarded_rollback_loop_clean(self):
        source = """
        def f(links, flow_id):
            for link in links:
                if link.holds(flow_id):
                    link.release(flow_id)
        """
        assert flow_codes(source, {"R5"}) == []


class TestR6Discipline:
    def test_stream_minting_flagged(self):
        source = """
        def on_path(factory):
            return factory.stream("handler")
        """
        assert flow_codes(source, {"R6"}) == [(3, "R6")]

    def test_column_access_flagged(self):
        source = """
        def on_resv(state, index):
            return state.reserved[index]
        """
        assert flow_codes(source, {"R6"}) == [(3, "R6")]

    def test_schedule_at_flagged(self):
        source = """
        def on_resv(simulator, callback):
            simulator.schedule_at(0.5, callback)
        """
        assert flow_codes(source, {"R6"}) == [(3, "R6")]

    def test_constant_negative_delay_flagged(self):
        source = """
        def on_resv(simulator, callback):
            delay = 0.5
            delay = delay - 1.0
            simulator.schedule(delay, callback)
        """
        assert flow_codes(source, {"R6"}) == [(5, "R6")]

    def test_branch_dependent_delay_not_constant(self):
        # Join over the branches loses constancy: no finding.
        source = """
        def on_resv(simulator, callback, fast):
            if fast:
                delay = 0.1
            else:
                delay = 0.5
            simulator.schedule(delay, callback)
        """
        assert flow_codes(source, {"R6"}) == []

    def test_link_api_access_clean(self):
        source = """
        def on_resv(link, flow_id):
            return link.available_bps()
        """
        assert flow_codes(source, {"R6"}) == []


class TestR7PoolPurity:
    def check(self, source: str) -> list[tuple[int, str]]:
        text = textwrap.dedent(source)
        graph = build_callgraph({"src/repro/experiments/job.py": text})
        violations = check_flow_source(
            text,
            "src/repro/experiments/job.py",
            rules={"R7"},
            graph=graph,
        )
        return [(v.line, v.rule) for v in violations]

    def test_module_state_mutation_through_pool(self):
        source = """
        CACHE = {}

        def record(task):
            CACHE[task] = True
            return task

        def run(pool, tasks):
            return pool.map(record, tasks)
        """
        assert self.check(source) == [(9, "R7")]

    def test_transitive_impurity_found(self):
        # The impurity is one call-graph hop below the pooled callable.
        source = """
        import random

        def draw():
            return random.random()

        def jittered(task):
            return task + draw()

        def run(pool, tasks):
            return pool.map(jittered, tasks)
        """
        assert self.check(source) == [(11, "R7")]

    def test_lambda_across_boundary_flagged(self):
        source = """
        def run(pool, tasks):
            return pool.map(lambda t: t + 1, tasks)
        """
        assert self.check(source) == [(3, "R7")]

    def test_pure_chain_clean(self):
        source = """
        def double(task):
            return task * 2

        def run(pool, tasks):
            return pool.map(double, tasks)
        """
        assert self.check(source) == []


class TestPlantedFlowFixtures:
    def test_r5_leak_exact_findings(self):
        assert fixture_findings("r5_leak.py") == [
            (9, "R5"),
            (15, "R5"),
            (24, "R5"),
        ]

    def test_r6_leak_exact_findings(self):
        assert fixture_findings("r6_leak.py") == [
            (9, "R6"),
            (13, "R6"),
            (17, "R6"),
            (23, "R6"),
        ]

    def test_r7_leak_exact_findings(self):
        assert fixture_findings("r7_leak.py") == [
            (22, "R7"),
            (26, "R7"),
            (30, "R7"),
        ]

    def test_clean_fixtures_have_no_findings(self):
        for name in ("r5_clean.py", "r6_clean.py", "r7_clean.py"):
            assert fixture_findings(name) == [], name


class TestCli:
    def test_each_leaking_fixture_exits_one(self):
        for name in ("r5_leak.py", "r6_leak.py", "r7_leak.py"):
            assert main(["--select", "R5,R6,R7", str(FLOW / name)]) == 1, name

    def test_each_clean_fixture_exits_zero(self):
        for name in ("r5_clean.py", "r6_clean.py", "r7_clean.py"):
            assert main(["--select", "R5,R6,R7", str(FLOW / name)]) == 0, name

    def test_unknown_select_code_exits_two(self):
        assert main(["--select", "R99", str(FLOW)]) == 2

    def test_unknown_ignore_code_exits_two(self):
        assert main(["--ignore", "bogus", str(FLOW)]) == 2

    def test_json_format_parses(self, capsys):
        assert main(
            ["--select", "R5", "--format", "json", str(FLOW / "r5_leak.py")]
        ) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [(f["line"], f["rule"]) for f in findings] == [
            (9, "R5"),
            (15, "R5"),
            (24, "R5"),
        ]

    def test_show_source_prints_snippet_and_caret(self, capsys):
        assert main(
            ["--select", "R5", "--show-source", str(FLOW / "r5_leak.py")]
        ) == 1
        out = capsys.readouterr().out
        assert "link.reserve(flow_id, bw)" in out
        assert "^" in out


class TestShippedTreeIsFlowClean:
    def test_flow_rules_pass_on_src(self):
        assert main(["--select", "R5,R6,R7", str(REPO_ROOT / "src" / "repro")]) == 0
