"""Unit tests for the project call graph (repro.lint.callgraph)."""

import textwrap

from repro.lint.callgraph import build_callgraph, module_name_for


def dedented(**sources):
    return {path: textwrap.dedent(text) for path, text in sources.items()}


class TestModuleNames:
    def test_repro_anchored(self):
        assert (
            module_name_for("src/repro/experiments/parallel.py")
            == "repro.experiments.parallel"
        )

    def test_package_init_collapses(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_outside_repro_uses_stem(self):
        assert module_name_for("tests/lint/fixtures/flow/r7_leak.py") == "r7_leak"


class TestResolution:
    def test_same_module_call(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    def helper():
                        return 1

                    def top():
                        return helper()
                    """
                }
            )
        )
        assert graph.lookup("repro.a.top").calls == ["repro.a.helper"]

    def test_from_import_call(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    def helper():
                        return 1
                    """,
                    "src/repro/b.py": """
                    from repro.a import helper

                    def top():
                        return helper()
                    """,
                }
            )
        )
        assert graph.lookup("repro.b.top").calls == ["repro.a.helper"]

    def test_module_attribute_call(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    def helper():
                        return 1
                    """,
                    "src/repro/b.py": """
                    import repro.a as aye

                    def top():
                        return aye.helper()
                    """,
                }
            )
        )
        assert graph.lookup("repro.b.top").calls == ["repro.a.helper"]

    def test_self_method_call(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    class Runner:
                        def step(self):
                            return self.inner()

                        def inner(self):
                            return 1
                    """
                }
            )
        )
        assert graph.lookup("repro.a.Runner.step").calls == [
            "repro.a.Runner.inner"
        ]

    def test_constructor_resolves_to_init(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    class Runner:
                        def __init__(self):
                            self.n = 0

                    def make():
                        return Runner()
                    """
                }
            )
        )
        assert graph.lookup("repro.a.make").calls == ["repro.a.Runner.__init__"]

    def test_unknown_method_over_approximates_by_name(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    class Alpha:
                        def run(self):
                            return 1

                    class Beta:
                        def run(self):
                            return 2

                    def top(obj):
                        return obj.run()
                    """
                }
            )
        )
        assert sorted(graph.lookup("repro.a.top").calls) == [
            "repro.a.Alpha.run",
            "repro.a.Beta.run",
        ]

    def test_locally_bound_names_are_opaque(self):
        # A local rebinding shadows the imported helper: no false edge.
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    def helper():
                        return 1

                    def top(helper):
                        return helper()
                    """
                }
            )
        )
        assert graph.lookup("repro.a.top").calls == []


class TestFacts:
    def test_module_state_mutation_recorded(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    CACHE = {}

                    def record(key, value):
                        CACHE[key] = value
                    """
                }
            )
        )
        info = graph.lookup("repro.a.record")
        assert [name for name, _ in info.mutates_module_state] == ["CACHE"]

    def test_global_statement_mutation_recorded(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    COUNT = 0

                    def bump():
                        global COUNT
                        COUNT = COUNT + 1
                    """
                }
            )
        )
        info = graph.lookup("repro.a.bump")
        assert [name for name, _ in info.mutates_module_state] == ["COUNT"]

    def test_unseeded_rng_recorded(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    import random

                    def jitter(x):
                        return x + random.random()
                    """
                }
            )
        )
        info = graph.lookup("repro.a.jitter")
        assert [name for name, _ in info.unseeded_rng] == ["random.random"]

    def test_seeded_constructor_is_exempt(self):
        graph = build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    import random

                    def make_stream(seed):
                        return random.Random(seed)
                    """
                }
            )
        )
        assert graph.lookup("repro.a.make_stream").unseeded_rng == []


class TestReachability:
    def graph(self):
        return build_callgraph(
            dedented(
                **{
                    "src/repro/a.py": """
                    def leaf():
                        return 1

                    def mid():
                        return leaf()

                    def top():
                        return mid()

                    def island():
                        return 0
                    """
                }
            )
        )

    def test_bfs_reaches_transitive_callees(self):
        reached = self.graph().reachable(["repro.a.top"])
        assert reached == ["repro.a.top", "repro.a.mid", "repro.a.leaf"]

    def test_islands_stay_unreached(self):
        assert "repro.a.island" not in self.graph().reachable(["repro.a.top"])

    def test_unknown_roots_ignored(self):
        assert self.graph().reachable(["repro.a.missing"]) == []
