"""Flow-sensitive rules R5-R7 on top of the CFG/dataflow engine.

``R5`` — reservation pairing.  An abstract-interpretation pass over
each function in ``network/``, ``signaling/`` and
``core/admission.py``: every ``X.reserve(...)`` /
``X.reserve_links(...)`` call site mints an abstract reservation token
keyed by the receiver expression.  The token dies when the same
receiver is released
(``release``/``release_path``/``release_links``/``release_if_held``),
or when the receiver *escapes* — passed to another call (lease
registration, list append), stored into a structure, captured by a
closure, returned.  Any token still live at the function's normal exit
(unless the function is itself an acquisition primitive, name
containing ``reserve``/``acquire``) or at its exceptional exit is a
leak candidate.  Exception edges commit kills but not acquires, so
"``reserve`` raised → nothing held" and "``release`` raised (KeyError:
was not held) → token dead either way" are both exact.  A companion
check (same code, R5) flags *fragile sweeps*:
a strict ``X.release(...)`` inside a loop whose exception can escape
the function — one missing leg (fault, lease GC) raises ``KeyError``
mid-sweep and strands every remaining reservation.  A release guarded
by the same receiver's ``.holds(...)`` test is exempt.

``R6`` — signaling-handler discipline, for ``signaling/rsvp.py`` and
``signaling/channel.py``: (a) no minting of randomness sources
(``StreamFactory``/``.stream()``/``Random``/``default_rng``) — named
streams are injected, never created, inside the signaling plane;
(b) no direct access to ``LinkStateArrays`` columns (``.reserved`` /
``.capacity``) — the Link API is the only sanctioned window onto
bandwidth state; (c) no ``schedule_at`` (absolute timestamps cannot be
proven monotone) and no ``schedule`` whose delay argument
constant-propagates to a negative number — the latter runs a genuine
dataflow analysis (:class:`_ConstEnvAnalysis`) over the CFG.

``R7`` — pool purity, for ``experiments/parallel.py``: every callable
crossing a multiprocessing boundary (``pool.map`` et al.) is resolved
through the project :class:`~repro.lint.callgraph.CallGraph`; every
function reachable from it must neither mutate module-level mutable
state nor draw unseeded randomness, otherwise results depend on the
worker-process schedule.  Lambdas cannot cross at all.

All three report through the ordinary :class:`~repro.lint.rules.Violation`
channel, honor ``# repro-lint: disable=RX`` suppressions, and run from
``lint_file``/``lint_paths`` next to R1-R4.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterable, Optional, Union

from repro.lint import cfg as _cfg
from repro.lint.callgraph import CallGraph, build_callgraph, module_name_for
from repro.lint.dataflow import ForwardAnalysis, run_forward
from repro.lint.rules import Violation, rules_for_path, suppressions_by_line

__all__ = ["FLOW_RULES", "check_flow_source"]

#: The rule codes implemented by this module.
FLOW_RULES = frozenset({"R5", "R6", "R7"})

_ACQUIRE_ATTRS = frozenset({"reserve", "reserve_links"})
_RELEASE_ATTRS = frozenset(
    {"release", "release_links", "release_path", "release_if_held"}
)
#: Methods that ship a callable to another process.
_POOL_METHODS = frozenset(
    {
        "map",
        "imap",
        "imap_unordered",
        "starmap",
        "apply",
        "apply_async",
        "map_async",
        "starmap_async",
        "submit",
    }
)
_STREAM_MINTERS = frozenset(
    {"StreamFactory", "Random", "RandomState", "default_rng", "SeedSequence"}
)
_COLUMN_ATTRS = frozenset({"reserved", "capacity"})
#: The one module allowed to construct randomness (R7 fact exemption).
_RNG_AUTHORITY_PREFIX = "repro.sim.random_streams."

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_pruned(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function/class scopes."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _NESTED_SCOPES):
                continue
            stack.append(child)


def _scan_roots(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of ``stmt`` executed *at* its CFG block.

    Compound statements anchor their whole AST node in one block while
    their bodies live in other blocks; scanning the full node would
    double-count every nested call.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, _NESTED_SCOPES):
        return []
    return [stmt]


def _binding_names(stmt: ast.stmt) -> set[str]:
    """Names (re)bound by ``stmt`` itself (not by its nested body)."""
    names: set[str] = set()
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars for item in stmt.items if item.optional_vars
        ]
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


# ---------------------------------------------------------------------------
# R5: reservation pairing
# ---------------------------------------------------------------------------
#: token = (receiver source text, acquire line, acquire col)
_Token = tuple[str, int, int]


class _StmtFacts:
    """What one statement does to the abstract reservation state."""

    __slots__ = ("acquires", "kills", "escapes", "rebinds")

    def __init__(self) -> None:
        self.acquires: list[_Token] = []
        self.kills: set[str] = set()
        self.escapes: set[str] = set()
        self.rebinds: set[str] = set()


def _is_cps_acquire(call: ast.Call) -> bool:
    """Reserve calls taking a completion callback delegate ownership."""
    args = list(call.args) + [kw.value for kw in call.keywords]
    return any(isinstance(arg, ast.Lambda) for arg in args)


def _collect_stmt_facts(stmt: ast.stmt) -> _StmtFacts:
    facts = _StmtFacts()
    facts.rebinds |= _binding_names(stmt)
    for root in _scan_roots(stmt):
        for node in _walk_pruned(root):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    receiver = ast.unparse(func.value)
                    if node_attr_in(func, _ACQUIRE_ATTRS) and not _is_cps_acquire(
                        node
                    ):
                        facts.acquires.append(
                            (receiver, node.lineno, node.col_offset)
                        )
                    elif node_attr_in(func, _RELEASE_ATTRS):
                        facts.kills.add(receiver)
                # Any receiver handed to another call escapes: the
                # callee (lease table, rollback list...) now co-owns
                # the reservation's lifecycle.
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    inner = arg.value if isinstance(arg, ast.Starred) else arg
                    if isinstance(inner, (ast.Name, ast.Attribute)):
                        facts.escapes.add(ast.unparse(inner))
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    for sub in ast.walk(value):
                        if isinstance(sub, (ast.Name, ast.Attribute)):
                            facts.escapes.add(ast.unparse(sub))
            elif isinstance(node, ast.Assign):
                # Storing a receiver into an attribute/subscript
                # publishes it; the structure's owner releases later.
                if any(
                    not isinstance(target, ast.Name) for target in node.targets
                ):
                    for sub in ast.walk(node.value):
                        if isinstance(sub, (ast.Name, ast.Attribute)):
                            facts.escapes.add(ast.unparse(sub))
            elif isinstance(node, _NESTED_SCOPES):
                # A closure capturing the receiver escapes it.
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load
                    ):
                        facts.escapes.add(sub.id)
    return facts


def node_attr_in(func: ast.Attribute, names: frozenset[str]) -> bool:
    return func.attr in names


class _ReservationAnalysis(ForwardAnalysis):
    """Forward may-hold analysis over reservation tokens."""

    def __init__(self) -> None:
        self._facts: dict[int, _StmtFacts] = {}

    def facts_for(self, block: _cfg.Block) -> _StmtFacts:
        cached = self._facts.get(block.id)
        if cached is None:
            assert block.stmt is not None
            cached = _collect_stmt_facts(block.stmt)
            self._facts[block.id] = cached
        return cached

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def transfer(self, block: _cfg.Block, state: frozenset) -> frozenset:
        facts = self.facts_for(block)
        dead = facts.kills | facts.escapes | facts.rebinds
        survivors = {token for token in state if token[0] not in dead}
        survivors.update(facts.acquires)
        return frozenset(survivors)

    def transfer_exception(self, block: _cfg.Block, state: frozenset) -> frozenset:
        # An exception commits kills but not acquires: `reserve`
        # raising means nothing was acquired, while `release` raising
        # (KeyError: not held) means the token is dead either way —
        # otherwise the canonical try/finally release pattern would
        # itself be flagged.  Escapes/rebinds are *not* applied: the
        # raise may precede them.
        facts = self.facts_for(block)
        return frozenset(
            token for token in state if token[0] not in facts.kills
        )


def _exempt_at_normal_exit(name: str) -> bool:
    lowered = name.lower()
    return "reserve" in lowered or "acquire" in lowered


def _exception_escapes(block: _cfg.Block, graph: _cfg.CFG) -> bool:
    """Whether an exception raised at ``block`` can leave the function.

    Follows the exception edge through ``except-dispatch`` chains; a
    path into a ``finally-exception`` copy re-raises at its end, a path
    into a handler body is treated as caught.
    """
    for edge in block.succ:
        if edge.kind != _cfg.EXCEPTION:
            continue
        stack = [edge.target]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node is graph.raise_exit:
                return True
            if node.id in seen:
                continue
            seen.add(node.id)
            if node.label.startswith("finally-exception"):
                return True
            if node.label == "except-dispatch":
                stack.extend(
                    out.target
                    for out in node.succ
                    if out.kind == _cfg.EXCEPTION and out.target.label != "except"
                )
    return False


class _GuardIndex(ast.NodeVisitor):
    """Which ``.release()`` calls sit under a matching ``.holds()`` guard."""

    def __init__(self) -> None:
        self.guarded: set[int] = set()
        self._active: list[str] = []

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        guard: Optional[str] = None
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Attribute)
            and test.func.attr == "holds"
        ):
            guard = ast.unparse(test.func.value)
        if guard is not None:
            self._active.append(guard)
        for stmt in node.body:
            self.visit(stmt)
        if guard is not None:
            self._active.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
            and ast.unparse(node.func.value) in self._active
        ):
            self.guarded.add(id(node))
        self.generic_visit(node)


def _check_r5(tree: ast.Module, path: str, sink: list[Violation]) -> None:
    for func in _cfg.iter_function_defs(tree):
        graph = _cfg.build_cfg(func)
        analysis = _ReservationAnalysis()
        result = run_forward(graph, analysis)

        reported: set[_Token] = set()
        raise_state = result.raise_state or frozenset()
        for token in sorted(raise_state):
            reported.add(token)
            sink.append(
                Violation(
                    path,
                    token[1],
                    token[2],
                    "R5",
                    f"reservation acquired on {token[0]!r} can still be "
                    f"held when {func.name!r} exits on an exception path; "
                    "release it in a finally, register a lease, or hand "
                    "it off before anything after it can raise",
                )
            )
        if not _exempt_at_normal_exit(func.name):
            exit_state = result.exit_state or frozenset()
            for token in sorted(exit_state):
                if token in reported:
                    continue
                sink.append(
                    Violation(
                        path,
                        token[1],
                        token[2],
                        "R5",
                        f"reservation acquired on {token[0]!r} is still "
                        f"held when {func.name!r} returns, with no "
                        "release, lease registration, or hand-off on "
                        "that path",
                    )
                )

        # Fragile sweep: strict release in a loop whose exception
        # escapes — one missing leg strands the rest of the sweep.
        guards = _GuardIndex()
        for stmt in func.body:
            guards.visit(stmt)
        for block in graph.statement_blocks():
            if block.loop_depth < 1:
                continue
            if not _exception_escapes(block, graph):
                continue
            for root in _scan_roots(block.stmt):  # type: ignore[arg-type]
                for node in _walk_pruned(root):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                        and id(node) not in guards.guarded
                    ):
                        sink.append(
                            Violation(
                                path,
                                node.lineno,
                                node.col_offset,
                                "R5",
                                "strict release inside a sweep loop: a "
                                "KeyError on one missing leg strands every "
                                "remaining reservation; use release_if_held "
                                "or guard with .holds()",
                            )
                        )


# ---------------------------------------------------------------------------
# R6: signaling-handler discipline
# ---------------------------------------------------------------------------
class _ConstEnvAnalysis(ForwardAnalysis):
    """Constant propagation: which locals hold known numbers where.

    State is a frozenset of ``(name, value)`` pairs; join is
    intersection (a name must agree on every incoming path to stay
    known).  Only simple straight-line assignments update the
    environment — everything else just invalidates what it rebinds.
    """

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left & right

    def transfer(self, block: _cfg.Block, state: frozenset) -> frozenset:
        stmt = block.stmt
        assert stmt is not None
        env = dict(state)
        for name in _binding_names(stmt):
            env.pop(name, None)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                value = _const_eval(stmt.value, dict(state))
                if value is not None:
                    env[target.id] = value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                value = _const_eval(stmt.value, dict(state))
                if value is not None:
                    env[stmt.target.id] = value
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            previous = dict(state).get(stmt.target.id)
            delta = _const_eval(stmt.value, dict(state))
            if previous is not None and delta is not None:
                combined = _apply_binop(stmt.op, previous, delta)
                if combined is not None:
                    env[stmt.target.id] = combined
        return frozenset(env.items())


def _apply_binop(op: ast.operator, left: float, right: float) -> Optional[float]:
    if isinstance(op, ast.Add):
        return left + right
    if isinstance(op, ast.Sub):
        return left - right
    if isinstance(op, ast.Mult):
        return left * right
    if isinstance(op, ast.Div):
        return left / right if right != 0 else None
    return None


def _const_eval(node: ast.expr, env: dict[str, float]) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.UnaryOp):
        inner = _const_eval(node.operand, env)
        if inner is None:
            return None
        if isinstance(node.op, ast.USub):
            return -inner
        if isinstance(node.op, ast.UAdd):
            return inner
        return None
    if isinstance(node, ast.BinOp):
        left = _const_eval(node.left, env)
        right = _const_eval(node.right, env)
        if left is None or right is None:
            return None
        return _apply_binop(node.op, left, right)
    return None


def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _check_r6(tree: ast.Module, path: str, sink: list[Violation]) -> None:
    # (a) stream minting and (b) column access: syntactic, whole file.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = _callee_name(node.func)
            if callee in _STREAM_MINTERS or callee == "stream":
                sink.append(
                    Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "R6",
                        f"signaling code mints a randomness source "
                        f"({callee}); named streams are injected by the "
                        "harness, never created in the signaling plane",
                    )
                )
            elif callee == "schedule_at":
                sink.append(
                    Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "R6",
                        "absolute-time scheduling in the signaling plane; "
                        "use relative schedule(delay, ...) so timestamps "
                        "stay monotone by construction",
                    )
                )
        elif isinstance(node, ast.Attribute) and node.attr in _COLUMN_ATTRS:
            sink.append(
                Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "R6",
                    f"direct LinkStateArrays column access (.{node.attr}); "
                    "the signaling plane reads bandwidth only through the "
                    "Link API",
                )
            )

    # (c) negative constant-derived delays: dataflow per function.
    for func in _cfg.iter_function_defs(tree):
        graph = _cfg.build_cfg(func)
        result = run_forward(graph, _ConstEnvAnalysis())
        for block in graph.statement_blocks():
            state = result.state_at(block)
            if state is None:
                continue
            env = dict(state)
            for root in _scan_roots(block.stmt):  # type: ignore[arg-type]
                for node in _walk_pruned(root):
                    if (
                        isinstance(node, ast.Call)
                        and _callee_name(node.func) == "schedule"
                        and node.args
                    ):
                        delay = _const_eval(node.args[0], env)
                        if delay is not None and delay < 0:
                            sink.append(
                                Violation(
                                    path,
                                    node.lineno,
                                    node.col_offset,
                                    "R6",
                                    f"event scheduled with a constant-"
                                    f"derived negative delay ({delay:g}); "
                                    "simulation time would run backwards",
                                )
                            )


# ---------------------------------------------------------------------------
# R7: pool purity
# ---------------------------------------------------------------------------
def _resolve_boundary_roots(
    target: ast.expr, module: str, graph: CallGraph
) -> list[str]:
    if isinstance(target, ast.Name):
        own = f"{module}.{target.id}"
        if graph.lookup(own) is not None:
            return [own]
        return graph.methods_named(target.id)
    if isinstance(target, ast.Attribute):
        return graph.methods_named(target.attr)
    return []


def _check_r7(
    tree: ast.Module, path: str, graph: CallGraph, sink: list[Violation]
) -> None:
    module = module_name_for(path)
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_METHODS
            and node.args
        ):
            continue
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            sink.append(
                Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "R7",
                    "lambda crosses the multiprocessing boundary; use a "
                    "named module-level function (picklable, auditable)",
                )
            )
            continue
        roots = _resolve_boundary_roots(target, module, graph)
        flagged: set[str] = set()
        for qualname in graph.reachable(roots):
            if qualname in flagged:
                continue
            info = graph.lookup(qualname)
            if info is None or qualname.startswith(_RNG_AUTHORITY_PREFIX):
                continue
            if info.mutates_module_state:
                name, line = info.mutates_module_state[0]
                flagged.add(qualname)
                sink.append(
                    Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "R7",
                        f"{qualname} (reachable across this pool boundary) "
                        f"mutates module-level state {name!r} at "
                        f"{info.path}:{line}; workers must be pure",
                    )
                )
            elif info.unseeded_rng:
                dotted, line = info.unseeded_rng[0]
                flagged.add(qualname)
                sink.append(
                    Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "R7",
                        f"{qualname} (reachable across this pool boundary) "
                        f"draws unseeded randomness ({dotted}) at "
                        f"{info.path}:{line}; workers must be pure",
                    )
                )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def check_flow_source(
    source: str,
    path: Union[str, PurePath],
    rules: Optional[set[str]] = None,
    graph: Optional[CallGraph] = None,
) -> list[Violation]:
    """Run the flow rules on one file; returns surviving violations.

    ``graph`` is the project call graph for R7; without one, a
    single-file graph is built on the fly (cross-module reachability
    is then invisible — ``lint_paths`` passes the full graph).
    Syntax errors yield no findings here: the per-file pass already
    reports them as E999.
    """
    path_text = str(path)
    if rules is None:
        rules = rules_for_path(path_text)
    active = set(rules) & FLOW_RULES
    if not active:
        return []
    try:
        tree = ast.parse(source, filename=path_text)
    except SyntaxError:
        return []
    found: list[Violation] = []
    if "R5" in active:
        _check_r5(tree, path_text, found)
    if "R6" in active:
        _check_r6(tree, path_text, found)
    if "R7" in active:
        if graph is None:
            graph = build_callgraph({path_text: source})
        _check_r7(tree, path_text, graph, found)
    suppressed = suppressions_by_line(source)
    kept = [
        violation
        for violation in found
        if violation.rule not in suppressed.get(violation.line, ())
    ]
    kept.sort(key=lambda violation: (violation.line, violation.col, violation.rule))
    return kept
