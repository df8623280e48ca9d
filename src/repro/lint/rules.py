"""AST rules behind ``python -m repro.lint``.

Four project-specific determinism rules (see CONTRIBUTING.md for the
rationale and examples):

``R1``
    No unseeded randomness (the stdlib :mod:`random` module,
    ``numpy.random``) and no wall-clock reads (``time.time``,
    ``datetime.now``...) anywhere in ``src/repro``.  All stochastic
    draws go through :mod:`repro.sim.random_streams`, which is itself
    exempt.  ``time.perf_counter`` is allowed: it measures host
    duration, never feeds simulation state.
``R2``
    No iteration over ``set``/``frozenset`` values (or direct
    ``dict.keys()`` iteration) in the determinism-critical modules
    ``sim/``, ``core/``, ``signaling/`` and
    ``experiments/parallel.py``.  Sets may be
    used for membership tests and order-insensitive reductions
    (``len``, ``sorted``, ``min``...), never as an iteration source.
``R3``
    All link-bandwidth mutation goes through the
    ``Network.reserve_links`` / ``Link.release`` API.  Direct writes
    to :class:`~repro.network.link.LinkStateArrays` columns
    (``state.reserved[i] = ...``) and to their ``writes`` counter
    are only legal inside ``network/``.
``R4``
    No ``==``/``!=`` on simulation timestamps.  Exact float equality
    on times is almost always a latent tie-break or NaN bug; an
    intentional site carries an inline ``# repro-lint: disable=R4``.

Detection is deliberately syntactic: the rules over-approximate
(a variable merely *named* like a timestamp triggers R4) and every
rule can be silenced on one line with ``# repro-lint: disable=RX``.
False positives cost a comment; false negatives cost a broken
determinism contract.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import PurePath
from typing import Iterator, Optional, Union

__all__ = [
    "ALL_RULES",
    "Violation",
    "check_source",
    "rules_for_path",
    "suppressions_by_line",
]

#: Rule code -> one-line description (shown by ``--list-rules``).
#: R1-R4 are per-file AST rules implemented here; R5-R7 are the
#: flow-sensitive rules of :mod:`repro.lint.flowrules`, built on the
#: CFG/dataflow engine.
ALL_RULES: dict[str, str] = {
    "R1": "unseeded randomness or wall-clock time; use sim.random_streams",
    "R2": "iteration over an unordered set in a determinism-critical module",
    "R3": "direct LinkStateArrays column or counter write outside network/",
    "R4": "==/!= comparison on simulation timestamps",
    "R5": "reservation acquired on some path without release/lease hand-off",
    "R6": "signaling-handler discipline: injected streams, Link API, "
    "monotone relative delays",
    "R7": "impure callable (module state / unseeded rng) crosses the "
    "multiprocessing pool boundary",
}


@dataclass(frozen=True)
class Violation:
    """One rule breach at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# suppressions and scoping
# ---------------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")


def suppressions_by_line(source: str) -> dict[int, set[str]]:
    """Map line number -> rule codes disabled on that line."""
    suppressed: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            suppressed[lineno] = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
    return suppressed


def rules_for_path(path: Union[str, PurePath]) -> set[str]:
    """The rule codes that apply to ``path``.

    Files inside a ``repro`` package get the scoped rule set from the
    module docstring; files outside any ``repro`` package (test
    fixtures, scratch scripts) get every rule.
    """
    parts = PurePath(path).parts
    if "repro" not in parts:
        return set(ALL_RULES)
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    relative = parts[anchor + 1 :]
    rules = {"R1", "R3", "R4"}
    if relative:
        if relative[0] in ("sim", "core", "signaling") or relative == (
            "experiments",
            "parallel.py",
        ):
            rules.add("R2")
        if relative[0] == "network":
            rules.discard("R3")
        # Flow-sensitive rules, scoped to the modules whose invariants
        # they encode (see repro.lint.flowrules).
        if relative[0] in ("network", "signaling") or relative == (
            "core",
            "admission.py",
        ):
            rules.add("R5")
        if relative in (("signaling", "rsvp.py"), ("signaling", "channel.py")):
            rules.add("R6")
        if relative == ("experiments", "parallel.py"):
            rules.add("R7")
    if relative == ("sim", "random_streams.py"):
        rules.discard("R1")
    return rules


# ---------------------------------------------------------------------------
# R1: unseeded randomness and wall clock
# ---------------------------------------------------------------------------
#: Wall-clock reads by fully-qualified dotted name.  perf_counter and
#: process_time are intentionally absent: they measure host durations
#: for benchmarking and never feed simulation state.
_WALL_CLOCK = frozenset(
    {"time." + name for name in (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
    )}
    | {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _r1_reason(full_name: str) -> Optional[str]:
    if full_name == "random" or full_name.startswith("random."):
        return "unseeded stdlib randomness"
    if full_name == "numpy.random" or full_name.startswith("numpy.random."):
        return "unseeded numpy randomness"
    if full_name in _WALL_CLOCK:
        return "wall-clock read"
    return None


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Bound name -> fully dotted origin, for every import in the file."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname is not None:
                    aliases[item.asname] = item.name
                else:
                    root = item.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports are repro-internal
            for item in node.names:
                bound = item.asname or item.name
                aliases[bound] = f"{node.module}.{item.name}"
    return aliases


def _dotted_name(
    node: ast.expr, aliases: dict[str, str]
) -> Optional[str]:
    """Resolve an attribute chain to its imported dotted origin.

    Returns ``None`` when the chain is not rooted in an imported name,
    so locals that shadow module names (``time = float(time)``) never
    resolve.
    """
    trail: list[str] = []
    while isinstance(node, ast.Attribute):
        trail.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    trail.append(aliases[node.id])
    return ".".join(reversed(trail))


class _R1Visitor(ast.NodeVisitor):
    def __init__(self, aliases: dict[str, str], sink: list[Violation], path: str):
        self._aliases = aliases
        self._sink = sink
        self._path = path

    def _flag(self, node: ast.AST, reason: str, name: str) -> None:
        self._sink.append(
            Violation(
                self._path,
                node.lineno,
                node.col_offset,
                "R1",
                f"{reason} ({name}); draw from sim.random_streams instead",
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for item in node.names:
            reason = _r1_reason(item.name)
            if reason is not None:
                self._flag(node, reason, item.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        for item in node.names:
            reason = _r1_reason(f"{node.module}.{item.name}")
            if reason is not None:
                self._flag(node, reason, f"{node.module}.{item.name}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        full = _dotted_name(node, self._aliases)
        if full is not None:
            reason = _r1_reason(full)
            if reason is not None:
                self._flag(node, reason, full)
                return  # the whole chain is one finding
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self._aliases:
            full = self._aliases[node.id]
            # Only from-imports resolve a bare name to a banned dotted
            # target (``from time import time``); plain module aliases
            # are caught at the attribute chain or the import itself.
            if "." in full:
                reason = _r1_reason(full)
                if reason is not None:
                    self._flag(node, reason, full)


# ---------------------------------------------------------------------------
# R2: set iteration
# ---------------------------------------------------------------------------
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: Consumers whose output order follows the input's iteration order.
_ORDER_SENSITIVE = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})


class _R2Visitor(ast.NodeVisitor):
    """Flags iteration over syntactically set-typed expressions.

    Set-ness is inferred per scope from literals, ``set()`` /
    ``frozenset()`` calls, set operators and simple assignments.
    Order-insensitive consumers (``sorted``, ``len``, ``min``,
    membership tests...) are untouched.
    """

    def __init__(self, sink: list[Violation], path: str):
        self._sink = sink
        self._path = path
        self._scopes: list[dict[str, bool]] = [{}]

    def _flag(self, node: ast.AST, message: str) -> None:
        self._sink.append(
            Violation(self._path, node.lineno, node.col_offset, "R2", message)
        )

    # -- set-type inference -------------------------------------------------
    def _lookup(self, name: str) -> bool:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return False

    def _is_set(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set(node.left) or self._is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set(node.body) or self._is_set(node.orelse)
        return False

    @staticmethod
    def _is_keys_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        )

    # -- scope and assignment tracking --------------------------------------
    def _enter_scope(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _enter_scope
    visit_AsyncFunctionDef = _enter_scope
    visit_ClassDef = _enter_scope
    visit_Lambda = _enter_scope

    def _bind(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self._scopes[-1][target.id] = is_set
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, False)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self._is_set(node.value)
        for target in node.targets:
            self._bind(target, is_set)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        annotation = node.annotation
        annotated_set = False
        if isinstance(annotation, ast.Name):
            annotated_set = annotation.id in ("set", "frozenset")
        elif isinstance(annotation, ast.Subscript) and isinstance(
            annotation.value, ast.Name
        ):
            annotated_set = annotation.value.id in ("set", "frozenset")
        self._bind(node.target, annotated_set or self._is_set(node.value))

    # -- iteration contexts --------------------------------------------------
    def _check_iterable(self, node: ast.expr) -> None:
        if self._is_set(node):
            self._flag(
                node,
                "iterating a set; sort it (or use an ordered container) "
                "to fix the traversal order",
            )
        elif self._is_keys_call(node):
            self._flag(
                node,
                "iterating dict.keys(); iterate the mapping itself so the "
                "ordering contract is explicit",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self._bind(node.target, False)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in node.generators:  # type: ignore[attr-defined]
            self._check_iterable(generator.iter)
            self._bind(generator.target, False)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and node.args:
            if func.id in _ORDER_SENSITIVE and self._is_set(node.args[0]):
                self._flag(
                    node,
                    f"{func.id}() over a set has nondeterministic order; "
                    "sort first",
                )
            elif func.id == "map" and any(
                self._is_set(arg) for arg in node.args[1:]
            ):
                self._flag(node, "map() over a set has nondeterministic order")
            elif (
                func.id == "filter"
                and len(node.args) > 1
                and self._is_set(node.args[1])
            ):
                self._flag(
                    node, "filter() over a set has nondeterministic order"
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and not node.args
            and self._is_set(func.value)
        ):
            self._flag(
                node, "set.pop() removes an arbitrary element; not deterministic"
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# R3: direct LinkStateArrays column writes
# ---------------------------------------------------------------------------
#: The two columns and the write counter that readers trust to move
#: with every column write.
_COLUMNS = ("reserved", "capacity", "writes")
_MUTATORS = frozenset({"append", "extend", "insert", "pop", "remove", "clear"})


def _column_attr(node: ast.expr) -> Optional[str]:
    """``state.reserved[...]`` / ``x.capacity`` / ``x.writes`` -> the name."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _COLUMNS:
        return node.attr
    return None


class _R3Visitor(ast.NodeVisitor):
    def __init__(self, sink: list[Violation], path: str):
        self._sink = sink
        self._path = path

    def _flag(self, node: ast.AST, column: str) -> None:
        self._sink.append(
            Violation(
                self._path,
                node.lineno,
                node.col_offset,
                "R3",
                f"direct write to LinkStateArrays.{column}; go through "
                "Network.reserve_links / Link.release",
            )
        )

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        column = _column_attr(target)
        if column is not None:
            self._flag(target, column)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            column = _column_attr(func.value)
            if column is not None:
                self._flag(node, column)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# R4: ==/!= on timestamps
# ---------------------------------------------------------------------------
_TIME_NAMES = frozenset({"time", "now", "timestamp"})


def _is_time_like(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    name = name.lstrip("_")
    return (
        name in _TIME_NAMES
        or name.endswith("_time")
        or name.endswith("_timestamp")
        or name.endswith("_at")
    )


def _is_str_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


class _R4Visitor(ast.NodeVisitor):
    def __init__(self, sink: list[Violation], path: str):
        self._sink = sink
        self._path = path

    def visit_Compare(self, node: ast.Compare) -> None:
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if (
                isinstance(op, (ast.Eq, ast.NotEq))
                and (_is_time_like(left) or _is_time_like(right))
                and not _is_str_constant(left)
                and not _is_str_constant(right)
            ):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self._sink.append(
                    Violation(
                        self._path,
                        node.lineno,
                        node.col_offset,
                        "R4",
                        f"{symbol} on a simulation timestamp; exact float "
                        "equality on times hides tie-break and NaN bugs "
                        "(use math.isnan / ordered comparisons)",
                    )
                )
            left = right
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def check_source(
    source: str,
    path: Union[str, PurePath],
    rules: Optional[set[str]] = None,
) -> list[Violation]:
    """Lint one file's source text; returns surviving violations.

    ``rules`` overrides the path-derived scope (used by the rule
    self-tests).  Suppression comments are applied here, so callers
    always see the post-suppression result.
    """
    path_text = str(path)
    if rules is None:
        rules = rules_for_path(path_text)
    try:
        tree = ast.parse(source, filename=path_text)
    except SyntaxError as error:
        return [
            Violation(
                path_text,
                error.lineno or 1,
                (error.offset or 1) - 1,
                "E999",
                f"syntax error: {error.msg}",
            )
        ]
    found: list[Violation] = []
    if "R1" in rules:
        _R1Visitor(_import_aliases(tree), found, path_text).visit(tree)
    if "R2" in rules:
        _R2Visitor(found, path_text).visit(tree)
    if "R3" in rules:
        _R3Visitor(found, path_text).visit(tree)
    if "R4" in rules:
        _R4Visitor(found, path_text).visit(tree)
    suppressed = suppressions_by_line(source)
    kept = [
        violation
        for violation in found
        if violation.rule not in suppressed.get(violation.line, ())
    ]
    kept.sort(key=lambda violation: (violation.line, violation.col, violation.rule))
    return kept


def iter_violations(
    source: str, path: Union[str, PurePath]
) -> Iterator[Violation]:
    """Convenience iterator over :func:`check_source`."""
    yield from check_source(source, path)
