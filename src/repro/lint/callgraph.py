"""Project-wide call graph with purity facts, for rule R7.

The pool-purity rule must answer a *transitive* question: is anything
reachable from a callable shipped across the multiprocessing boundary
impure (mutating module-level state, drawing unseeded randomness)?
That needs more than one file's AST — this module indexes every
function and method of the linted tree, resolves call sites between
them, and attaches the two impurity facts to each function.

Resolution is deliberately conservative-but-useful:

* ``name(...)`` resolves through the module's own functions and its
  ``from``-imports;
* ``module.func(...)`` resolves through ``import`` aliases;
* ``self.method(...)`` / ``cls.method(...)`` resolves inside the
  enclosing class first;
* any other ``obj.method(...)`` resolves to **every** project method
  of that name (an over-approximation: better to scan too much of the
  project than to silently skip the impure branch).

Calls into modules outside the indexed tree (stdlib, numpy...) are
recorded as unresolved and ignored by traversal — the R1 rule already
polices the dangerous external modules syntactically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterable, Optional, Union

__all__ = ["CallGraph", "FunctionInfo", "build_callgraph", "module_name_for"]

#: Container constructors whose module-level bindings count as mutable
#: state (a worker touching one races or diverges across processes).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


def module_name_for(path: Union[str, PurePath]) -> str:
    """Dotted module name of ``path``, anchored at a ``repro`` package.

    Files outside any ``repro`` package (fixtures, scratch scripts) get
    their stem as a flat module name.
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = list(parts[anchor:])
    else:
        dotted = [parts[-1]]
    if dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][:-3]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str  # module.Class.method or module.func
    module: str
    name: str
    path: str
    lineno: int
    #: resolved callee qualnames (deduplicated, source order)
    calls: list[str] = field(default_factory=list)
    #: unresolved call targets, as dotted text (diagnostics only)
    unresolved: list[str] = field(default_factory=list)
    #: (module-level name, lineno) pairs this function mutates
    mutates_module_state: list[tuple[str, int]] = field(default_factory=list)
    #: (dotted rng/clock name, lineno) pairs drawn outside named streams
    unseeded_rng: list[tuple[str, int]] = field(default_factory=list)


class CallGraph:
    """Functions of a file set plus their resolved call edges."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self._methods_by_name: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def add(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self._methods_by_name.setdefault(info.name, []).append(info.qualname)

    def methods_named(self, name: str) -> list[str]:
        """Every indexed function with terminal name ``name``."""
        return list(self._methods_by_name.get(name, ()))

    def lookup(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def reachable(self, roots: Iterable[str]) -> list[str]:
        """Qualnames reachable from ``roots`` (BFS, deterministic order)."""
        seen: dict[str, None] = {}
        frontier = [root for root in roots if root in self.functions]
        for root in frontier:
            seen[root] = None
        while frontier:
            current = frontier.pop(0)
            for callee in self.functions[current].calls:
                if callee in self.functions and callee not in seen:
                    seen[callee] = None
                    frontier.append(callee)
        return list(seen)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------
@dataclass
class _ModuleIndex:
    name: str
    path: str
    tree: ast.Module
    #: bound name -> dotted import origin
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level function name -> qualname
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> {method name -> qualname}
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: module-level names bound to mutable containers
    mutable_globals: dict[str, int] = field(default_factory=dict)


def _index_module(name: str, path: str, tree: ast.Module) -> _ModuleIndex:
    index = _ModuleIndex(name=name, path=path, tree=tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                bound = item.asname or item.name.split(".", 1)[0]
                index.imports[bound] = item.name if item.asname else bound
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                continue
            # Relative imports resolve against the repro package root.
            prefix = node.module
            for item in node.names:
                bound = item.asname or item.name
                index.imports[bound] = f"{prefix}.{item.name}"
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[node.name] = f"{name}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            methods = {}
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[member.name] = f"{name}.{node.name}.{member.name}"
            index.classes[node.name] = methods
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if _is_mutable_binding(node.value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        index.mutable_globals[target.id] = node.lineno
    return index


def _is_mutable_binding(value: Optional[ast.expr]) -> bool:
    if value is None:
        return False
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        callee = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        return callee in _MUTABLE_FACTORIES
    return False


def _dotted_text(node: ast.expr) -> Optional[str]:
    trail: list[str] = []
    while isinstance(node, ast.Attribute):
        trail.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    trail.append(node.id)
    return ".".join(reversed(trail))


#: Seeded-constructor idioms: building a generator from an explicit
#: seed is exactly how named streams are made, so these are not facts.
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
    }
)


def _rng_reason(dotted: str) -> bool:
    if dotted in _SEEDED_CONSTRUCTORS:
        return False
    return (
        dotted.startswith("random.")
        or dotted.startswith("numpy.random.")
        or dotted in ("time.time", "time.time_ns", "datetime.datetime.now")
    )


class _FunctionScanner(ast.NodeVisitor):
    """Extracts calls and impurity facts from one function body."""

    def __init__(
        self,
        info: FunctionInfo,
        index: _ModuleIndex,
        class_name: Optional[str],
        graph: CallGraph,
        modules_by_name: dict[str, _ModuleIndex],
        local_names: set[str],
    ) -> None:
        self._info = info
        self._index = index
        self._class = class_name
        self._graph = graph
        self._modules = modules_by_name
        self._locals = local_names
        self._globals_declared: set[str] = set()

    # -- helpers -------------------------------------------------------
    def _record_call(self, qualnames: list[str], text: str) -> None:
        if qualnames:
            for qualname in qualnames:
                if qualname not in self._info.calls:
                    self._info.calls.append(qualname)
        elif text not in self._info.unresolved:
            self._info.unresolved.append(text)

    def _resolve_call(self, func: ast.expr) -> tuple[list[str], str]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in self._locals:
                return [], name  # locally bound callable: opaque
            if name in self._index.functions:
                return [self._index.functions[name]], name
            origin = self._index.imports.get(name)
            if origin is not None:
                if origin in self._graph.functions:
                    return [origin], name
                # ``from module import func`` where module is indexed.
                module, _, attr = origin.rpartition(".")
                target = self._modules.get(module)
                if target is not None and attr in target.functions:
                    return [target.functions[attr]], name
                if target is not None and attr in target.classes:
                    ctor = target.classes[attr].get("__init__")
                    return ([ctor], name) if ctor else ([], name)
            if name in self._index.classes:
                ctor = self._index.classes[name].get("__init__")
                return ([ctor], name) if ctor else ([], name)
            return [], name
        if isinstance(func, ast.Attribute):
            dotted = _dotted_text(func) or func.attr
            root = dotted.split(".", 1)[0]
            if root in ("self", "cls") and self._class is not None:
                own = self._index.classes.get(self._class, {})
                if func.attr in own:
                    return [own[func.attr]], dotted
            origin = self._index.imports.get(root)
            if origin is not None and "." in dotted:
                # module.func(...) through an import alias
                resolved_module = self._modules.get(
                    dotted.replace(root, origin, 1).rsplit(".", 1)[0]
                )
                if resolved_module is not None:
                    attr = dotted.rsplit(".", 1)[1]
                    if attr in resolved_module.functions:
                        return [resolved_module.functions[attr]], dotted
                    if attr in resolved_module.classes:
                        ctor = resolved_module.classes[attr].get("__init__")
                        return ([ctor], dotted) if ctor else ([], dotted)
                return [], dotted
            # Unknown receiver: over-approximate by method name.
            return self._graph.methods_named(func.attr), dotted
        return [], "<computed>"

    # -- visitors ------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are indexed separately

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Global(self, node: ast.Global) -> None:
        self._globals_declared.update(node.names)

    def visit_Call(self, node: ast.Call) -> None:
        qualnames, text = self._resolve_call(node.func)
        self._record_call(qualnames, text)
        # Mutator method on a module-level mutable binding.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self._index.mutable_globals
            and node.func.value.id not in self._locals
        ):
            self._info.mutates_module_state.append(
                (node.func.value.id, node.lineno)
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_store_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_targets([node.target], node.lineno)
        self.generic_visit(node)

    def _check_store_targets(self, targets: list[ast.expr], lineno: int) -> None:
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in self._globals_declared
            ):
                self._info.mutates_module_state.append((target.id, lineno))
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                if name in self._index.mutable_globals and name not in self._locals:
                    self._info.mutates_module_state.append((name, lineno))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted_text(node)
        if dotted is not None:
            root = dotted.split(".", 1)[0]
            origin = self._index.imports.get(root)
            if origin is not None and root not in self._locals:
                resolved = dotted.replace(root, origin, 1)
                if _rng_reason(resolved):
                    self._info.unseeded_rng.append((resolved, node.lineno))
                    return
        self.generic_visit(node)


def _local_bindings(func: ast.AST) -> set[str]:
    names: set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for group in (
            args.posonlyargs,
            args.args,
            args.kwonlyargs,
            [args.vararg] if args.vararg else [],
            [args.kwarg] if args.kwarg else [],
        ):
            for arg in group:
                names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def build_callgraph(sources: dict[str, str]) -> CallGraph:
    """Index ``{path: source}`` into a :class:`CallGraph`.

    Files that fail to parse are skipped (the per-file rules report the
    syntax error separately).
    """
    graph = CallGraph()
    modules: list[_ModuleIndex] = []
    for path in sorted(sources):
        try:
            tree = ast.parse(sources[path], filename=path)
        except SyntaxError:
            continue
        modules.append(_index_module(module_name_for(path), path, tree))
    modules_by_name = {module.name: module for module in modules}

    # Pass 1: register every function so name-based resolution sees
    # the whole project.
    pending: list[tuple[_ModuleIndex, Optional[str], ast.AST, FunctionInfo]] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            class_name = _enclosing_class(module.tree, node)
            qualname = (
                f"{module.name}.{class_name}.{node.name}"
                if class_name
                else f"{module.name}.{node.name}"
            )
            info = FunctionInfo(
                qualname=qualname,
                module=module.name,
                name=node.name,
                path=module.path,
                lineno=node.lineno,
            )
            graph.add(info)
            pending.append((module, class_name, node, info))

    # Pass 2: scan bodies with the complete registry available.
    for module, class_name, node, info in pending:
        scanner = _FunctionScanner(
            info,
            module,
            class_name,
            graph,
            modules_by_name,
            _local_bindings(node),
        )
        for stmt in node.body:  # type: ignore[attr-defined]
            scanner.visit(stmt)
    return graph


def _enclosing_class(tree: ast.Module, target: ast.AST) -> Optional[str]:
    """Name of the class directly containing ``target``, if any."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if member is target:
                    return node.name
                # Methods wrapped by decorators are still direct members.
    return None
