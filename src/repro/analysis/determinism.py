"""Static determinism & worker-safety analysis: the REP300 rule family.

The ``make chaos`` gate (PR 5) proves *at runtime* that a faulted
parallel run is bit-identical to a clean serial one -- but only for the
code paths the chaos grid happens to execute.  This module is the
static twin of that gate: a call-graph-aware pass that inspects every
function reachable from the parallel entry points (``run_fanout`` /
``run_many`` and anything handed to an executor submit path) and proves
the absence of the hazard classes that break bit-exact reproduction:

``REP300``
    nondeterministic values (wall clock, unseeded RNG, ``os.urandom``,
    ``uuid``, unsorted directory listings, ``set`` iteration order)
    tainting cache keys, run manifests, statistics feeds or task
    payloads.  Taint propagates through the same whole-batch
    :meth:`~repro.analysis.linter.LintRule.prepare` call-graph hook the
    REP200 units pass uses, so a helper that *returns* ``time.time()``
    taints its callers across files.
``REP301``
    module-level mutable state mutated inside worker-side functions.
    A forked worker inherits a snapshot of its parent's globals;
    mutating them is invisible to the parent and differs between fork
    and spawn start methods (fork-unsafety).
``REP302``
    unpicklable constructs (lambdas, closures over nested defs) passed
    to executor submit paths; ``ProcessPoolExecutor`` requires
    module-level callables.
``REP303``
    order-sensitive reductions or collections over parallel fan-out
    results that bypass the deterministic merge in
    :class:`~repro.faults.outcomes.FanoutReport` -- float addition is
    not associative, and completion order varies run to run.
``REP304``
    ``os.environ`` reads inside worker-reachable functions.  Workers
    must receive configuration through the frozen task payload / config
    digest; an env read in a worker silently couples results to state
    the manifest never records.

Like every rule here, findings are suppressable per line with
``# repro: noqa(REP30x) -- justification``; the annotated sites in the
``experiments``/``faults``/``obs`` packages document why each exception
is sound.

The pass is deliberately conservative in *resolution* (callees are
matched by simple name, so one name can reach several definitions) and
deliberately narrow in *sources and sinks* (only the constructs listed
above), which keeps it quiet on correct code while still catching every
planted hazard in the test fixtures.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.linter import LintContext, LintRule, Linter, expand_paths

DETERMINISM_RULE_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("REP300", "nondeterminism-taint",
     "no nondeterministic values (wall clock, unseeded RNG, os.urandom, "
     "uuid, unsorted directory listings, set iteration) reaching cache "
     "keys, manifests, stats feeds or task payloads"),
    ("REP301", "worker-global-mutation",
     "no module-level mutable state mutated inside worker-reachable "
     "functions (fork-unsafe)"),
    ("REP302", "unpicklable-task",
     "no lambdas or nested functions handed to executor submit paths"),
    ("REP303", "order-sensitive-reduction",
     "no order-sensitive reductions or iteration over parallel fan-out "
     "results bypassing the deterministic FanoutReport merge"),
    ("REP304", "worker-env-read",
     "no os.environ reads inside worker-reachable functions outside the "
     "frozen config digest"),
)

#: Entry points whose transitive callees run (or may run) inside pool
#: workers.  Functions referenced as the ``fn`` of a ``FanoutTask`` or
#: the first argument of ``.submit(...)`` are added per batch.
_WORKER_ENTRY_NAMES = frozenset({"run_fanout", "run_many"})

#: Packages whose *internal* wall-clock use is sanctioned (they measure
#: the reproduction itself, mirroring the REP102/REP108 exemptions), so
#: nondeterminism does not propagate out of them through the call graph.
#: Direct taint-into-sink inside them is still checked locally.
_PROPAGATION_EXEMPT_MARKERS = (
    "src/repro/obs/",
    "src/repro/faults/",
)

_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
})
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "choice", "choices", "sample", "shuffle", "betavariate", "expovariate",
    "triangular", "vonmisesvariate", "getrandbits", "randbytes",
})
_NUMPY_LEGACY_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "standard_normal", "uniform", "normal",
})
_UUID_FUNCS = frozenset({"uuid1", "uuid4"})
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})
_GLOB_MODULE_FUNCS = frozenset({"glob", "iglob"})
_OS_LISTING_FUNCS = frozenset({"listdir", "scandir"})

#: Callables whose arguments are determinism-critical: anything flowing
#: in ends up in a cache key, a manifest, a statistics feed or a task
#: payload shipped to a worker.
_SINK_NAMES = frozenset({
    "config_digest", "build_manifest", "RunManifest", "FanoutTask",
    "submit", "store", "store_safe",
})
#: ``.add`` / ``.observe`` are sinks only when the receiver looks like a
#: statistics object -- plain ``set.add`` must not fire.
_STAT_FEED_METHODS = frozenset({"add", "observe"})
_STAT_BASE_HINTS = ("stat", "counter", "hist", "accum", "meter")

_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "sort", "reverse", "reset",
})
_MUTABLE_CTOR_NAMES = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter",
})

_REDUCTION_NAMES = frozenset({"sum", "fsum", "prod"})

# Taint kinds carried through expression evaluation.
_ND = "nd"                  # value differs between identical runs
_SET = "set"                # element/ordering from set iteration
_FSLIST = "fslist"          # unsorted filesystem listing
_PARALLEL = "parallel"      # results mapping of a parallel fan-out
_PARALLEL_VIEW = "parallel-view"  # completion-ordered .values()/.items()

_Taint = Tuple[str, str]    # (kind, human description)


def determinism_rule_ids() -> List[str]:
    """The REP300-series rule IDs, in numeric order."""
    return [rule_id for rule_id, _name, _description in DETERMINISM_RULE_TABLE]


# ---------------------------------------------------------------------------
# prepare(): whole-batch call graph, worker reachability, ND propagation
# ---------------------------------------------------------------------------


@dataclass
class _FunctionRecord:
    """One function (or method, or nested def) harvested from the batch.

    Callees are split by call shape to keep name-based resolution from
    exploding: a bare-name call (``run_fanout(...)``) can only reach a
    module-level function or a visible nested def, an attribute call on
    a module alias (``faults.run_fanout(...)``) can reach anything, and
    any other attribute call (``checker.run()``) can only reach a
    *method* of that name -- never a same-named module-level function in
    an unrelated file.
    """

    path: str
    qualname: str
    simple: str
    is_method: bool = False
    name_callees: Set[str] = field(default_factory=set)
    attr_callees: Set[str] = field(default_factory=set)
    open_callees: Set[str] = field(default_factory=set)
    instantiated: Set[str] = field(default_factory=set)
    children: List[Tuple[str, str]] = field(default_factory=list)
    nd_direct: Optional[str] = None

    @property
    def callees(self) -> Set[str]:
        return self.name_callees | self.attr_callees | self.open_callees


class _ProjectModel:
    """Cross-file tables shared by every per-file check."""

    def __init__(self) -> None:
        self.records: Dict[Tuple[str, str], _FunctionRecord] = {}
        self.class_inits: Dict[str, List[Tuple[str, str]]] = {}
        self.mutable_globals: Dict[str, Set[str]] = {}
        self.all_globals: Dict[str, Set[str]] = {}
        self.submit_names: Set[str] = set()
        self.reachable: Set[Tuple[str, str]] = set()
        self.nd_names: Set[str] = set()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_name(expr: ast.expr) -> Optional[str]:
    """The simple name at the root of a Name/Attribute chain's last hop."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _has_seed(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg == "seed" for kw in call.keywords)


def _nd_call(call: ast.Call) -> Optional[_Taint]:
    """Classify a call as a nondeterminism source, if it is one."""
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        base = _base_name(func.value)
        if base == "time" and attr in _TIME_FUNCS:
            return (_ND, f"time.{attr}()")
        if attr in _DATETIME_FACTORIES and base in ("datetime", "date"):
            return (_ND, f"{base}.{attr}()")
        if base == "random" and attr in _RANDOM_MODULE_FUNCS:
            return (_ND, f"random.{attr}() (unseeded global RNG)")
        if base == "random" and attr == "Random" and not _has_seed(call):
            return (_ND, "random.Random() without a seed")
        if base is not None and base.endswith("random") \
                and attr in _NUMPY_LEGACY_RANDOM:
            return (_ND, f"np.random.{attr}() (unseeded global RNG)")
        if attr == "default_rng" and not _has_seed(call):
            return (_ND, "default_rng() without a seed")
        if base == "os" and attr == "urandom":
            return (_ND, "os.urandom()")
        if base == "uuid" and attr in _UUID_FUNCS:
            return (_ND, f"uuid.{attr}()")
        if base == "secrets":
            return (_ND, f"secrets.{attr}()")
        if base == "os" and attr in _OS_LISTING_FUNCS:
            return (_FSLIST, f"os.{attr}()")
        if base == "glob" and attr in _GLOB_MODULE_FUNCS:
            return (_FSLIST, f"glob.{attr}()")
        if attr in _FS_LISTING_METHODS:
            return (_FSLIST, f".{attr}() filesystem listing")
    return None


class _Harvester:
    """Builds one module's contribution to the :class:`_ProjectModel`."""

    def __init__(self, model: _ProjectModel, path: str) -> None:
        self.model = model
        self.path = path
        self.aliases: Dict[str, Set[str]] = {}
        self.local_submit_names: Set[str] = set()
        self.module_like: Set[str] = set()

    def harvest(self, tree: ast.Module) -> None:
        self._imports(tree)
        self._visit(tree, (), None, in_class=False)
        self._module_globals(tree)
        self._submit_roots(tree)

    def _imports(self, tree: ast.Module) -> None:
        """Names that may denote modules when used as attribute bases."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.module_like.add(alias.asname)
                    else:
                        self.module_like.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.module_like.add(alias.asname or alias.name)

    # -- call graph -----------------------------------------------------

    def _visit(self, node: ast.AST, qual: Tuple[str, ...],
               rec: Optional[_FunctionRecord], in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._handle_def(child, qual, rec, in_class)
            elif isinstance(child, ast.ClassDef):
                self._visit(child, qual + (child.name,), None, in_class=True)
            else:
                if rec is not None and isinstance(child, ast.Call):
                    self._record_call(child, rec)
                self._visit(child, qual, rec, in_class=False)

    def _handle_def(self, node: ast.AST, qual: Tuple[str, ...],
                    parent: Optional[_FunctionRecord],
                    in_class: bool) -> None:
        name = node.name  # type: ignore[attr-defined]
        qualname = ".".join(qual + (name,))
        rec = _FunctionRecord(self.path, qualname, name, is_method=in_class)
        self.model.records[(self.path, qualname)] = rec
        if parent is not None:
            parent.children.append((self.path, qualname))
        if _is_dunder(name) and qual:
            # __init__/__post_init__ reached via class instantiation.
            cls = qual[-1]
            if name in ("__init__", "__post_init__"):
                self.model.class_inits.setdefault(cls, []).append(
                    (self.path, qualname)
                )
        self._visit(node, qual + (name,), rec, in_class=False)

    def _record_call(self, call: ast.Call, rec: _FunctionRecord) -> None:
        func = call.func
        name = _callee_name(func)
        if name is not None and not _is_dunder(name):
            if isinstance(func, ast.Attribute):
                base = _base_name(func.value)
                if base is not None and base in self.module_like:
                    rec.open_callees.add(name)
                else:
                    rec.attr_callees.add(name)
            else:
                rec.name_callees.add(name)
            if name[:1].isupper():
                rec.instantiated.add(name)
        taint = _nd_call(call)
        if taint is not None and taint[0] == _ND and rec.nd_direct is None:
            rec.nd_direct = taint[1]

    # -- module-level state ---------------------------------------------

    def _module_globals(self, tree: ast.Module) -> None:
        mutable = self.model.mutable_globals.setdefault(self.path, set())
        names = self.model.all_globals.setdefault(self.path, set())

        def scan_body(body: Sequence[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.If, ast.Try)):
                    for sub in ast.iter_child_nodes(stmt):
                        if isinstance(sub, ast.stmt):
                            scan_body([sub])
                    continue
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                elif isinstance(stmt, ast.AugAssign):
                    targets, value = [stmt.target], stmt.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    names.add(target.id)
                    if value is not None and _is_mutable_value(value):
                        mutable.add(target.id)

        scan_body(tree.body)

    # -- submit roots and fn aliases ------------------------------------

    def _submit_roots(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                referenced = _referenced_names(node.value)
                if referenced:
                    self.aliases.setdefault(
                        node.targets[0].id, set()
                    ).update(referenced)
            if not isinstance(node, ast.Call):
                continue
            fn = _submitted_fn(node)
            if isinstance(fn, ast.Name):
                self.local_submit_names.add(fn.id)
        # Resolve aliases transitively within the module.
        resolved: Set[str] = set()
        frontier = set(self.local_submit_names)
        while frontier:
            name = frontier.pop()
            if name in resolved:
                continue
            resolved.add(name)
            frontier.update(self.aliases.get(name, ()))
        self.model.submit_names.update(resolved)


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        name = _callee_name(value.func)
        if name in _MUTABLE_CTOR_NAMES:
            return True
        # A module-level instance of a project class (`_TRACER = Tracer()`)
        # is process-global state just as much as a dict literal is.
        if name is not None and name[:1].isupper():
            return True
    return False


def _referenced_names(value: ast.expr) -> Set[str]:
    """Plain names an assignment forwards (``a = b``/``a = b if c else d``)."""
    if isinstance(value, ast.Name):
        return {value.id}
    if isinstance(value, ast.IfExp):
        return _referenced_names(value.body) | _referenced_names(value.orelse)
    return set()


def _submitted_fn(call: ast.Call) -> Optional[ast.expr]:
    """The callable argument of a FanoutTask(...) / .submit(...) call."""
    name = _callee_name(call.func)
    if name == "FanoutTask":
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        if len(call.args) >= 2:
            return call.args[1]
        return None
    if isinstance(call.func, ast.Attribute) and call.func.attr == "submit":
        if call.args:
            return call.args[0]
    return None


def _propagation_exempt(path: str) -> bool:
    return any(marker in path for marker in _PROPAGATION_EXEMPT_MARKERS)


def _build_model(sources: Sequence[Tuple[str, str]]) -> _ProjectModel:
    model = _ProjectModel()
    for raw_path, source in sources:
        path = Path(raw_path).as_posix()
        if "src/repro/" not in path:
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # REP100 reports it; nothing to harvest
        _Harvester(model, path).harvest(tree)

    # Name-based callee resolution honouring the call-shape split:
    # bare-name calls resolve to module-level functions, plain attribute
    # calls to methods, module-alias attribute calls to either, and
    # ``ClassName(...)`` to the class's init chain.
    fn_index: Dict[str, List[Tuple[str, str]]] = {}
    method_index: Dict[str, List[Tuple[str, str]]] = {}
    all_index: Dict[str, List[Tuple[str, str]]] = {}
    for key, rec in model.records.items():
        index = method_index if rec.is_method else fn_index
        index.setdefault(rec.simple, []).append(key)
        all_index.setdefault(rec.simple, []).append(key)

    def resolved_callees(rec: _FunctionRecord) -> List[Tuple[str, str]]:
        keys: List[Tuple[str, str]] = []
        for callee in rec.name_callees:
            keys.extend(fn_index.get(callee, ()))
        for callee in rec.attr_callees:
            keys.extend(method_index.get(callee, ()))
        for callee in rec.open_callees:
            keys.extend(all_index.get(callee, ()))
        for cls in rec.instantiated:
            keys.extend(model.class_inits.get(cls, ()))
        keys.extend(rec.children)
        return keys

    # Worker reachability: everything transitively callable from the
    # parallel entry points or a submitted task function.
    root_names = _WORKER_ENTRY_NAMES | model.submit_names
    stack = [key for key, rec in model.records.items()
             if rec.simple in root_names]
    while stack:
        key = stack.pop()
        if key in model.reachable:
            continue
        model.reachable.add(key)
        stack.extend(resolved_callees(model.records[key]))

    # ND propagation: a function is nondeterministic-returning if it
    # calls an ND source or an ND function, fixed-pointed across files.
    nd_keys = {key for key, rec in model.records.items()
               if rec.nd_direct and not _propagation_exempt(rec.path)}
    changed = True
    while changed:
        changed = False
        for key, rec in model.records.items():
            if key in nd_keys or _propagation_exempt(rec.path):
                continue
            if any(callee in nd_keys for callee in resolved_callees(rec)):
                nd_keys.add(key)
                changed = True
    model.nd_names = {model.records[key].simple for key in nd_keys}
    return model


# ---------------------------------------------------------------------------
# check(): per-file taint/safety scan
# ---------------------------------------------------------------------------


class _Scope:
    """One lexical scope's scan state (module, function or nested def)."""

    def __init__(self, scan: "_ModuleScan", qual: Tuple[str, ...],
                 reachable: bool, nested_defs: FrozenSet[str],
                 in_function: bool) -> None:
        self.scan = scan
        self.qual = qual
        self.reachable = reachable
        self.in_function = in_function
        self.nested: Set[str] = set(nested_defs)
        self.env: Dict[str, Optional[_Taint]] = {}
        self.globals_declared: Set[str] = set()

    # -- helpers --------------------------------------------------------

    @property
    def where(self) -> str:
        return ".".join(self.qual) if self.qual else "<module>"

    def rep(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.scan.ctx.report_id(rule_id, node, message)

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    # -- statements -----------------------------------------------------

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(node)
        elif isinstance(node, ast.ClassDef):
            self._class(node)
        elif isinstance(node, ast.Assign):
            tag = self.expr(node.value)
            for target in node.targets:
                self._bind(target, tag, node)
        elif isinstance(node, ast.AnnAssign):
            tag = self.expr(node.value) if node.value is not None else None
            self._bind(node.target, tag, node)
        elif isinstance(node, ast.AugAssign):
            tag = self.expr(node.value)
            self._bind(node.target, tag, node, augmented=True)
        elif isinstance(node, ast.Global):
            self.globals_declared.update(node.names)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node)
        elif isinstance(node, ast.While):
            self.expr(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, ast.If):
            self.expr(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                tag = self.expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tag, node)
            self.run(node.body)
        elif isinstance(node, ast.Try):
            self.run(node.body)
            for handler in node.handlers:
                self.run(handler.body)
            self.run(node.orelse)
            self.run(node.finalbody)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.expr(node.value)
        elif isinstance(node, ast.Expr):
            self.expr(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.expr(child)
        elif isinstance(node, (ast.Import, ast.ImportFrom, ast.Pass,
                               ast.Break, ast.Continue, ast.Nonlocal)):
            pass
        else:
            # Unmodelled statement kinds (match, ...): generic recursion
            # so no call site escapes the env-read/sink checks.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self.stmt(child)
                elif isinstance(child, ast.expr):
                    self.expr(child)

    def _function(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        qual = self.qual + (name,)
        key = (self.scan.ctx.path, ".".join(qual))
        reachable = self.reachable or key in self.scan.reachable_keys
        if self.in_function:
            self.nested.add(name)
        for decorator in node.decorator_list:  # type: ignore[attr-defined]
            self.expr(decorator)
        args = node.args  # type: ignore[attr-defined]
        for default in [*args.defaults,
                        *[d for d in args.kw_defaults if d is not None]]:
            self.expr(default)
        child = _Scope(self.scan, qual, reachable,
                       frozenset(self.nested) if self.in_function
                       else frozenset(),
                       in_function=True)
        for param in [*getattr(args, "posonlyargs", []), *args.args,
                      *args.kwonlyargs,
                      *([args.vararg] if args.vararg else []),
                      *([args.kwarg] if args.kwarg else [])]:
            child.env[param.arg] = None
        child.run(node.body)  # type: ignore[attr-defined]

    def _class(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = self.qual + (node.name, stmt.name)
                key = (self.scan.ctx.path, ".".join(qual))
                reachable = self.reachable or key in self.scan.reachable_keys
                child = _Scope(self.scan, qual, reachable, frozenset(),
                               in_function=True)
                child_args = stmt.args
                for param in [*getattr(child_args, "posonlyargs", []),
                              *child_args.args, *child_args.kwonlyargs,
                              *([child_args.vararg]
                                if child_args.vararg else []),
                              *([child_args.kwarg]
                                if child_args.kwarg else [])]:
                    child.env[param.arg] = None
                for decorator in stmt.decorator_list:
                    self.expr(decorator)
                child.run(stmt.body)
            elif isinstance(stmt, ast.ClassDef):
                self._class(stmt)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self.expr(child)

    def _for(self, node: ast.stmt) -> None:
        iter_expr = node.iter  # type: ignore[attr-defined]
        tag = self.expr(iter_expr)
        if tag is not None and tag[0] == _FSLIST:
            self.rep("REP300", iter_expr,
                     f"unsorted filesystem listing ({tag[1]}) iterated in "
                     f"'{self.where}'; wrap it in sorted(...) so artifact "
                     "order is filesystem-independent")
        elif tag is not None and tag[0] == _PARALLEL_VIEW:
            self.rep("REP303", iter_expr,
                     f"iteration over {tag[1]} in '{self.where}' depends on "
                     "task completion order; iterate the submitted keys (or "
                     "sorted(...) them) so the merge stays deterministic")
        bind_tag: Optional[_Taint] = None
        if tag is not None and tag[0] == _SET:
            bind_tag = (_SET, "element of nondeterministically ordered "
                              "set iteration")
        elif tag is not None and tag[0] == _ND:
            bind_tag = tag
        self._bind(node.target, bind_tag, node)  # type: ignore[attr-defined]
        self.run(node.body)  # type: ignore[attr-defined]
        self.run(node.orelse)  # type: ignore[attr-defined]

    # -- binding and module-state mutation ------------------------------

    def _bind(self, target: ast.expr, tag: Optional[_Taint],
              node: ast.stmt, augmented: bool = False) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.globals_declared and self.reachable:
                self.rep("REP301", node,
                         f"module-level state '{name}' rebound inside "
                         f"worker-reachable '{self.where}'; fork-unsafe -- "
                         "workers must not mutate process globals")
            if augmented:
                previous = self.env.get(name)
                if tag is None or (previous is not None
                                   and previous[0] == _ND):
                    tag = previous if previous is not None else tag
            self.env[name] = tag
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            for index, elt in enumerate(elts):
                elt_tag = tag
                if tag is not None and tag[0] == _PARALLEL and index > 0:
                    elt_tag = None  # (results, report) unpack
                self._bind(elt, elt_tag, node)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, node)
        elif isinstance(target, ast.Subscript):
            self._mutation_store(target.value, node)
            self.expr(target.slice)
        elif isinstance(target, ast.Attribute):
            self._mutation_store(target.value, node)

    def _mutation_store(self, base: ast.expr, node: ast.AST) -> None:
        if not (self.reachable and isinstance(base, ast.Name)):
            return
        name = base.id
        shadowed = name in self.env and name not in self.globals_declared
        if shadowed:
            return
        if name in self.scan.mutable_globals or name in self.globals_declared:
            self.rep("REP301", node,
                     f"module-level state '{name}' mutated inside "
                     f"worker-reachable '{self.where}'; fork-unsafe -- "
                     "workers must not mutate process globals")

    # -- expressions ----------------------------------------------------

    def expr(self, node: Optional[ast.expr]) -> Optional[_Taint]:
        if node is None:
            return None
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            self.expr(node.value)
            return None
        if isinstance(node, ast.Subscript):
            self._env_subscript_read(node)
            base = self.expr(node.value)
            self.expr(node.slice)
            if base is not None and base[0] == _ND:
                return base
            return None
        if isinstance(node, ast.BinOp):
            left = self.expr(node.left)
            right = self.expr(node.right)
            for tag in (left, right):
                if tag is not None and tag[0] == _ND:
                    return tag
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.expr(value)
            return None
        if isinstance(node, ast.Compare):
            self.expr(node.left)
            for comparator in node.comparators:
                self.expr(comparator)
            return None
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand)
        if isinstance(node, ast.IfExp):
            self.expr(node.test)
            body = self.expr(node.body)
            orelse = self.expr(node.orelse)
            return body or orelse
        if isinstance(node, (ast.List, ast.Tuple)):
            tags = [self.expr(elt) for elt in node.elts]
            for tag in tags:
                if tag is not None and tag[0] == _ND:
                    return tag
            return None
        if isinstance(node, ast.Dict):
            tags = [self.expr(value)
                    for value in [*node.keys, *node.values]
                    if value is not None]
            for tag in tags:
                if tag is not None and tag[0] == _ND:
                    return tag
            return None
        if isinstance(node, ast.Set):
            for elt in node.elts:
                self.expr(elt)
            return (_SET, "set literal (iteration order nondeterministic)")
        if isinstance(node, (ast.ListComp, ast.GeneratorExp,
                             ast.SetComp, ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                tag = self.expr(value)
                if tag is not None and tag[0] == _ND:
                    return tag
            return None
        if isinstance(node, ast.FormattedValue):
            return self.expr(node.value)
        if isinstance(node, ast.NamedExpr):
            tag = self.expr(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = tag
            return tag
        if isinstance(node, (ast.Starred, ast.Await)):
            return self.expr(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.expr(node.value)
            return None
        if isinstance(node, ast.Slice):
            self.expr(node.lower)
            self.expr(node.upper)
            self.expr(node.step)
            return None
        if isinstance(node, ast.Lambda):
            return None
        return None

    def _comprehension(self, node: ast.expr) -> Optional[_Taint]:
        iter_tag: Optional[_Taint] = None
        for gen in node.generators:  # type: ignore[attr-defined]
            tag = self.expr(gen.iter)
            if tag is not None and tag[0] == _FSLIST:
                self.rep("REP300", gen.iter,
                         f"unsorted filesystem listing ({tag[1]}) iterated "
                         f"in '{self.where}'; wrap it in sorted(...) so "
                         "artifact order is filesystem-independent")
            elif tag is not None and tag[0] == _PARALLEL_VIEW:
                self.rep("REP303", gen.iter,
                         f"iteration over {tag[1]} in '{self.where}' depends "
                         "on task completion order; iterate the submitted "
                         "keys (or sorted(...) them) so the merge stays "
                         "deterministic")
            if tag is not None and tag[0] == _SET:
                self._bind(gen.target, (_SET, "element of nondeterministically "
                                             "ordered set iteration"), node)
                iter_tag = iter_tag or tag
            else:
                self._bind(gen.target,
                           tag if tag is not None and tag[0] == _ND else None,
                           node)
                if tag is not None and tag[0] == _ND:
                    iter_tag = iter_tag or tag
            for cond in gen.ifs:
                self.expr(cond)
        if isinstance(node, ast.DictComp):
            key_tag = self.expr(node.key)
            value_tag = self.expr(node.value)
            elt_tag = key_tag or value_tag
        else:
            elt_tag = self.expr(node.elt)  # type: ignore[attr-defined]
        if elt_tag is not None and elt_tag[0] == _ND:
            return elt_tag
        if isinstance(node, (ast.SetComp,)):
            return (_SET, "set comprehension (iteration order "
                          "nondeterministic)")
        if iter_tag is not None and iter_tag[0] == _SET \
                and isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return (_SET, "sequence ordered by set iteration")
        if iter_tag is not None and iter_tag[0] == _ND:
            return iter_tag
        return None

    def _env_subscript_read(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        base = node.value
        if (isinstance(base, ast.Attribute) and base.attr == "environ") \
                or (isinstance(base, ast.Name) and base.id == "environ"):
            self._report_env_read(node)

    def _report_env_read(self, node: ast.AST) -> None:
        if self.reachable:
            self.rep("REP304", node,
                     f"os.environ read inside worker-reachable "
                     f"'{self.where}'; workers must receive configuration "
                     "through the frozen task payload / config digest, not "
                     "ambient environment state")

    # -- calls ----------------------------------------------------------

    def _call(self, node: ast.Call) -> Optional[_Taint]:
        func = node.func
        fname = _callee_name(func)
        base_tag: Optional[_Taint] = None
        if isinstance(func, ast.Attribute):
            base_tag = self.expr(func.value)

        arg_tags: List[Tuple[ast.expr, Optional[_Taint]]] = []
        for arg in node.args:
            arg_tags.append((arg, self.expr(arg)))
        for kw in node.keywords:
            arg_tags.append((kw.value, self.expr(kw.value)))

        # os.environ.get / os.getenv inside a worker-reachable function.
        if isinstance(func, ast.Attribute):
            if func.attr == "get" and (
                (isinstance(func.value, ast.Attribute)
                 and func.value.attr == "environ")
                or (isinstance(func.value, ast.Name)
                    and func.value.id == "environ")
            ):
                self._report_env_read(node)
            elif func.attr == "getenv" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "os":
                self._report_env_read(node)

        # Unpicklable payloads on submit paths.
        submitted = _submitted_fn(node)
        if submitted is not None:
            if isinstance(submitted, ast.Lambda):
                self.rep("REP302", submitted,
                         f"lambda passed to '{fname}' in '{self.where}'; "
                         "executor tasks must be picklable module-level "
                         "functions")
            elif isinstance(submitted, ast.Name) \
                    and submitted.id in self.nested:
                self.rep("REP302", submitted,
                         f"nested function '{submitted.id}' passed to "
                         f"'{fname}' in '{self.where}'; closures do not "
                         "pickle -- hoist it to module level")

        # Order-sensitive float reductions over parallel results.
        if fname in _REDUCTION_NAMES and arg_tags:
            first_arg, first_tag = arg_tags[0]
            if first_tag is not None \
                    and first_tag[0] in (_PARALLEL, _PARALLEL_VIEW):
                self.rep("REP303", node,
                         f"order-sensitive reduction '{fname}' over "
                         f"{first_tag[1]} in '{self.where}'; float addition "
                         "is not associative across completion orders -- "
                         "reduce over sorted keys or the FanoutReport merge")

        # Determinism-critical sinks.
        sink = self._sink_label(func, fname)
        if sink is not None:
            for arg, tag in arg_tags:
                if tag is not None and tag[0] in (_ND, _SET, _FSLIST):
                    self.rep("REP300", arg,
                             f"nondeterministic value ({tag[1]}) flows into "
                             f"{sink} in '{self.where}'; cache keys, "
                             "manifests, stats and task payloads must be "
                             "pure functions of the frozen config")

        # Fork-unsafe mutation of module-level containers/objects.
        if isinstance(func, ast.Attribute) \
                and func.attr in _MUTATING_METHODS \
                and isinstance(func.value, ast.Name):
            name = func.value.id
            shadowed = name in self.env and name not in self.globals_declared
            if self.reachable and not shadowed \
                    and name in self.scan.mutable_globals:
                self.rep("REP301", node,
                         f"module-level state '{name}' mutated "
                         f"(.{func.attr}()) inside worker-reachable "
                         f"'{self.where}'; fork-unsafe -- workers must not "
                         "mutate process globals")

        # Result classification.
        if fname == "sorted":
            return None
        if fname in ("list", "tuple"):
            return arg_tags[0][1] if arg_tags else None
        if fname in ("set", "frozenset"):
            return (_SET, f"{fname}() (iteration order nondeterministic)")
        if fname in ("len", "min", "max", "any", "all", "dict"):
            return None
        taint = _nd_call(node)
        if taint is not None:
            return taint
        if fname in ("run_many", "run_fanout"):
            return (_PARALLEL, f"{fname}() results")
        if fname in ("values", "items") and base_tag is not None \
                and base_tag[0] == _PARALLEL:
            return (_PARALLEL_VIEW,
                    f"the completion-ordered .{fname}() view of "
                    f"{base_tag[1]}")
        if fname is not None and fname in self.scan.nd_names:
            return (_ND, f"{fname}() (nondeterministic through its call "
                         "graph)")
        return None

    def _sink_label(self, func: ast.expr, fname: Optional[str]) -> Optional[str]:
        if fname is None:
            return None
        if fname in _SINK_NAMES:
            return f"'{fname}(...)'"
        if fname == "key" and isinstance(func, ast.Attribute):
            return "the cache key ('.key(...)')"
        if fname in _STAT_FEED_METHODS and isinstance(func, ast.Attribute):
            base = func.value
            hint: Optional[str] = None
            if isinstance(base, ast.Call):
                hint = _callee_name(base.func)
            else:
                hint = _base_name(base)
            if hint is not None and any(
                    marker in hint.lower() for marker in _STAT_BASE_HINTS):
                return f"the statistics feed ('{hint}.{fname}(...)')"
        return None


class _ModuleScan:
    """Per-file scan bound to one :class:`LintContext`."""

    def __init__(self, rule: "DeterminismRule", ctx: LintContext) -> None:
        self.ctx = ctx
        model = rule._model
        self.reachable_keys = model.reachable if model else set()
        self.nd_names = model.nd_names if model else set()
        self.mutable_globals = (
            model.mutable_globals.get(ctx.path, set()) if model else set()
        )
        self.all_globals = (
            model.all_globals.get(ctx.path, set()) if model else set()
        )

    def run(self, tree: ast.Module) -> None:
        scope = _Scope(self, (), False, frozenset(), in_function=False)
        scope.run(tree.body)


class DeterminismRule(LintRule):
    """The REP300-series engine: one prepare, one walk, five rule IDs."""

    rule_id = "REP300"
    name = "determinism-and-worker-safety"
    description = ("call-graph-aware determinism and fork-safety analysis "
                   "of everything reachable from run_fanout/run_many "
                   "(REP300-REP304)")
    node_types = (ast.Module,)

    def __init__(self) -> None:
        self._model: Optional[_ProjectModel] = None

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_sim_source

    def prepare(self, sources: Sequence[Tuple[str, str]]) -> None:
        self._model = _build_model(sources)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Module)
        _ModuleScan(self, ctx).run(node)


# ---------------------------------------------------------------------------
# chaos-gate attestation
# ---------------------------------------------------------------------------


def static_determinism_attestation(
    paths: Optional[Iterable[Path]] = None,
) -> Dict[str, Any]:
    """Run the REP300-series pass and summarise the result for a manifest.

    The ``make chaos`` gate embeds this next to its runtime bit-identity
    evidence in ``CHAOS.manifest.json``, so one artifact carries both the
    dynamic proof (this grid, this run) and the static proof (every
    worker-reachable code path, including ones the grid never executed).

    The pass only analyses files under a ``src/repro/`` path, so a tree
    anywhere else (an installed ``site-packages/repro/``, say) yields no
    analysed files; that is reported as not clean rather than as a proof.
    """
    if paths is None:
        import repro

        paths = [Path(repro.__file__).resolve().parent]
    targets = [Path(p) for p in paths]
    rule = DeterminismRule()
    sources = [(str(path), path.read_text(encoding="utf-8"))
               for path in expand_paths(targets)]
    analysed = sum(1 for path, source in sources
                   if rule.applies_to(LintContext(path, source)))
    findings = Linter([rule]).lint_sources(sources)
    return {
        "schema": "repro-static-determinism/1",
        "rules": determinism_rule_ids(),
        "paths": [target.as_posix() for target in targets],
        "files_analysed": analysed,
        "findings": [f.as_dict() for f in findings],
        "clean": analysed > 0 and not findings,
    }
