"""The repo-specific lint rules.

Rule IDs are stable and gate-able:

* ``REP100`` — file does not parse (emitted by the engine itself).
* ``REP101`` — direct mutation of statistics fields outside ``sim/stats.py``.
* ``REP102`` — wall-clock time source inside the simulator package.
* ``REP103`` — unseeded random number generation inside the simulator.
* ``REP104`` — bare ``except:``.
* ``REP105`` — exception handler that silently swallows the exception.
* ``REP106`` — float equality comparison on cycle/energy quantities.
* ``REP107`` — public function in ``core``/``memory``/``texture`` missing
  type annotations.
* ``REP108`` — ``time.monotonic()`` call site outside ``repro.obs``;
  host-side timing goes through the tracing spans.
* ``REP109`` — bare ``map()``/``submit()`` on a process/thread pool
  outside ``src/repro/experiments/runner.py``; batch fan-out goes
  through ``ExperimentRunner.run_many``.

Every rule is syntactic and per file: one :class:`LintRule` per ID, each
seeing one node at a time.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.linter import SYNTAX_ERROR_RULE, LintContext, LintRule

# ---------------------------------------------------------------------------
# REP101 — statistics must be mutated through their own methods.
# ---------------------------------------------------------------------------

_STAT_FIELDS = frozenset({"value", "count", "total", "minimum", "maximum"})
_STATS_MODULE = "src/repro/sim/stats.py"


def _attribute_base_name(node: ast.expr) -> Optional[str]:
    """The root identifier of an attribute chain (``a`` in ``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class StatMutationRule(LintRule):
    """Counters/accumulators change via ``add()``/``observe()``, never by
    assigning their fields from the outside — the monotonicity guarantee
    lives in those methods."""

    rule_id = "REP101"
    name = "stat-mutation"
    description = (
        "no direct mutation of Counter/Accumulator fields outside sim/stats.py"
    )
    node_types = (ast.Assign, ast.AugAssign, ast.AnnAssign)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.path.endswith(_STATS_MODULE)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Assign):
            targets: List[ast.expr] = []
            for target in node.targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                else:
                    targets.append(target)
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in _STAT_FIELDS:
                continue
            base = _attribute_base_name(target.value)
            if base in ("self", "cls"):
                continue  # a class maintaining its own internal fields
            ctx.report(
                self,
                target,
                f"direct mutation of statistic field '.{target.attr}'; "
                "use add()/observe()/reset() instead",
            )


# ---------------------------------------------------------------------------
# REP102 — no wall-clock time inside the simulator.
# ---------------------------------------------------------------------------

_TIME_MODULE_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "clock",
    }
)
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})
_DATETIME_BASES = frozenset({"datetime", "date"})


class WallClockRule(LintRule):
    """Simulated time comes from the event clock; wall-clock reads make
    results irreproducible run to run."""

    rule_id = "REP102"
    name = "wall-clock"
    description = "no time.time()/datetime.now() etc. inside src/repro/"
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        # repro.obs is the tracing layer: it exists to measure host
        # wall-clock time (never simulated time), so the rule would flag
        # every line it exists to write.
        if ctx.in_subpackages(("obs",)):
            return False
        return ctx.is_sim_source

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        func = node.func  # type: ignore[attr-defined]
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id == "time"
            and func.attr in _TIME_MODULE_FUNCS
        ):
            ctx.report(self, node, f"wall-clock call time.{func.attr}()")
            return
        if func.attr in _DATETIME_FACTORIES:
            base_name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if base_name in _DATETIME_BASES:
                ctx.report(
                    self, node, f"wall-clock call {base_name}.{func.attr}()"
                )


# ---------------------------------------------------------------------------
# REP103 — all randomness must be seeded.
# ---------------------------------------------------------------------------

_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "normalvariate",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "betavariate",
        "expovariate",
        "triangular",
        "getrandbits",
        "randbytes",
    }
)
_NUMPY_LEGACY_FUNCS = frozenset(
    {
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "poisson",
        "exponential",
        "seed",
    }
)


class UnseededRandomRule(LintRule):
    """The simulator must be bit-for-bit deterministic: every RNG is a
    ``default_rng(seed)``/``Random(seed)`` instance, never a global."""

    rule_id = "REP103"
    name = "unseeded-rng"
    description = "no global/unseeded random or numpy.random inside src/repro/"
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_sim_source

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        func = node.func  # type: ignore[attr-defined]
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # random.<func>() on the module-global RNG.
        if isinstance(base, ast.Name) and base.id == "random":
            if func.attr in _GLOBAL_RANDOM_FUNCS:
                ctx.report(
                    self, node, f"global random.{func.attr}() is unseeded state"
                )
            elif func.attr == "Random" and not node.args:  # type: ignore[attr-defined]
                ctx.report(self, node, "random.Random() created without a seed")
            return
        # default_rng() with no seed argument.
        if func.attr == "default_rng":
            call: ast.Call = node  # type: ignore[assignment]
            if not call.args and not any(k.arg == "seed" for k in call.keywords):
                ctx.report(self, node, "default_rng() created without a seed")
            return
        # np.random.<legacy>() on numpy's module-global RNG.
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
            and func.attr in _NUMPY_LEGACY_FUNCS
        ):
            ctx.report(
                self,
                node,
                f"legacy global numpy RNG np.random.{func.attr}(); "
                "use np.random.default_rng(seed)",
            )


# ---------------------------------------------------------------------------
# REP104 / REP105 — exception hygiene in and around the event loop.
# ---------------------------------------------------------------------------


class BareExceptRule(LintRule):
    """``except:`` catches SystemExit/KeyboardInterrupt and hides the
    conservation violations the invariant checker raises."""

    rule_id = "REP104"
    name = "bare-except"
    description = "no bare except: clauses"
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if node.type is None:  # type: ignore[attr-defined]
            ctx.report(self, node, "bare except: name the exception type")


def _is_silent_statement(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    return False


class SwallowedExceptionRule(LintRule):
    """A handler whose whole body is ``pass``/``...`` erases the error;
    at minimum it must record or re-raise."""

    rule_id = "REP105"
    name = "swallowed-exception"
    description = "no exception handlers that silently pass"
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        body = node.body  # type: ignore[attr-defined]
        if body and all(_is_silent_statement(stmt) for stmt in body):
            ctx.report(
                self, node, "exception swallowed silently; handle, log or re-raise"
            )


# ---------------------------------------------------------------------------
# REP106 — cycle/energy quantities never compare with == / !=.
# ---------------------------------------------------------------------------

_QUANTITY_KEYWORDS = (
    "cycle",
    "latency",
    "energy",
    "joule",
    "watt",
    "makespan",
    "elapsed",
    "_pj",
    "pj_",
)


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The identifier a comparator reads from, if any."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class FloatEqualityRule(LintRule):
    """Cycle counts and energies are accumulated floats; exact equality
    on them is a rounding bug waiting to happen."""

    rule_id = "REP106"
    name = "float-equality"
    description = (
        "no ==/!= comparisons on cycle/energy quantities; use math.isclose"
    )
    node_types = (ast.Compare,)

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_sim_source

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        compare: ast.Compare = node  # type: ignore[assignment]
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in compare.ops):
            return
        for comparator in [compare.left, *compare.comparators]:
            name = _terminal_name(comparator)
            if name is None:
                continue
            lowered = name.lower()
            if any(keyword in lowered for keyword in _QUANTITY_KEYWORDS):
                ctx.report(
                    self,
                    node,
                    f"float equality on quantity '{name}'; "
                    "compare with a tolerance (math.isclose)",
                )
                return


# ---------------------------------------------------------------------------
# REP107 — public API of the model packages is fully annotated.
# ---------------------------------------------------------------------------

_ANNOTATED_SUBPACKAGES = ("core", "memory", "texture")


class PublicAnnotationRule(LintRule):
    """The model packages are the reproduction's public API; annotations
    there are documentation the type checker can enforce."""

    rule_id = "REP107"
    name = "missing-annotations"
    description = (
        "public functions in core/, memory/ and texture/ carry type annotations"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_subpackages(_ANNOTATED_SUBPACKAGES)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        function: ast.FunctionDef = node  # type: ignore[assignment]
        if function.name.startswith("_"):
            return
        if function.returns is None:
            ctx.report(
                self,
                node,
                f"public function '{function.name}' missing return annotation",
            )
        args = function.args
        positional = [*args.posonlyargs, *args.args]
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                ctx.report(
                    self,
                    arg,
                    f"parameter '{arg.arg}' of public function "
                    f"'{function.name}' missing annotation",
                )
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                ctx.report(
                    self,
                    arg,
                    f"parameter '{arg.arg}' of public function "
                    f"'{function.name}' missing annotation",
                )


# ---------------------------------------------------------------------------
# REP108 — host-side timing goes through repro.obs, not raw monotonic reads.
# ---------------------------------------------------------------------------

_MONOTONIC_FUNCS = frozenset({"monotonic", "monotonic_ns"})


class MonotonicOutsideObsRule(LintRule):
    """Raw ``time.monotonic()`` reads scattered through the codebase are
    untraceable one-off timers; host phases are timed with
    ``repro.obs.span()``/``timed_stage`` so they land in run manifests
    and Chrome traces.  ``repro.obs`` itself is the only legitimate
    call site."""

    rule_id = "REP108"
    name = "monotonic-outside-obs"
    description = (
        "time.monotonic() outside repro.obs; "
        "time host phases with repro.obs spans"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.in_subpackages(("obs",))

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        func = node.func  # type: ignore[attr-defined]
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id == "time"
            and func.attr in _MONOTONIC_FUNCS
        ):
            ctx.report(
                self,
                node,
                f"raw time.{func.attr}() call; record host timing with "
                "repro.obs.span()/timed_stage so it reaches the manifest",
            )


# ---------------------------------------------------------------------------
# REP109 — batch fan-out goes through ExperimentRunner.run_many.
# ---------------------------------------------------------------------------

_POOL_METHODS = frozenset({"map", "submit"})
_POOL_NAME_HINTS = ("pool", "executor")
_FANOUT_MODULE = "src/repro/experiments/runner.py"


def _looks_like_pool(node: ast.expr) -> bool:
    """Whether an expression plausibly names a process/thread pool."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return False
        return name.endswith(("PoolExecutor", "Pool"))
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    lowered = name.lower()
    return any(hint in lowered for hint in _POOL_NAME_HINTS)


class BarePoolMapRule(LintRule):
    """:meth:`ExperimentRunner.run_many` is the one fan-out site, so one
    place picks the pool's start method (``spawn``: workers see only
    their arguments and the environment) and how a failed worker fails
    the batch; ``src/repro/experiments/runner.py`` is the only module
    allowed to talk to a raw executor."""

    rule_id = "REP109"
    name = "bare-pool-map"
    description = (
        "map()/submit() on a process/thread pool outside "
        "experiments/runner.py; fan out through ExperimentRunner.run_many"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.path.endswith(_FANOUT_MODULE)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        func = node.func  # type: ignore[attr-defined]
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _POOL_METHODS:
            return
        if _looks_like_pool(func.value):
            ctx.report(
                self,
                node,
                f"bare {func.attr}() on a process/thread pool; fan batch "
                "work out through ExperimentRunner.run_many",
            )


DEFAULT_RULES: Tuple[LintRule, ...] = (
    StatMutationRule(),
    WallClockRule(),
    UnseededRandomRule(),
    BareExceptRule(),
    SwallowedExceptionRule(),
    FloatEqualityRule(),
    PublicAnnotationRule(),
    MonotonicOutsideObsRule(),
    BarePoolMapRule(),
)


def rule_ids() -> List[str]:
    """The stable IDs of all default rules (excluding REP100)."""
    return [rule.rule_id for rule in DEFAULT_RULES]


def describe_rules() -> str:
    """A one-line-per-rule listing for ``python -m repro.analysis rules``.

    Starts with REP100, which the engine itself emits on syntax errors.
    """
    catalog = [(SYNTAX_ERROR_RULE, "syntax-error", "file does not parse")]
    catalog.extend(
        (rule.rule_id, rule.name, rule.description) for rule in DEFAULT_RULES
    )
    return "\n".join(
        f"{rule_id} {name:19s} {description}"
        for rule_id, name, description in catalog
    )
