"""Profile-guided vectorization & numeric-parity analysis: REP400 family.

The batched filtering kernels gained 13-34x from numpy batching while
the trace phase got only 2.5-2.8x: the remaining scalar hot path (the
rasterizer fragment loop, per-fragment ``math.acos``, event-at-a-time
scheduling) is now the bottleneck the ROADMAP names.  This engine
finds those sites *systematically* instead of by hand, and -- uniquely
among the REP families -- can rank its
findings by measured wall-clock share when handed a
``repro-run-manifest/1`` span tree (``--profile MANIFEST``).

``REP400``
    per-element Python ``for``/``while`` loops over ndarray or
    fragment sequences inside *hot* functions -- anything reachable
    from ``simulate_frame``, the rasterizer entry points or a
    ``BatchSampler`` method.  Reachability reuses the REP300
    call-graph ``prepare()`` machinery
    (:func:`~repro.analysis.determinism.harvest_model` /
    :func:`~repro.analysis.determinism.reachable_from`).
``REP401``
    scalar ``math.*`` calls inside such loops where a numpy
    equivalent exists.  The message distinguishes *exact* equivalents
    (``np.floor``/``np.rint``/``np.ldexp``/``np.sqrt``... -- the
    ``texture/batch.py`` precedent, bit-identical to libm) from
    *last-ulp* transcendentals (``np.arccos``/``np.exp``/... -- SIMD
    kernels that may differ in the last ulp, so vectorizing them
    needs a parity check first).
``REP402``
    float64 dtype creep: untyped ``np.array``/``np.zeros``
    allocations in functions that otherwise work in float32, and
    Python-float in-place broadcasts into float32 arrays (both
    silently promote and double memory traffic -- the PIM bandwidth
    model cares).
``REP403``
    allocation inside a hot loop: ``np.*`` constructors per
    iteration, or list-appends later converted with
    ``np.array``/``np.stack`` (build the array once instead).
``REP404``
    bit-identity hazards that would break the SoA scalar-oracle
    parity contract: reassociated reductions (``np.sum`` replacing
    ordered accumulation), in-place ops on aliased views, and
    scatter stores through integer index arrays (duplicate indices
    make ``a[idx] += v`` drop updates).

Findings are suppressable per line with
``# repro: noqa(REP40x) -- justification``; the annotated sites in
``render/raster.py``, ``texture/batch.py`` and ``gpu/pipeline.py``
document why each surviving scalar loop is sound (scalar oracles,
event-ordered semantics, parity-forbidden transcendentals).

The pass is conservative on purpose: loops only fire when the
iterable carries *array evidence* (an ``np.*`` result, an
``np.ndarray``-annotated parameter, or a name from the fragment/event
vocabulary), so ordinary Python iteration in cold code stays quiet.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.determinism import (
    _FunctionRecord,
    _ProjectModel,
    harvest_model,
    reachable_from,
)
from repro.analysis.linter import LintContext, LintRule

VECTORIZE_RULE_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("REP400", "scalar-loop-on-hot-path",
     "no per-element Python for/while loops over ndarray or fragment "
     "sequences in functions reachable from simulate_frame / the "
     "rasterizer / BatchSampler entry points"),
    ("REP401", "scalar-math-in-hot-loop",
     "no scalar math.* calls inside hot-path element loops where a "
     "numpy equivalent exists (np.ldexp/np.rint/np.floor precedent)"),
    ("REP402", "float64-dtype-creep",
     "no untyped np.array/np.zeros allocations or Python-float "
     "broadcasts promoting float32 hot-path arrays to float64"),
    ("REP403", "allocation-in-hot-loop",
     "no np.* constructor calls or list-append-then-convert patterns "
     "inside hot-path loops"),
    ("REP404", "bit-identity-hazard",
     "no reassociated reductions, aliased in-place view updates or "
     "integer-scatter stores that can break the SoA scalar-oracle "
     "parity contract"),
)

#: Hot roots: the frame entry point, the trace-only frontend, and the
#: rasterizer scene walk, by simple name ...
_HOT_ENTRY_FUNCTIONS = frozenset({
    "simulate_frame", "simulate_sequence", "rasterize_scene", "trace_only",
})
#: ... plus every method of the batched-sampler / rasterizer classes,
#: whose whole public surface is per-frame hot.
_HOT_ENTRY_CLASSES = frozenset({"BatchSampler", "Rasterizer"})

#: Iterable names that denote per-element fragment/request streams even
#: without dataflow evidence (the AoS side of the SoA split).
_FRAGMENT_HINTS = frozenset({
    "fragments", "fragment_list", "requests", "texels", "samples",
})
#: ``while`` tests over these names are event-at-a-time scheduling
#: loops -- the `repro.sim`/`repro.memory` shape the ROADMAP names.
_QUEUE_HINTS = frozenset({
    "heap", "queue", "events", "pending", "backlog", "worklist",
})

#: math.* functions with an exact numpy twin: integer-rounding and
#: scaling operations IEEE-754 defines exactly, plus correctly-rounded
#: sqrt.  Vectorizing these is bit-identity-safe (texture/batch.py
#: uses np.ldexp/np.rint/np.floor for exactly this reason).
_MATH_EXACT = frozenset({
    "floor", "ceil", "trunc", "sqrt", "fabs", "copysign", "ldexp",
    "frexp", "fmod", "remainder",
})
#: math.* transcendentals whose numpy twin is a SIMD kernel that may
#: differ from libm in the last ulp -- vectorizable only behind a
#: measured parity check.  Measured on one toolchain, ~9% of acos
#: inputs, ~0.6% of hypot and ~0.03% of log2 differ from libm by one
#: ulp, while numpy itself is batch-invariant (tests/texture/
#: test_npmath.py) -- which is why repro.texture.npmath canonicalises
#: on the ufunc for both the scalar oracle and the batch.
_MATH_LAST_ULP = frozenset({
    "acos", "asin", "atan", "atan2", "cos", "sin", "tan", "exp", "expm1",
    "log", "log2", "log10", "log1p", "pow", "hypot", "cosh", "sinh",
    "tanh", "erf", "erfc",
})

#: np.* constructors that materialise a fresh buffer every call.
_NP_LOOP_ALLOCATORS = frozenset({
    "array", "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
    "empty_like", "full_like", "concatenate", "stack", "hstack", "vstack",
    "column_stack", "append", "tile", "repeat", "copy",
})
#: np.* constructors whose missing dtype= silently means float64.
_NP_DTYPE_DEFAULTING = frozenset({
    "array", "zeros", "ones", "empty", "full", "arange", "linspace",
})
#: np.* conversion entry points for the list-append-then-convert shape.
_NP_LIST_CONVERTERS = frozenset({"array", "asarray", "stack", "concatenate"})

#: np.* reductions that reassociate float addition/multiplication.
_NP_REASSOC_REDUCTIONS = frozenset({
    "sum", "prod", "dot", "matmul", "inner", "vdot", "einsum", "nansum",
    "cumsum", "cumprod", "trace",
})
_REASSOC_METHODS = frozenset({"sum", "prod", "dot", "cumsum", "cumprod"})

#: np.* calls whose result is an ndarray (for dataflow evidence).
_NP_ARRAY_RETURNING = _NP_LOOP_ALLOCATORS | _NP_DTYPE_DEFAULTING | frozenset({
    "asarray", "ascontiguousarray", "where", "nonzero", "unique", "sort",
    "argsort", "clip", "abs", "minimum", "maximum", "floor", "ceil",
    "rint", "sqrt", "exp", "log", "log2", "sin", "cos", "arccos",
    "arcsin", "arctan2", "power", "mod", "ldexp", "diff", "cumsum",
    "meshgrid", "broadcast_to", "take", "choose", "searchsorted",
})

# Evidence kinds carried through expression evaluation.
_ARRAY = "array"          # an ndarray (dtype unknown)
_F32 = "float32-array"    # an ndarray known to be float32
_BOOL = "bool-array"      # a boolean mask (comparisons); reductions OK
_VIEW = "view"            # an aliased view of another array
_LIST = "list"            # a Python list literal (append-convert shape)

_ARRAYISH = (_ARRAY, _F32, _BOOL, _VIEW)


def vectorize_rule_ids() -> List[str]:
    """The REP400-series rule IDs, in numeric order."""
    return [rule_id for rule_id, _name, _description in VECTORIZE_RULE_TABLE]


# ---------------------------------------------------------------------------
# prepare(): hot-path reachability over the shared call graph
# ---------------------------------------------------------------------------


def _hot_keys(model: _ProjectModel) -> Set[Tuple[str, str]]:
    return reachable_from(model, _HOT_ENTRY_FUNCTIONS, _HOT_ENTRY_CLASSES)


# ---------------------------------------------------------------------------
# small AST helpers
# ---------------------------------------------------------------------------


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """``fragments`` from ``fragments`` or ``self.trace.fragments``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _np_func(call: ast.Call) -> Optional[str]:
    """``attr`` when the call is ``np.attr(...)`` / ``numpy.attr(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in ("np", "numpy"):
        return func.attr
    return None


def _math_func(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "math":
        return func.attr
    return None


def _dtype_mentions_float32(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "float32":
            return True
        if isinstance(node, ast.Name) and node.id == "float32":
            return True
        if isinstance(node, ast.Constant) and node.value == "float32":
            return True
    return False


def _call_dtype(call: ast.Call) -> Optional[str]:
    """'float32' / 'other' / None(absent) for a call's dtype= keyword."""
    for kw in call.keywords:
        if kw.arg == "dtype":
            return "float32" if _dtype_mentions_float32(kw.value) else "other"
    return None


def _annotation_is_ndarray(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Attribute) and node.attr == "ndarray":
            return True
        if isinstance(node, ast.Name) and node.id == "ndarray":
            return True
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and "ndarray" in node.value:
            return True
    return False


def _has_float_constant(expr: ast.expr) -> bool:
    return any(isinstance(node, ast.Constant) and isinstance(node.value, float)
               for node in ast.walk(expr))


# ---------------------------------------------------------------------------
# per-function scan
# ---------------------------------------------------------------------------


class _FunctionScan:
    """Evidence-tracking walk of one hot function's body."""

    def __init__(self, ctx: LintContext, qualname: str) -> None:
        self.ctx = ctx
        self.where = qualname
        self.env: Dict[str, str] = {}
        self.loop_depth = 0       # element loops (REP401/REP403 context)
        self.plain_loop_depth = 0  # any loop (append-convert tracking)
        self.comp_depth = 0
        self.appended_lists: Set[str] = set()
        self.uses_float32 = False

    # -- entry ----------------------------------------------------------

    def scan(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        for param in [*getattr(args, "posonlyargs", []), *args.args,
                      *args.kwonlyargs]:
            if _annotation_is_ndarray(param.annotation):
                self.env[param.arg] = _ARRAY
        body = node.body  # type: ignore[attr-defined]
        self.uses_float32 = any(_dtype_mentions_float32(stmt)
                                for stmt in body)
        self.run(body)

    def rep(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.ctx.report_id(rule_id, node, message)

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    # -- statements -----------------------------------------------------

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are separate records, scanned separately
        if isinstance(node, ast.Assign):
            self._assign(node.targets, node.value, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign([node.target], node.value, node)
            elif isinstance(node.target, ast.Name) \
                    and _annotation_is_ndarray(node.annotation):
                self.env[node.target.id] = _ARRAY
        elif isinstance(node, ast.AugAssign):
            self._aug_assign(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node)
        elif isinstance(node, ast.While):
            self._while(node)
        elif isinstance(node, ast.If):
            self.expr(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.expr(item.context_expr)
            self.run(node.body)
        elif isinstance(node, ast.Try):
            self.run(node.body)
            for handler in node.handlers:
                self.run(handler.body)
            self.run(node.orelse)
            self.run(node.finalbody)
        elif isinstance(node, ast.Return):
            self.expr(node.value)
        elif isinstance(node, ast.Expr):
            self.expr(node.value)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self.stmt(child)
                elif isinstance(child, ast.expr):
                    self.expr(child)

    # -- assignment & evidence binding ----------------------------------

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr,
                node: ast.stmt) -> None:
        # `a, b = x[m], y[m]`: evidence flows element-wise, before the
        # names rebind (the masked-reassignment idiom in the batched
        # emission paths).
        paired = None
        if len(targets) == 1 and isinstance(targets[0], (ast.Tuple, ast.List)) \
                and isinstance(value, (ast.Tuple, ast.List)) \
                and len(targets[0].elts) == len(value.elts):
            paired = [self.expr(elt) for elt in value.elts]
        tag = self.expr(value) if paired is None else None
        for target in targets:
            if isinstance(target, ast.Name):
                if tag is None:
                    self.env.pop(target.id, None)
                else:
                    self.env[target.id] = tag
            elif isinstance(target, (ast.Tuple, ast.List)):
                if paired is not None:
                    tags = paired
                else:
                    # `rows, cols = np.nonzero(mask)`: each name an array.
                    elt_tag = tag if tag in _ARRAYISH else None
                    tags = [elt_tag] * len(target.elts)
                for elt, elt_tag in zip(target.elts, tags):
                    if isinstance(elt, ast.Name):
                        if elt_tag is None:
                            self.env.pop(elt.id, None)
                        else:
                            self.env[elt.id] = elt_tag
            elif isinstance(target, ast.Subscript):
                self._subscript_store(target, value, node, augmented=False)

    def _aug_assign(self, node: ast.AugAssign) -> None:
        self.expr(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            evidence = self.env.get(target.id)
            if evidence == _VIEW:
                self.rep("REP404", node,
                         f"in-place update of view '{target.id}' in "
                         f"'{self.where}' writes through to the aliased "
                         "base array; the scalar oracle sees the "
                         "pre-update values -- materialise a copy before "
                         "mutating")
            elif evidence == _F32 and (
                    _has_float_constant(node.value)
                    or self.expr(node.value) == _ARRAY):
                self.rep("REP402", node,
                         f"float32 array '{target.id}' updated in-place "
                         f"with a float64 operand in '{self.where}'; the "
                         "broadcast quietly computes in float64 -- cast "
                         "the operand with np.float32(...) first")
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, node.value, node, augmented=True)

    def _subscript_store(self, target: ast.Subscript, value: ast.expr,
                         node: ast.stmt, augmented: bool) -> None:
        base = _terminal_name(target.value)
        index_names = [
            n.id for n in ast.walk(target.slice)
            if isinstance(n, ast.Name)
            and self.env.get(n.id) in (_ARRAY, _F32, _VIEW)
        ]
        if base is not None and index_names:
            idx = index_names[0]
            if augmented:
                self.rep("REP404", node,
                         f"in-place scatter '{base}[{idx}] op=' in "
                         f"'{self.where}' drops updates on duplicate "
                         "indices (numpy buffers the read); use "
                         "np.add.at or prove the index array unique")
            else:
                self.rep("REP404", node,
                         f"scatter store through integer index array "
                         f"'{idx}' into '{base}' in '{self.where}'; "
                         "duplicate indices make the last write win in "
                         "buffer order, not fragment order -- prove the "
                         "indices unique or scatter via np.minimum.at")

    # -- loops ----------------------------------------------------------

    def _iter_verdict(self, expr: ast.expr) -> Optional[str]:
        """Why this iterable is per-element hot-path work, if it is."""
        term = _terminal_name(expr)
        if term is not None:
            if term in _FRAGMENT_HINTS:
                return f"fragment sequence '{term}'"
            if self.env.get(term) in _ARRAYISH:
                return f"ndarray '{term}'"
        if isinstance(expr, ast.Call):
            fname = _terminal_name(expr.func)
            if fname == "enumerate" and expr.args:
                return self._iter_verdict(expr.args[0])
            if fname == "zip":
                for arg in expr.args:
                    verdict = self._iter_verdict(arg)
                    if verdict is not None:
                        return verdict
            if fname == "range":
                for bound in expr.args:
                    if isinstance(bound, ast.Call) \
                            and _terminal_name(bound.func) == "len" \
                            and bound.args:
                        inner = _terminal_name(bound.args[0])
                        if inner is not None and (
                                self.env.get(inner) in _ARRAYISH
                                or inner in _FRAGMENT_HINTS):
                            return f"range(len({inner})) over an ndarray"
        return None

    def _for(self, node: ast.stmt) -> None:
        iter_expr = node.iter  # type: ignore[attr-defined]
        verdict = self._iter_verdict(iter_expr)
        if verdict is not None:
            self.rep("REP400", node,
                     f"per-element loop over {verdict} in '{self.where}' "
                     "on the hot path; batch it with numpy array "
                     "operations (SoA) behind the bit-identity parity "
                     "gate")
        self.expr(iter_expr)
        target = node.target  # type: ignore[attr-defined]
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self.env.pop(name_node.id, None)
        in_element_loop = verdict is not None
        self.loop_depth += 1 if in_element_loop else 0
        self.plain_loop_depth += 1
        try:
            self.run(node.body)  # type: ignore[attr-defined]
            self.run(node.orelse)  # type: ignore[attr-defined]
        finally:
            self.loop_depth -= 1 if in_element_loop else 0
            self.plain_loop_depth -= 1

    def _while(self, node: ast.While) -> None:
        queue_name = next(
            (name for name in (
                _terminal_name(child) for child in ast.walk(node.test))
             if name in _QUEUE_HINTS),
            None,
        )
        if queue_name is not None:
            self.rep("REP400", node,
                     f"event-at-a-time while loop over '{queue_name}' in "
                     f"'{self.where}' on the hot path; consider batching "
                     "ready events per timestamp into array operations")
        self.expr(node.test)
        self.loop_depth += 1 if queue_name is not None else 0
        self.plain_loop_depth += 1
        try:
            self.run(node.body)
            self.run(node.orelse)
        finally:
            self.loop_depth -= 1 if queue_name is not None else 0
            self.plain_loop_depth -= 1

    @property
    def in_loop(self) -> bool:
        return self.plain_loop_depth > 0

    # -- expressions ----------------------------------------------------

    def expr(self, node: Optional[ast.expr]) -> Optional[str]:
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
            base = self.expr(node.value)
            self.expr(node.slice)
            if base in _ARRAYISH:
                if any(isinstance(n, ast.Slice) for n in ast.walk(node.slice)):
                    return _VIEW
                index_arrayish = any(
                    isinstance(n, ast.Name)
                    and self.env.get(n.id) in _ARRAYISH
                    for n in ast.walk(node.slice)
                )
                if index_arrayish:
                    return _F32 if base == _F32 else _ARRAY
            return None
        if isinstance(node, ast.BinOp):
            left = self.expr(node.left)
            right = self.expr(node.right)
            sides = (left, right)
            if any(tag in _ARRAYISH for tag in sides):
                if left == _F32 and right in (_F32, None):
                    return _F32
                if right == _F32 and left in (_F32, None):
                    return _F32
                return _ARRAY
            return None
        if isinstance(node, ast.Compare):
            left = self.expr(node.left)
            tags = [self.expr(comp) for comp in node.comparators]
            if left in _ARRAYISH or any(tag in _ARRAYISH for tag in tags):
                return _BOOL
            return None
        if isinstance(node, ast.BoolOp):
            tags = [self.expr(value) for value in node.values]
            if any(tag in _ARRAYISH for tag in tags):
                return _BOOL
            return None
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand)
        if isinstance(node, ast.IfExp):
            self.expr(node.test)
            body = self.expr(node.body)
            orelse = self.expr(node.orelse)
            return body or orelse
        if isinstance(node, ast.List):
            for elt in node.elts:
                self.expr(elt)
            return _LIST
        if isinstance(node, (ast.Tuple, ast.Set)):
            for elt in node.elts:
                self.expr(elt)
            return None
        if isinstance(node, ast.Dict):
            for value in [*node.keys, *node.values]:
                if value is not None:
                    self.expr(value)
            return None
        if isinstance(node, (ast.ListComp, ast.GeneratorExp,
                             ast.SetComp, ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self.expr(value)
            return None
        if isinstance(node, ast.FormattedValue):
            self.expr(node.value)
            return None
        if isinstance(node, ast.NamedExpr):
            tag = self.expr(node.value)
            if isinstance(node.target, ast.Name):
                if tag is None:
                    self.env.pop(node.target.id, None)
                else:
                    self.env[node.target.id] = tag
            return tag
        if isinstance(node, (ast.Starred, ast.Await)):
            return self.expr(node.value)
        if isinstance(node, ast.Slice):
            self.expr(node.lower)
            self.expr(node.upper)
            self.expr(node.step)
            return None
        if isinstance(node, ast.Lambda):
            return None
        return None

    def _comprehension(self, node: ast.expr) -> Optional[str]:
        """Element comprehensions count as loops for REP401 only.

        A listcomp building per-fragment scalars is the same scalar
        bottleneck as a ``for`` statement, but it is also the idiomatic
        *fix* for REP403 (allocate once), so only the scalar-math rule
        fires inside it.
        """
        element_comp = False
        for gen in node.generators:  # type: ignore[attr-defined]
            verdict = self._iter_verdict(gen.iter)
            self.expr(gen.iter)
            if verdict is not None:
                element_comp = True
            for name_node in ast.walk(gen.target):
                if isinstance(name_node, ast.Name):
                    self.env.pop(name_node.id, None)
            for cond in gen.ifs:
                self.expr(cond)
        self.comp_depth += 1 if element_comp else 0
        try:
            if isinstance(node, ast.DictComp):
                self.expr(node.key)
                self.expr(node.value)
            else:
                self.expr(node.elt)  # type: ignore[attr-defined]
        finally:
            self.comp_depth -= 1 if element_comp else 0
        if isinstance(node, ast.ListComp):
            return _LIST
        return None

    # -- calls ----------------------------------------------------------

    def _call(self, node: ast.Call) -> Optional[str]:
        for arg in node.args:
            self.expr(arg)
        for kw in node.keywords:
            self.expr(kw.value)

        in_element_ctx = self.loop_depth > 0 or self.comp_depth > 0

        math_fn = _math_func(node)
        if math_fn is not None and in_element_ctx:
            if math_fn in _MATH_EXACT:
                self.rep("REP401", node,
                         f"scalar math.{math_fn}() per element in "
                         f"'{self.where}'; np.{math_fn} is bit-identical "
                         "to libm here (texture/batch.py precedent) -- "
                         "vectorize it")
            elif math_fn in _MATH_LAST_ULP:
                self.rep("REP401", node,
                         f"scalar math.{math_fn}() per element in "
                         f"'{self.where}'; a numpy equivalent exists but "
                         "its SIMD kernel may differ from libm in the "
                         "last ulp -- vectorize behind a measured "
                         "bit-identity parity check")

        np_fn = _np_func(node)
        if np_fn is not None:
            if np_fn in _NP_LOOP_ALLOCATORS and self.in_loop:
                self.rep("REP403", node,
                         f"np.{np_fn}(...) allocates inside a hot loop in "
                         f"'{self.where}'; hoist the allocation out of "
                         "the loop or batch the whole computation")
            if np_fn in _NP_DTYPE_DEFAULTING and self.uses_float32 \
                    and _call_dtype(node) is None:
                self.rep("REP402", node,
                         f"np.{np_fn}(...) without dtype= in float32 "
                         f"function '{self.where}' defaults to float64; "
                         "pass dtype=np.float32 to keep the pipeline "
                         "single-precision")
            if np_fn in _NP_REASSOC_REDUCTIONS and node.args:
                first = self.expr(node.args[0])
                if first in (_ARRAY, _F32, _VIEW):
                    self.rep("REP404", node,
                             f"np.{np_fn}(...) reassociates float "
                             f"accumulation in '{self.where}'; pairwise "
                             "summation differs from the scalar oracle's "
                             "ordered loop -- keep the ordered form or "
                             "update the oracle and parity test together")
            if np_fn in _NP_LIST_CONVERTERS and node.args:
                converted = node.args[0]
                if isinstance(converted, ast.Name) \
                        and converted.id in self.appended_lists:
                    self.rep("REP403", node,
                             f"list '{converted.id}' appended per "
                             f"element then converted with np.{np_fn} in "
                             f"'{self.where}'; preallocate the array and "
                             "write slices instead of growing a Python "
                             "list")
            return self._np_result_tag(node, np_fn)

        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _terminal_name(func.value)
            receiver_tag = (self.env.get(receiver)
                            if receiver is not None else None)
            if func.attr == "append" and receiver is not None \
                    and self.in_loop \
                    and self.env.get(receiver) == _LIST:
                self.appended_lists.add(receiver)
            if func.attr in _REASSOC_METHODS \
                    and receiver_tag in (_ARRAY, _F32, _VIEW):
                self.rep("REP404", node,
                         f"'{receiver}.{func.attr}()' reassociates float "
                         f"accumulation in '{self.where}'; pairwise "
                         "summation differs from the scalar oracle's "
                         "ordered loop -- keep the ordered form or "
                         "update the oracle and parity test together")
            if func.attr == "astype" and receiver_tag in _ARRAYISH:
                if node.args and _dtype_mentions_float32(node.args[0]):
                    return _F32
                return _ARRAY
            if func.attr in ("reshape", "ravel", "view", "transpose",
                             "swapaxes") and receiver_tag in _ARRAYISH:
                return _VIEW
            if func.attr in ("copy", "flatten") \
                    and receiver_tag in _ARRAYISH:
                return _F32 if receiver_tag == _F32 else _ARRAY
            if func.attr.endswith("_batch"):
                # The `_batch` suffix is this codebase's SoA convention
                # (bilinear_batch, depth_test_batch, ...): the result is
                # an array -- a boolean mask when the method is a test.
                return _BOOL if "test" in func.attr else _ARRAY
            self.expr(func.value)
        return None

    def _np_result_tag(self, node: ast.Call, np_fn: str) -> Optional[str]:
        if np_fn not in _NP_ARRAY_RETURNING:
            return None
        if _call_dtype(node) == "float32":
            return _F32
        if np_fn in ("floor", "ceil", "rint", "sqrt", "abs", "minimum",
                     "maximum", "clip", "where", "ldexp") and node.args:
            # dtype-preserving elementwise ops keep float32 evidence.
            if self.expr(node.args[0]) == _F32:
                return _F32
        return _ARRAY


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class _HotFunctionFinder:
    """Walks one module, scanning each def that is in the hot set."""

    def __init__(self, rule: "VectorizeRule", ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.hot_keys = rule._hot if rule._hot is not None else set()

    def run(self, tree: ast.Module) -> None:
        self._visit(tree, ())

    def _visit(self, node: ast.AST, qual: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(qual + (child.name,))
                if (self.ctx.path, qualname) in self.hot_keys:
                    _FunctionScan(self.ctx, qualname).scan(child)
                self._visit(child, qual + (child.name,))
            elif isinstance(child, ast.ClassDef):
                self._visit(child, qual + (child.name,))
            else:
                self._visit(child, qual)


class VectorizeRule(LintRule):
    """The REP400-series engine: one prepare, one walk, five rule IDs."""

    rule_id = "REP400"
    name = "vectorization-and-numeric-parity"
    description = ("profile-guided scalar-loop and numeric-parity analysis "
                   "of everything reachable from simulate_frame / the "
                   "rasterizer / BatchSampler (REP400-REP404)")
    node_types = (ast.Module,)

    def __init__(self) -> None:
        self._hot: Optional[Set[Tuple[str, str]]] = None

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_sim_source

    def prepare(self, sources: Sequence[Tuple[str, str]]) -> None:
        self._hot = _hot_keys(harvest_model(sources))

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Module)
        _HotFunctionFinder(self, ctx).run(node)
