"""DET — hidden-nondeterminism rules for engine and serving paths.

RTNN's Fig. 12/14 comparisons (and every bit-identity gate in this
repo: fused-batch vs solo, sharded vs single engine, warm cache vs
cold) rest on runs being exactly replayable. These rules catch the
four ways nondeterminism leaks in: unseeded randomness, wall-clock
values escaping into data, iteration over unordered containers, and
thread-pool completion order. They run on the whole-project pass, so
"reachable from an engine or serve path" is a call-graph fact, not a
filename convention.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext, parent_map
from repro.analysis.rules import ProjectRule, dotted_name, register

# ----------------------------------------------------------------------
# DET001 — unseeded RNG
# ----------------------------------------------------------------------
_LEGACY_RNG = ("np.random.", "numpy.random.", "random.")
_SEED_KWARGS = ("seed", "entropy", "rng")


def _is_unseeded_rng(node: ast.Call) -> str | None:
    """A message fragment if ``node`` constructs unseeded randomness."""
    name = dotted_name(node.func)
    if name is None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "default_rng"
        ):
            name = "default_rng"
        else:
            return None
    base = name.rsplit(".", 1)[-1]
    if base == "default_rng":
        seeded = any(
            not (isinstance(a, ast.Constant) and a.value is None)
            for a in node.args
        ) or any(kw.arg in _SEED_KWARGS for kw in node.keywords)
        if not seeded:
            return f"{name}() without a seed draws fresh OS entropy"
        return None
    if any(name.startswith(p) for p in _LEGACY_RNG):
        if base in ("Generator", "SeedSequence", "PCG64", "default_rng"):
            return None
        return f"{name}() uses interpreter-global RNG state"
    return None


@register
class UnseededRngRule(ProjectRule):
    """Unseeded randomness reachable from an engine or serve path.

    Rationale: a replica that draws fresh OS entropy (``default_rng()``
    with no seed) or touches interpreter-global RNG state
    (``random.*``, legacy ``np.random.*``) returns different results on
    every run — the scatter-gather merge can no longer be checked
    bit-identical against the single-engine path, and a failing run
    cannot be replayed. Every stream must be derived from an explicit
    seed (API001 already routes construction through
    ``repro.utils.rng``; this rule additionally proves the call site
    *passes a seed* on any classified execution path).

    Bad::

        def knn_search(self, queries, k, radius):
            rng = default_rng()              # DET001: fresh entropy

    Good::

        def knn_search(self, queries, k, radius, seed=0):
            rng = default_rng(seed)
    """

    rule_id = "DET001"
    summary = "unseeded RNG on an engine/serve execution path"

    def check_project(self, project: ProjectContext) -> list[Finding]:
        out: list[Finding] = []
        for fn in project.functions.values():
            if not fn.in_context():
                continue
            if fn.module.config.is_rng_module(fn.rel_path):
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    why = _is_unseeded_rng(node)
                    if why:
                        out.append(self._finding_at(
                            fn.module, node,
                            f"{why} on a {fn.context_label()} path "
                            f"({fn.name}); results are not replayable — "
                            "pass an explicit seed",
                        ))
        return out


# ----------------------------------------------------------------------
# DET002 — wall-clock flowing into values
# ----------------------------------------------------------------------
_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "loop.time",
    "datetime.now", "datetime.datetime.now", "datetime.utcnow",
    "datetime.datetime.utcnow",
}

#: names that denote *timing* — storage a clock read may legally reach
_TIMING_NAME = re.compile(
    r"(?:^|_)(t\d*|now|time|times|times?tamp|ts|clock|wall|walls|start|"
    r"started|starts|end|ends|ended|done|deadline|deadlines|at|s|sec|"
    r"secs|seconds|ms|elapsed|latency|latencies|wait|waits|backoff|"
    r"stall|spike|budget|duration|timeout|cooldown|until|expiry|"
    r"expires|expired|age|epoch|tick|ticks)(?:$|_)",
)


def _timing_name(name: str) -> bool:
    return bool(_TIMING_NAME.search(name.lower()))


def _target_name(t: ast.expr) -> str | None:
    if isinstance(t, ast.Name):
        return t.id
    if isinstance(t, ast.Attribute):
        return t.attr
    if isinstance(t, ast.Subscript):
        sl = t.slice
        if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
            return sl.value
        return _target_name(t.value)
    if isinstance(t, (ast.Tuple, ast.List)):
        return None
    return None


@register
class WallClockIntoValuesRule(ProjectRule):
    """Wall-clock reads flowing into result or counter values.

    Rationale: clock reads are fine as *span timing* (durations,
    deadlines, latency samples) but poison as *data* — a timestamp used
    as a seed, an id, a cache key, or a result field makes every run
    unique and every replay impossible. API002 bans clocks from
    modeled-time modules outright; this rule follows the value: on a
    classified path, a clock read may be compared, subtracted, or
    stored under a timing-ish name, and nothing else.

    Bad::

        def search_fused(self, kind, groups):
            seed = int(time.time())          # DET002: clock as data

    Good::

        started_at = time.monotonic()
        ...
        latency_s = time.monotonic() - started_at
    """

    rule_id = "DET002"
    summary = "wall-clock value flowing into results/counters"

    def check_project(self, project: ProjectContext) -> list[Finding]:
        out: list[Finding] = []
        for fn in project.functions.values():
            if not fn.in_context():
                continue
            parents = parent_map(fn.node)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name not in _WALLCLOCK_CALLS:
                    continue
                sink = self._bad_sink(node, parents)
                if sink:
                    out.append(self._finding_at(
                        fn.module, node,
                        f"{name}() flows into {sink} in {fn.name}; "
                        "wall-clock may only feed span timing "
                        "(durations, deadlines, latency) — derive "
                        "data values deterministically",
                    ))
        return out

    @staticmethod
    def _bad_sink(call: ast.Call, parents: dict) -> str | None:
        """Where the clock value lands, if that landing is a data sink."""
        node: ast.AST = call
        while True:
            parent = parents.get(node)
            if parent is None:
                return None
            if isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Sub):
                return None            # duration arithmetic
            if isinstance(parent, ast.Compare):
                return None            # deadline check
            if isinstance(parent, ast.keyword):
                if parent.arg is None or _timing_name(parent.arg):
                    return None
                return f"argument {parent.arg!r}"
            if isinstance(parent, ast.Call) and node is not parent.func:
                fname = dotted_name(parent.func)
                base = (fname or "").rsplit(".", 1)[-1]
                if base in ("int", "float", "min", "max", "abs", "round"):
                    node = parent
                    continue
                if _timing_name(base):
                    return None
                return f"a {base or 'call'}() argument"
            if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    parent.targets if isinstance(parent, ast.Assign)
                    else [parent.target]
                )
                for t in targets:
                    tname = _target_name(t)
                    if tname is not None and not _timing_name(tname):
                        return f"assignment to {tname!r}"
                return None
            if isinstance(parent, ast.Return):
                return "a return value"
            if isinstance(parent, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
                node = parent
                continue
            if isinstance(parent, (ast.BinOp, ast.UnaryOp, ast.IfExp,
                                   ast.FormattedValue, ast.JoinedStr,
                                   ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp, ast.Starred)):
                node = parent
                continue
            return None


# ----------------------------------------------------------------------
# DET003 — iteration over unordered containers
# ----------------------------------------------------------------------
_ORDER_SENSITIVE_METHODS = {
    "append", "extend", "insert", "write", "writelines", "put", "join",
    "add_row", "send",
}
_ORDER_FREE_CONSUMERS = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all",
    "len", "Counter",
}


def _set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Is ``node`` statically set-typed (or derived from a known set)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.DictComp):
        # A dict *built from* a set inherits its ordering chaos.
        return any(_set_expr(g.iter, set_names) for g in node.generators)
    if isinstance(node, ast.Call):
        fn = node.func
        base = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if base in ("set", "frozenset"):
            return True
        if base in ("union", "intersection", "difference",
                    "symmetric_difference"):
            return _set_expr(fn.value, set_names) if isinstance(
                fn, ast.Attribute) else False
        if base in ("keys", "values", "items") and isinstance(
            fn, ast.Attribute
        ) and isinstance(fn.value, ast.Name):
            return fn.value.id in set_names     # dict derived from a set
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return (
            _set_expr(node.left, set_names) or _set_expr(node.right, set_names)
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


@register
class UnorderedIterationRule(ProjectRule):
    """Order-dependent output built by iterating a set (or set-derived dict).

    Rationale: set iteration order depends on the interpreter's hash
    seed — the same program prints neighbors in one order today and
    another tomorrow. When that order reaches results (a list, a yield,
    an accumulating float), runs stop being comparable. Plain dicts
    iterate in insertion order (deterministic in CPython >= 3.7), so
    only dicts *built from* sets are flagged. ``sorted()`` at the
    boundary restores a canonical order.

    Bad::

        def search_fused(self, kind, groups):
            widths = {b.width for b in groups}
            out = []
            for w in widths:
                out.append(self._gas(w))     # DET003: hash order

    Good::

        for w in sorted(widths):
            out.append(self._gas(w))
    """

    rule_id = "DET003"
    summary = "set-ordered iteration reaching order-dependent output"

    def check_project(self, project: ProjectContext) -> list[Finding]:
        out: list[Finding] = []
        for fn in project.functions.values():
            if not fn.in_context():
                continue
            set_names: set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    if _set_expr(node.value, set_names):
                        for t in node.targets:
                            if isinstance(t, ast.Name):
                                set_names.add(t.id)
            parents = parent_map(fn.node)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.For):
                    if _set_expr(node.iter, set_names) and (
                        self._order_sensitive_body(node)
                    ):
                        out.append(self._finding_at(
                            fn.module, node,
                            f"iteration over a set in {fn.name} feeds "
                            "order-dependent output; wrap the iterable "
                            "in sorted(...) to fix the order",
                        ))
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    if not any(
                        _set_expr(gen.iter, set_names)
                        for gen in node.generators
                    ):
                        continue
                    if isinstance(node, ast.GeneratorExp):
                        parent = parents.get(node)
                        if isinstance(parent, ast.Call):
                            pfn = parent.func
                            base = (
                                pfn.attr if isinstance(pfn, ast.Attribute)
                                else getattr(pfn, "id", None)
                            )
                            if base in _ORDER_FREE_CONSUMERS:
                                continue
                    out.append(self._finding_at(
                        fn.module, node,
                        f"comprehension over a set in {fn.name} "
                        "produces an order-dependent sequence; wrap "
                        "the iterable in sorted(...)",
                    ))
        return out

    @staticmethod
    def _order_sensitive_body(loop: ast.For) -> bool:
        for sub in ast.walk(loop):
            if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.AugAssign)):
                return True
            if isinstance(sub, ast.Call):
                f = sub.func
                if isinstance(f, ast.Attribute) and (
                    f.attr in _ORDER_SENSITIVE_METHODS
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# DET004 — completion-order dependence
# ----------------------------------------------------------------------
@register
class CompletionOrderRule(ProjectRule):
    """Thread-pool completion order reaching accumulated results.

    Rationale: ``as_completed`` yields futures in whatever order the
    OS scheduler finished them — appending or accumulating in that
    order bakes a race into the output (float addition is not
    commutative-associative in the bits). Either consume futures in
    submission order (``[f.result() for f in futures]``) or re-merge
    by an explicit index so the result layout is completion-independent.
    The engine and the shard tier launch on the calling thread; this
    rule keeps any future pool honest.

    Bad::

        for fut in as_completed(futures):
            out.append(fut.result())         # DET004: completion order

    Good::

        for idx, fut in futs.items():
            out[idx] = fut.result()          # index re-merge
        # or simply: [f.result() for f in futures]  (submission order)
    """

    rule_id = "DET004"
    summary = "as_completed consumed without an index re-merge"

    def check_project(self, project: ProjectContext) -> list[Finding]:
        out: list[Finding] = []
        for fn in project.functions.values():
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.For):
                    continue
                if not self._iterates_as_completed(node.iter):
                    continue
                if self._order_dependent(node):
                    out.append(self._finding_at(
                        fn.module, node,
                        f"results consumed in as_completed order in "
                        f"{fn.name} without an index re-merge; collect "
                        "in submission order or store by index",
                    ))
        return out

    @staticmethod
    def _iterates_as_completed(it: ast.expr) -> bool:
        if not isinstance(it, ast.Call):
            return False
        name = dotted_name(it.func)
        base = (name or "").rsplit(".", 1)[-1]
        if base == "as_completed":
            return True
        if (
            isinstance(it.func, ast.Attribute)
            and it.func.attr in ("imap_unordered",)
        ):
            return True
        return False

    @staticmethod
    def _order_dependent(loop: ast.For) -> bool:
        """Accumulation in the body with no subscript-store re-merge."""
        accumulates = False
        remerges = False
        for sub in ast.walk(loop):
            if isinstance(sub, (ast.AugAssign, ast.Yield, ast.YieldFrom)):
                accumulates = True
            elif isinstance(sub, ast.Call):
                f = sub.func
                if isinstance(f, ast.Attribute) and f.attr in (
                    "append", "extend", "add", "update", "put",
                ):
                    accumulates = True
            elif isinstance(sub, ast.Assign):
                if any(isinstance(t, ast.Subscript) for t in sub.targets):
                    remerges = True
        return accumulates and not remerges
