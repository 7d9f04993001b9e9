"""COST — no free work: everything the GPU would do must be charged.

Modeled time is the repository's ground truth; any code path that
traverses, intersects, or computes distances without flowing through
the :class:`~repro.gpu.costmodel.CostModel` silently deflates it.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register


def _is_call_to(node: ast.Call, names: tuple[str, ...]) -> bool:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id in names
    if isinstance(fn, ast.Attribute):
        return fn.attr in names
    return False


#: the traversal entry points: one launch, and a pass's launches in one loop
_TRACE_CALLS = ("trace_batch", "trace_forest")


@register
class RawTraceRule(Rule):
    """The traversal may only be called from the pipeline layer."""

    rule_id = "COST001"
    summary = "trace_batch/trace_forest outside the pipeline bypasses cost accounting"

    def check(self, ctx) -> list[Finding]:
        if ctx.config.is_trace_entry(ctx.rel_path):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_call_to(node, _TRACE_CALLS):
                name = dotted_name(node.func) or "trace"
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"direct {name} call: launches must go through "
                        "Pipeline.launch so CostModel.launch_cost charges "
                        "the traversal; raw traces are free work",
                    )
                )
        return out


@register
class DiscardedLaunchRule(Rule):
    """A launch whose result is dropped leaves its cost unaccounted."""

    rule_id = "COST002"
    summary = "launch/trace result discarded (cost never charged)"

    def check(self, ctx) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _is_call_to(node.value, ("launch",) + _TRACE_CALLS)
            ):
                out.append(
                    self.finding(
                        ctx,
                        node,
                        "launch result discarded: LaunchResult carries the "
                        "LaunchCost; dropping it means the launch ran for "
                        "free in the modeled timeline",
                    )
                )
        return out


#: distance computations the IS shaders own; elsewhere in modeled code
#: they are un-charged Step-2 work
_DISTANCE_CALLS = (
    "np.einsum",
    "numpy.einsum",
    "np.linalg.norm",
    "numpy.linalg.norm",
    "scipy.spatial.distance.cdist",
    "distance.cdist",
    "cdist",
)


@register
class UnchargedDistanceRule(Rule):
    """Pair-distance math outside shader modules, in modeled code."""

    rule_id = "COST003"
    summary = "pair-distance computation outside the IS shaders"

    def check(self, ctx) -> list[Finding]:
        cfg = ctx.config
        if not cfg.is_modeled(ctx.rel_path) or cfg.is_shader_module(
            ctx.rel_path
        ):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _DISTANCE_CALLS or (
                name is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cdist"
            ):
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"distance computation ({name or 'cdist'}) in "
                        "modeled code outside the shader modules: sphere "
                        "tests are Step-2 IS work and must run inside a "
                        "shader so the launch's IsKind prices them",
                    )
                )
        return out
