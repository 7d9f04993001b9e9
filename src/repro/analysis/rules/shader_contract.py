"""SHD — per-stage shader contracts (the OptiX program model).

The simulated pipeline invokes intersection shaders exactly like OptiX
invokes IS/AH programs: a fixed batch signature, read-only geometry,
and launch-order ray ids that mean nothing until translated to user
query ids. These rules hold every shader class to that contract.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    SHADER_PARAMS,
    Rule,
    call_params,
    find_call_method,
    find_entry_methods,
    is_shader_class,
    register,
    root_name,
)

#: identifiers that denote acceleration-structure state a shader must
#: never write (the GAS is built once per launch group and shared)
_GEOMETRY_NAMES = frozenset(
    {"gas", "bvh", "points", "prim_lo", "prim_hi", "prim_order",
     "node_lo", "node_hi", "node_left", "node_right", "node_start",
     "node_end"}
)


def _shader_classes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_shader_class(node):
            yield node


@register
class ShaderSignatureRule(Rule):
    """Shader ``__call__`` must take the batch ``(ray_ids, prim_ids)``."""

    rule_id = "SHD001"
    summary = "IS shader __call__ must be __call__(self, ray_ids, prim_ids)"

    def check(self, ctx) -> list[Finding]:
        if ctx.config.is_exempt(ctx.rel_path):
            return []
        out = []
        for cls in _shader_classes(ctx.tree):
            call = find_call_method(cls)
            if call is None:
                out.append(
                    self.finding(
                        ctx,
                        cls,
                        f"shader class {cls.name} defines no __call__; "
                        "the pipeline invokes shaders as "
                        "shader(ray_ids, prim_ids)",
                    )
                )
                continue
            params = call_params(call)
            if tuple(params) != SHADER_PARAMS:
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"{cls.name}.__call__ signature is "
                        f"({', '.join(params) or ''}); the IS contract is "
                        "(ray_ids, prim_ids) — per-pair batches in launch "
                        "order",
                    )
                )
        return out


@register
class ShaderGeometryMutationRule(Rule):
    """Shaders must not mutate GAS/BVH state mid-launch."""

    rule_id = "SHD002"
    summary = "IS shader must treat GAS/BVH geometry as read-only"

    def check(self, ctx) -> list[Finding]:
        if ctx.config.is_exempt(ctx.rel_path):
            return []
        out = []
        for cls in _shader_classes(ctx.tree):
            for entry in find_entry_methods(cls):
                out.extend(self._check_entry(ctx, cls, entry))
        return out

    def _check_entry(self, ctx, cls, entry) -> list[Finding]:
        out = []
        for node in ast.walk(entry):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                # Writes through plain local names are fine; writes
                # into attributes/subscripts rooted at geometry state
                # are not.
                if isinstance(t, ast.Name):
                    continue
                root = root_name(t)
                if root in _GEOMETRY_NAMES:
                    out.append(
                        self.finding(
                            ctx,
                            t,
                            f"{cls.name}.{entry.name} writes to geometry "
                            f"state {root!r}; the GAS/BVH is shared "
                            "across rays and launches and must be "
                            "immutable during traversal",
                        )
                    )
        return out


@register
class ShaderQueryIdTranslationRule(Rule):
    """Per-query state must be addressed via the ``query_ids`` map."""

    rule_id = "SHD003"
    summary = "IS shader must translate ray ids via query_ids"

    def check(self, ctx) -> list[Finding]:
        if ctx.config.is_exempt(ctx.rel_path):
            return []
        out = []
        for cls in _shader_classes(ctx.tree):
            call = find_call_method(cls)
            if call is None:
                continue
            has_map = any(
                (isinstance(n, ast.Attribute) and n.attr == "query_ids")
                or (isinstance(n, ast.Name) and n.id == "query_ids")
                for n in ast.walk(cls)
            )
            if not has_map:
                # Shaders with no query_ids map keep per-*ray* state
                # only (e.g. counting shaders) — nothing to translate.
                continue
            translates = any(
                isinstance(n, ast.Subscript)
                and (
                    (isinstance(n.value, ast.Attribute)
                     and n.value.attr == "query_ids")
                    or (isinstance(n.value, ast.Name)
                        and n.value.id == "query_ids")
                )
                for entry in find_entry_methods(cls)
                for n in ast.walk(entry)
            )
            if not translates:
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"{cls.name} holds a query_ids map but neither "
                        "__call__ nor flat_hits subscripts it; ray ids are "
                        "launch-order indices and must be translated to "
                        "user query ids before touching per-query state",
                    )
                )
        return out
