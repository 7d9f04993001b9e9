"""Rule registry and the shared AST vocabulary rules are written in.

A rule is a subclass of :class:`Rule` decorated with
:func:`register`. The engine instantiates every registered rule once
and calls :meth:`Rule.check` per module; helpers here keep the
individual rule files small.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import ModuleContext

RULE_CLASSES: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in RULE_CLASSES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_CLASSES[cls.rule_id] = cls
    return cls


class Rule:
    """One invariant check. Subclasses set the class attributes."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check(self, ctx: "ModuleContext") -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "ModuleContext", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole-project pass.

    Subclasses implement :meth:`check_project` against a
    :class:`~repro.analysis.project.ProjectContext`. The engine runs
    project rules once over all modules; :meth:`check` keeps the
    single-module entry point working (tests, ``analyze_source``) by
    building a one-module project on the fly.
    """

    def check(self, ctx: "ModuleContext") -> list[Finding]:
        from repro.analysis.project import ProjectContext

        return self.check_project(ProjectContext.build([ctx]))

    def check_project(self, project) -> list[Finding]:
        raise NotImplementedError

    def _finding_at(
        self, module: "ModuleContext", node: ast.AST, message: str
    ) -> Finding:
        """A finding anchored in ``module`` (project rules span files)."""
        return self.finding(module, node, message)


def all_rules() -> list[Rule]:
    """Instantiate every registered rule (importing the rule modules)."""
    # Imported here, not at module top, to avoid a registry/import cycle;
    # the import itself is what registers the rules.
    from repro.analysis.rules import (  # noqa: API003, F401
        concurrency,
        costmodel,
        determinism,
        hygiene,
        lockstep,
        shader_contract,
    )

    return [cls() for _, cls in sorted(RULE_CLASSES.items())]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def root_name(node: ast.AST) -> str | None:
    """Leftmost identifier of a Name/Attribute/Subscript/Call chain.

    ``ray_ids`` -> ``ray_ids``; ``ray_ids.tolist()`` -> ``ray_ids``;
    ``self.points[i]`` -> ``points`` (the attribute past ``self``).
    """
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def dotted_name(node: ast.AST) -> str | None:
    """``np.random.default_rng`` -> that string; None if not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_names(expr: ast.AST):
    """Every bare identifier appearing anywhere inside ``expr``."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name):
            yield sub.id


def call_params(fn: ast.FunctionDef) -> list[str]:
    """Positional parameter names of ``fn`` excluding ``self``."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


#: parameter names of the IS shader protocol, in order
SHADER_PARAMS = ("ray_ids", "prim_ids")


def find_call_method(cls: ast.ClassDef) -> ast.FunctionDef | None:
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__call__":
            return item
    return None


#: methods through which the traversal hands a shader its pairs: the
#: plain per-batch ``__call__`` and the fused per-round ``flat_hits``
SHADER_ENTRY_POINTS = ("__call__", "flat_hits")


def find_entry_methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """The shader's entry points defined in ``cls``'s body."""
    return [
        item for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and item.name in SHADER_ENTRY_POINTS
    ]


def is_shader_class(cls: ast.ClassDef) -> bool:
    """A class participates in the IS shader protocol.

    Detected structurally (``__call__(self, ray_ids, prim_ids)``) or
    nominally (name ends in ``Shader``) — nominal detection lets the
    contract rules flag classes that *intend* to be shaders but get the
    signature wrong.
    """
    if cls.name.endswith("Shader"):
        return True
    call = find_call_method(cls)
    return call is not None and call_params(call) == list(SHADER_PARAMS)
