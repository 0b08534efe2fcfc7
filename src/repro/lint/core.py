"""Shared core for the lint framework: module model, symbol resolution.

Every checker works on a :class:`LintModule` (one parsed source file:
AST + parent links + inline suppressions) and uses a :class:`Resolver`
to turn expression trees into *canonical chains* -- stable strings such
as ``"self._in_queues[]"`` or ``"self.tracer.enabled"`` -- with
intra-function aliases substituted.  Canonical chains are what make the
checkers robust to the hoisted-local idiom used on hot paths
(``tracer = self.tracer; trace = tracer.enabled``).

Canonical chain grammar::

    self.attr          attribute on the instance
    self.attr[]        subscript into an instance attribute
    G.name             module-level global ``name``
    @name              unresolved local / parameter
    time.perf_counter  absolute chain rooted at an imported module

Everything here targets Python 3.9+ (CI lints on 3.9).
"""

from __future__ import annotations

import ast
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Marker used in suppression maps for "all rules disabled on this line".
ALL_RULES = "*"

_SUPPRESS_PREFIX = "lint: disable"


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule: str          #: rule id, e.g. ``"W001"``
    path: str          #: repo-relative posix path
    line: int          #: 1-based line number
    scope: str         #: enclosing ``Class.method`` / ``Class`` / ``<module>``
    message: str       #: one-line description of the violation
    hint: str = ""     #: how to fix it

    def key(self) -> Tuple[str, str, str, str]:
        """Line-independent identity used by the suppression baseline."""
        return (self.rule, self.path, self.scope, self.message)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dict form (used by ``--json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """Human-readable ``path:line: RULE scope: message`` form."""
        text = "%s:%d: %s %s: %s" % (
            self.path, self.line, self.rule, self.scope, self.message)
        if self.hint:
            text += "\n    hint: %s" % self.hint
        return text


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids disabled there via ``# lint: disable=...``.

    A bare ``# lint: disable`` disables every rule on that line.  The
    comment applies to the physical line it sits on; put it on the same
    line as the finding (or, for multi-line statements, on the line the
    checker reports).
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(_SUPPRESS_PREFIX):
                continue
            rest = text[len(_SUPPRESS_PREFIX):].strip()
            rules: Set[str]
            if rest.startswith("="):
                rules = {r.strip() for r in rest[1:].split(",") if r.strip()}
            else:
                rules = {ALL_RULES}
            out.setdefault(tok.start[0], set()).update(rules)
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return out


def module_name_for(rel_path: str) -> str:
    """``src/repro/sim/queues.py`` -> ``repro.sim.queues``."""
    parts = list(Path(rel_path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class LintModule:
    """One parsed source file plus the derived maps checkers need."""

    path: str                      #: repo-relative posix path
    source: str
    tree: ast.Module
    module_name: str
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str) -> "LintModule":
        tree = ast.parse(source, filename=path)
        mod = cls(
            path=Path(path).as_posix(),
            source=source,
            tree=tree,
            module_name=module_name_for(path),
            suppressions=_parse_suppressions(source),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                mod.parents[child] = parent
        return mod

    @classmethod
    def from_file(cls, path: Path, rel_path: str) -> "LintModule":
        return cls.from_source(rel_path, path.read_text(encoding="utf-8"))

    # -- navigation -------------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield *node*'s AST ancestors, innermost first."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The function/async-function *node* sits in, or None."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        """The class *node* sits in, or None."""
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def scope_of(self, node: ast.AST) -> str:
        """Human scope label: ``Class.method`` / ``Class`` / ``<module>``."""
        func = self.enclosing_function(node)
        cls = self.enclosing_class(func if func is not None else node)
        if func is not None and cls is not None:
            return "%s.%s" % (cls.name, func.name)
        if func is not None:
            return func.name
        if cls is not None:
            return cls.name
        return "<module>"

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an inline ``# lint: disable`` covers *finding*."""
        rules = self.suppressions.get(finding.line, set())
        return ALL_RULES in rules or finding.rule in rules

    # -- module-level symbol tables --------------------------------------

    def top_level_classes(self) -> List[ast.ClassDef]:
        """Module-level class definitions."""
        return [n for n in self.tree.body if isinstance(n, ast.ClassDef)]

    def global_names(self) -> Set[str]:
        """Names bound by module-level assignments/imports/defs."""
        names: Set[str] = set()
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
        return names


class Resolver:
    """Canonical-chain resolution with intra-function alias tracking.

    One resolver is built per (module, function) pair.  Aliases are
    collected from simple single-target assignments anywhere in the
    function body (``tracer = self.tracer``) and resolved to fixpoint;
    a name assigned two *different* resolvable chains is treated as
    unresolved -- sound for every checker here, which only acts on
    positively-resolved chains.
    """

    def __init__(self, module: LintModule,
                 func: Optional[ast.AST] = None) -> None:
        self._globals = module.global_names()
        self._raw: Dict[str, List[ast.expr]] = {}
        self._cache: Dict[str, Optional[str]] = {}
        if func is not None:
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    tgt = node.targets[0]
                    if isinstance(tgt, ast.Name):
                        self._raw.setdefault(tgt.id, []).append(node.value)
                elif (isinstance(node, ast.AnnAssign)
                        and node.value is not None
                        and isinstance(node.target, ast.Name)):
                    self._raw.setdefault(node.target.id, []).append(node.value)

    def chain(self, node: ast.expr) -> Optional[str]:
        """Canonical chain for an expression, or None if unresolvable."""
        return self._chain(node, set())

    def _chain(self, node: ast.expr, seen: Set[str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._resolve_name(node.id, seen)
        if isinstance(node, ast.Attribute):
            base = self._chain(node.value, seen)
            if base is None:
                return None
            return base + "." + node.attr
        if isinstance(node, ast.Subscript):
            base = self._chain(node.value, seen)
            if base is None:
                return None
            return base + "[]"
        return None

    def _resolve_name(self, name: str, seen: Set[str]) -> Optional[str]:
        if name == "self":
            return "self"
        if name in seen:            # cyclic alias -- give up
            return "@" + name
        if name in self._cache:
            return self._cache[name]
        values = self._raw.get(name)
        resolved: Optional[str] = None
        if values:
            chains = set()
            for value in values:
                c = self._chain(value, seen | {name})
                if c is not None:
                    chains.add(c)
                else:
                    chains.add("@" + name)
            if len(chains) == 1:
                resolved = chains.pop()
        if resolved is None or resolved.startswith("@"):
            if name in self._globals:
                resolved = "G." + name
            else:
                resolved = "@" + name
        self._cache[name] = resolved
        return resolved


class Checker:
    """Base class: one contract, one or more rule ids."""

    name = "base"
    rules: Dict[str, str] = {}

    def check_module(self, module: LintModule) -> List[Finding]:
        """Return this checker's findings for one module."""
        raise NotImplementedError

    def finding(self, module: LintModule, node: ast.AST, rule: str,
                message: str, hint: str = "") -> Finding:
        """Build a Finding at *node* with scope/path filled in."""
        return Finding(
            rule=rule,
            path=module.path,
            line=getattr(node, "lineno", 0),
            scope=module.scope_of(node),
            message=message,
            hint=hint,
        )


def iter_source_files(root: Path) -> Iterator[Path]:
    """Yield ``*.py`` files under *root*, skipping caches, sorted."""
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def call_name(node: ast.Call) -> Optional[str]:
    """Last name segment of a call's callee: ``a.b.C(...)`` -> ``C``.
    Sees through subscripted generics: ``BoundedQueue[T](...)`` -> same."""
    func = node.func
    if isinstance(func, ast.Subscript):
        func = func.value
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """Plain dotted name of an expression without alias resolution."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else base + "." + node.attr
    return None


def walk_decorated(func: ast.AST) -> Sequence[str]:
    """Dotted names of a function's decorators (call form included)."""
    names: List[str] = []
    for dec in getattr(func, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.append(name)
    return names
