"""H001-H003 -- hot-class discipline.

Classes on the busy path (registered in :data:`HOT_CLASSES`) are
instantiated or touched millions of times per run.  They must:

* **H001** declare ``__slots__`` (no per-instance ``__dict__``) --
  ``@dataclass``-decorated classes are exempt at the declaration level
  (slots are handled by ``_DATACLASS_KWARGS`` on 3.10+);
* **H002** keep their attribute set fixed after construction: creating
  attributes outside ``__init__``/``__post_init__`` defeats slots and
  confuses the freelist reuse in ``request.py``.

**H003** flags stale registry entries (module or class no longer
exists) so the registry can't silently rot.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.core import Checker, Finding, LintModule, walk_decorated

#: Hot-path classes held to the contract above.  Entries are
#: ``"module:ClassName"``; a class that joins the busy path is
#: registered here in the same diff.
HOT_CLASSES = (
    "repro.sim.engine:_Slot",
    "repro.sim.queues:BoundedQueue",
    "repro.sim.queues:DelayLine",
    "repro.sim.queues:BandwidthLink",
    "repro.sim.request:MemoryRequest",
    "repro.sim.request:RequestTracker",
    "repro.sim.stats:Histogram",
    "repro.sim.stats:StatsRegistry",
    "repro.sm.warp:Warp",
    "repro.sm.cta:CTA",
    "repro.sm.scheduler:GTOScheduler",
    "repro.mem.dram:Bank",
    "repro.vm.tlb:L1TLB",
    "repro.obs.profiler:_TickProxy",
)

_INIT_METHODS = {"__init__", "__post_init__"}


def _slots_names(cls: ast.ClassDef) -> Optional[Set[str]]:
    """Names listed in the class's ``__slots__``, or None if absent."""
    for node in cls.body:
        if not isinstance(node, ast.Assign):
            continue
        for tgt in node.targets:
            if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                names: Set[str] = set()
                value = node.value
                elts = (value.elts
                        if isinstance(value, (ast.Tuple, ast.List, ast.Set))
                        else [value])
                for elt in elts:
                    if (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)):
                        names.add(elt.value)
                return names
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(name.split(".")[-1] == "dataclass"
               for name in walk_decorated(cls))


def _class_level_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
    return names


def _self_assigned_names(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for tgt in targets:
            if isinstance(tgt, ast.Tuple):
                targets.extend(tgt.elts)
                continue
            if (isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"):
                names.add(tgt.attr)
    return names


class HotClassChecker(Checker):
    name = "hot-class"
    rules = {
        "H001": "registered hot class without __slots__",
        "H002": "hot class creates attributes outside __init__",
        "H003": "stale HOT_CLASSES registry entry",
    }

    def __init__(self, registry: Optional[Sequence[str]] = None) -> None:
        self._registry = registry

    def registry(self) -> Sequence[str]:
        """The active ``module:Class`` registry (:data:`HOT_CLASSES` by
        default)."""
        if self._registry is not None:
            return self._registry
        return HOT_CLASSES

    def check_module(self, module: LintModule) -> List[Finding]:
        # Hot-class checks are project-wide (registry entries name
        # module:class pairs); per-module they check only local entries.
        return self.check_project({module.module_name: module})

    def check_project(
            self, modules: Dict[str, LintModule]) -> List[Finding]:
        """Check every registry entry against the full module map."""
        findings: List[Finding] = []
        for entry in self.registry():
            mod_name, _, cls_name = entry.partition(":")
            module = modules.get(mod_name)
            if module is None:
                if len(modules) > 1:  # project-wide run: entry unmatched
                    any_mod = next(iter(modules.values()))
                    findings.append(Finding(
                        rule="H003", path=any_mod.path, line=1,
                        scope="<registry>",
                        message="HOT_CLASSES entry '%s': module %s not "
                                "found under the linted tree"
                                % (entry, mod_name),
                        hint="remove or fix the entry in "
                             "repro/lint/hotclass.py",
                    ))
                continue
            cls = next((c for c in module.top_level_classes()
                        if c.name == cls_name), None)
            if cls is None:
                findings.append(Finding(
                    rule="H003", path=module.path, line=1,
                    scope="<registry>",
                    message="HOT_CLASSES entry '%s': class %s not found "
                            "in %s" % (entry, cls_name, mod_name),
                    hint="remove or fix the entry in "
                         "repro/lint/hotclass.py",
                ))
                continue
            findings.extend(self._check_class(module, cls))
        return findings

    def _check_class(self, module: LintModule,
                     cls: ast.ClassDef) -> List[Finding]:
        findings: List[Finding] = []
        slots = _slots_names(cls)
        if slots is None and not _is_dataclass(cls):
            findings.append(self.finding(
                module, cls, "H001",
                "hot class %s declares no __slots__ -- every instance "
                "carries a __dict__" % cls.name,
                hint="add `__slots__ = (...)` listing every instance "
                     "attribute (docs/LINT.md#hot-class)",
            ))
        allowed: Set[str] = set(slots or ())
        allowed |= _class_level_names(cls)
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        for func in methods:
            if func.name in _INIT_METHODS:
                allowed |= _self_assigned_names(func)
        for func in methods:
            if func.name in _INIT_METHODS:
                continue
            for node in ast.walk(func):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for tgt in targets:
                    if (isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                            and tgt.attr not in allowed):
                        findings.append(self.finding(
                            module, node, "H002",
                            "%s.%s creates attribute self.%s outside "
                            "__init__" % (cls.name, func.name, tgt.attr),
                            hint="initialize it in __init__ (and list it "
                                 "in __slots__) so the attribute set "
                                 "stays fixed",
                        ))
        return findings
