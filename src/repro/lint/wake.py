"""W001/W002/W003 -- the lost-wakeup detector.

The quiescence engine lets a component sleep; anything that delivers
work into a sleeping component's ingress queue MUST call ``wake()`` on
it, or the work sits unprocessed forever (the run then diverges from
``strict=True`` or stalls).  Today every push site pairs the two by
hand; this checker makes the pairing mechanical:

* **W001** -- a public method of a ``Component`` subclass pushes into a
  queue the component owns (a ``BoundedQueue`` / ``DelayLine`` /
  ``BandwidthLink`` / ``deque`` created in ``__init__``) but contains
  no ``self.wake()`` call.
* **W002** -- a method tests ``self._slot.awake`` (the hand-inlined
  guard idiom ``if not self._slot.awake: self.wake()``, which reads the
  awake flag off the component's engine record) but the conditional
  never calls ``self.wake()`` -- i.e. someone deleted or typo'd the
  wake but left the guard.
* **W003** -- the component's ``tick`` can return a *timed deadline*
  (an int: "asleep until cycle X"), and a public ingress method has a
  push site with no ``self.wake()`` reachable from it.  Timed sleepers
  raise the stakes: a missed wake does not just idle until the next
  external wake, it makes the engine trust a stale deadline, so the
  push sits until an unrelated event (or forever).  Per push site,
  "reachable" is approximated as a wake that precedes the push, or one
  that follows it with no ``return`` in between (the post-push wake
  idiom in inlined hot paths).

For W001, reachability is approximated by presence: a ``self.wake()``
anywhere in the method satisfies it.  That matches the codebase idiom
(guard first, push after) and keeps the checker free of false
positives from capacity-check early returns.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.core import (
    Checker,
    Finding,
    LintModule,
    Resolver,
    call_name,
    dotted_name,
)

#: Constructors whose instances are ingress queues when stored on self.
QUEUE_CTORS = {"BoundedQueue", "DelayLine", "BandwidthLink", "deque"}

#: Method names that append work to a queue object.
PUSH_METHODS = {"push", "append", "appendleft", "extend", "push_front"}

#: Engine activity-contract methods: called by the simulator itself, on
#: an already-awake component (tick) or as lifecycle hooks -- pushes
#: here cannot lose a wakeup.
CONTRACT_METHODS = {"tick", "wake", "on_skipped", "__init__", "__repr__"}

#: Queue-internal accessors that inlined hot paths reach through
#: (``self.lmr._items.append``, ``link.input`` ...).
_QUEUE_SUFFIXES = ("._items", ".input", "[]")

#: Canonical chain of the awake flag an inlined guard tests.
_AWAKE_CHAIN = "self._slot.awake"

#: The inlined guard idiom, quoted in hints.
_GUARD = "if not self._slot.awake: self.wake()"


def _is_component_class(cls: ast.ClassDef) -> bool:
    if cls.name == "Component":
        return True
    for base in cls.bases:
        name = dotted_name(base)
        if name and name.split(".")[-1] == "Component":
            return True
    return False


def _queue_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names assigned a queue (or container of queues) in
    ``__init__``."""
    attrs: Set[str] = set()
    init = next((n for n in cls.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is None:
        return attrs
    for node in ast.walk(init):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for tgt in targets:
            if (isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                    and _is_queue_value(value)):
                attrs.add(tgt.attr)
    return attrs


def _is_queue_value(value: ast.expr) -> bool:
    if isinstance(value, ast.Call):
        return call_name(value) in QUEUE_CTORS
    if isinstance(value, ast.ListComp):
        return _is_queue_value(value.elt)
    if isinstance(value, (ast.List, ast.Tuple)):
        return any(_is_queue_value(e) for e in value.elts)
    if isinstance(value, ast.DictComp):
        return _is_queue_value(value.value)
    return False


def _strip_queue_suffixes(chain: str) -> str:
    changed = True
    while changed:
        changed = False
        for suffix in _QUEUE_SUFFIXES:
            if chain.endswith(suffix):
                chain = chain[:-len(suffix)]
                changed = True
    return chain


def _owned_queue_pushes(func: ast.FunctionDef, resolver: Resolver,
                        queue_attrs: Set[str]) -> List[ast.Call]:
    """Calls in *func* that push into one of the class's own queues."""
    pushes = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in PUSH_METHODS):
            continue
        chain = resolver.chain(node.func.value)
        if chain is None:
            continue
        base = _strip_queue_suffixes(chain)
        if base.startswith("self.") and base[len("self."):] in queue_attrs:
            pushes.append(node)
    return pushes


def _has_self_wake(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wake"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            return True
    return False


def _expr_possibly_timed(expr: ast.expr) -> bool:
    """Could this return expression be an int wakeup deadline?

    Conservative shape test: names and arithmetic may carry a cycle
    number; ``not``/comparison/bool-op/call results and bool/None
    constants cannot.  Conditional expressions are timed when either
    branch is (the ``a if a < b else b`` minimum of two deadlines).
    """
    if isinstance(expr, ast.IfExp):
        return (_expr_possibly_timed(expr.body)
                or _expr_possibly_timed(expr.orelse))
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, int) and not isinstance(
            expr.value, bool)
    if isinstance(expr, (ast.Name, ast.BinOp, ast.Attribute,
                         ast.Subscript)):
        return True
    return False


def _returns_timed_deadline(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if (isinstance(node, ast.Return) and node.value is not None
                and _expr_possibly_timed(node.value)):
            return True
    return False


def _is_timed_component(cls: ast.ClassDef) -> bool:
    """True when the ``tick`` of *cls* can return an int deadline."""
    for func in cls.body:
        if (isinstance(func, ast.FunctionDef) and func.name == "tick"
                and _returns_timed_deadline(func)):
            return True
    return False


def _wake_reachable_from(push: ast.Call,
                         func: ast.FunctionDef) -> bool:
    """A ``self.wake()`` covers this push site (see module docstring)."""
    wake_lines = [
        node.lineno for node in ast.walk(func)
        if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wake"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self")
    ]
    if not wake_lines:
        return False
    return_lines = [
        node.lineno for node in ast.walk(func)
        if isinstance(node, ast.Return)
    ]
    for wake_line in wake_lines:
        if wake_line <= push.lineno:
            return True
        if not any(push.lineno < ret < wake_line
                   for ret in return_lines):
            return True
    return False


def _awake_guards(func: ast.FunctionDef, resolver: Resolver):
    """``If`` nodes whose test references ``self._slot.awake``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        for sub in ast.walk(node.test):
            if (isinstance(sub, ast.Attribute)
                    and resolver.chain(sub) == _AWAKE_CHAIN):
                yield node
                break


class WakeSiteChecker(Checker):
    name = "wake-site"
    rules = {
        "W001": "ingress push without a reachable self.wake()",
        "W002": "self._slot.awake guard that never calls self.wake()",
        "W003": "timed-wakeup component: ingress push site with no "
                "reachable self.wake()",
    }

    def check_module(self, module: LintModule) -> List[Finding]:
        """Apply W001-W003 to every Component subclass in the module."""
        findings: List[Finding] = []
        for cls in module.top_level_classes():
            if not _is_component_class(cls):
                continue
            queue_attrs = _queue_attrs(cls)
            timed = _is_timed_component(cls)
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                resolver = Resolver(module, func)
                findings.extend(self._check_method(
                    module, cls, func, resolver, queue_attrs, timed))
        return findings

    def _check_method(self, module: LintModule, cls: ast.ClassDef,
                      func: ast.FunctionDef, resolver: Resolver,
                      queue_attrs: Set[str],
                      timed: bool = False) -> List[Finding]:
        findings: List[Finding] = []
        # W002 applies to every method except wake() itself (whose body
        # is the guard).
        if func.name != "wake":
            for guard in _awake_guards(func, resolver):
                if not _has_self_wake(guard):
                    findings.append(self.finding(
                        module, guard, "W002",
                        "guard tests self._slot.awake but never calls "
                        "self.wake() -- a sleeping %s stays asleep"
                        % cls.name,
                        hint="the inlined idiom is `%s`; restore the "
                             "wake call" % _GUARD,
                    ))
        # W001: public ingress methods only.
        if func.name.startswith("_") or func.name in CONTRACT_METHODS:
            return findings
        pushes = _owned_queue_pushes(func, resolver, queue_attrs)
        if pushes and not _has_self_wake(func):
            push = pushes[0]
            findings.append(self.finding(
                module, push, "W001",
                "%s.%s pushes into a component-owned queue but never "
                "calls self.wake() -- lost wakeup if the component is "
                "asleep" % (cls.name, func.name),
                hint="add `%s` before the push (see "
                     "docs/LINT.md#wake-site)" % _GUARD,
            ))
        # W003: per-push-site reachability for timed sleepers.  A
        # component whose tick returns int deadlines sleeps until the
        # deadline unless wake() runs; an uncovered push site leaves
        # the work waiting on that deadline.
        if timed:
            for push in pushes:
                if not _wake_reachable_from(push, func):
                    findings.append(self.finding(
                        module, push, "W003",
                        "%s returns timed deadlines from tick() but "
                        "%s.%s has a push site with no reachable "
                        "self.wake() -- the sleeping component would "
                        "honour a stale deadline instead of seeing "
                        "this work" % (cls.name, cls.name, func.name),
                        hint="wake before the push (`%s`) or "
                             "unconditionally after it, before any "
                             "return (see docs/LINT.md#wake-site)"
                             % _GUARD,
                    ))
        return findings
