"""Tests for `repro lint` (src/repro/lint): the four checkers on fixture
snippets, the suppression/baseline machinery, and the acceptance bar --
the real tree lints clean, and deleting any single ``wake()`` call or
``enabled`` guard makes it fail."""

import json
import re
import textwrap

from repro.cli import main as cli_main
from repro.lint import Baseline, lint_paths, lint_sources, load_baseline
from repro.lint.determinism import DeterminismChecker
from repro.lint.hotclass import HOT_CLASSES, HotClassChecker
from repro.lint.runner import repo_root
from repro.lint.tracer_guard import TracerGuardChecker
from repro.lint.wake import WakeSiteChecker

REPO = repo_root()
SRC = REPO / "src" / "repro"


def _lint(path, source, checkers):
    return lint_sources({path: textwrap.dedent(source)}, checkers=checkers)


def _rules(result):
    return [f.rule for f in result.new]


# ---------------------------------------------------------------------------
# Wake-site checker (W001/W002) fixtures
# ---------------------------------------------------------------------------

WAKE_OK = """
    from repro.sim.engine import Component
    from repro.sim.queues import BoundedQueue

    class Thing(Component):
        def __init__(self):
            super().__init__("t")
            self.inbox = BoundedQueue(4, name="in")

        def deliver(self, item):
            if not self._slot.awake:
                self.wake()
            return self.inbox.push(item)
"""


class TestWakeChecker:
    def test_guarded_push_is_clean(self):
        result = _lint("src/repro/sim/fx.py", WAKE_OK, [WakeSiteChecker()])
        assert _rules(result) == []

    def test_push_without_wake_is_w001(self):
        source = WAKE_OK.replace(
            "if not self._slot.awake:\n                self.wake()\n"
            "            ", "")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert "W001" in _rules(result)

    def test_guard_without_wake_call_is_w002(self):
        source = WAKE_OK.replace("self.wake()", "pass")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert "W002" in _rules(result)

    def test_hoisted_record_guard_without_wake_is_w002(self):
        # The guard reads the flag through a local alias of the record.
        source = WAKE_OK.replace(
            "if not self._slot.awake:\n                self.wake()",
            "slot = self._slot\n            if not slot.awake:\n"
            "                pass")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert "W002" in _rules(result)

    def test_inlined_alias_push_is_seen(self):
        source = """
            from repro.sim.engine import Component
            from repro.sim.queues import BoundedQueue

            class Thing(Component):
                def __init__(self):
                    super().__init__("t")
                    self.inbox = BoundedQueue(4, name="in")

                def deliver(self, item):
                    queue = self.inbox
                    queue._items.append(item)
        """
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert "W001" in _rules(result)

    def test_container_of_queues_is_seen(self):
        source = """
            from repro.sim.engine import Component
            from repro.sim.queues import BandwidthLink

            class Links(Component):
                def __init__(self, n):
                    super().__init__("l")
                    self.links = [BandwidthLink(8) for _ in range(n)]

                def send(self, i, item):
                    self.links[i].push(item, 32)
        """
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert "W001" in _rules(result)

    def test_contract_and_private_methods_exempt(self):
        source = """
            from collections import deque
            from repro.sim.engine import Component

            class Thing(Component):
                def __init__(self):
                    super().__init__("t")
                    self._queue = deque()

                def tick(self, now):
                    self._queue.append(now)

                def _refill(self, item):
                    self._queue.append(item)
        """
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert _rules(result) == []

    def test_non_component_class_exempt(self):
        source = """
            from repro.sim.queues import BoundedQueue

            class Plain:
                def __init__(self):
                    self.inbox = BoundedQueue(4, name="in")

                def deliver(self, item):
                    return self.inbox.push(item)
        """
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert _rules(result) == []


#: A timed-wakeup component: tick() can return an int deadline, so its
#: ingress must have a wake reachable from every push site (W003).
TIMED_OK = """
    from repro.sim.engine import Component
    from repro.sim.queues import BoundedQueue

    class Timed(Component):
        def __init__(self):
            super().__init__("t")
            self.inbox = BoundedQueue(4, name="in")
            self._busy_until = 0

        def deliver(self, item):
            if not self._slot.awake:
                self.wake()
            return self.inbox.push(item)

        def tick(self, now):
            if self.inbox:
                return False
            deadline = self._busy_until
            return deadline if deadline > now + 1 else False
"""


class TestTimedWakeChecker:
    def test_guarded_push_in_timed_component_is_clean(self):
        result = _lint("src/repro/sim/fx.py", TIMED_OK,
                       [WakeSiteChecker()])
        assert _rules(result) == []

    def test_post_push_wake_before_any_return_is_clean(self):
        # The inlined-hot-path idiom (crossbar.inject): push first,
        # wake unconditionally before the method can return.
        source = TIMED_OK.replace(
            """def deliver(self, item):
            if not self._slot.awake:
                self.wake()
            return self.inbox.push(item)""",
            """def deliver(self, item):
            self.inbox._items.append(item)
            if not self._slot.awake:
                self.wake()
            return True""")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert _rules(result) == []

    def test_wake_behind_return_is_w003(self):
        # A wake exists (so W001 stays quiet) but an early return sits
        # between the push and the wake: the full-queue path delivers
        # without waking a timed sleeper.
        source = TIMED_OK.replace(
            """def deliver(self, item):
            if not self._slot.awake:
                self.wake()
            return self.inbox.push(item)""",
            """def deliver(self, item):
            ok = self.inbox.push(item)
            if not ok:
                return False
            self.wake()
            return True""")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        rules = _rules(result)
        assert "W003" in rules
        assert "W001" not in rules

    def test_missing_wake_in_timed_component_is_both_rules(self):
        source = TIMED_OK.replace(
            "if not self._slot.awake:\n                self.wake()\n"
            "            ", "")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        rules = _rules(result)
        assert "W001" in rules and "W003" in rules

    def test_untimed_component_is_exempt_from_w003(self):
        # Same wake-behind-return shape, but tick() only ever returns
        # a boolean verdict: W003 must not fire (W001's
        # presence-based approximation accepts the method).
        source = TIMED_OK.replace(
            """def deliver(self, item):
            if not self._slot.awake:
                self.wake()
            return self.inbox.push(item)""",
            """def deliver(self, item):
            ok = self.inbox.push(item)
            if not ok:
                return False
            self.wake()
            return True""").replace(
            """def tick(self, now):
            if self.inbox:
                return False
            deadline = self._busy_until
            return deadline if deadline > now + 1 else False""",
            """def tick(self, now):
            return not self.inbox""")
        result = _lint("src/repro/sim/fx.py", source, [WakeSiteChecker()])
        assert "W003" not in _rules(result)


# ---------------------------------------------------------------------------
# Tracer guard (T001) fixtures
# ---------------------------------------------------------------------------

class TestTracerGuardChecker:
    def test_unguarded_emit_is_t001(self):
        source = """
            class Hop:
                def transfer(self, now):
                    self.tracer.emit_hop(now, "a", "b")
        """
        result = _lint("src/repro/noc/fx.py", source,
                       [TracerGuardChecker()])
        assert "T001" in _rules(result)

    def test_direct_guard_is_clean(self):
        source = """
            class Hop:
                def transfer(self, now):
                    if self.tracer.enabled:
                        self.tracer.emit_hop(now, "a", "b")
        """
        result = _lint("src/repro/noc/fx.py", source,
                       [TracerGuardChecker()])
        assert _rules(result) == []

    def test_hoisted_alias_guard_is_clean(self):
        source = """
            class Hop:
                def transfer(self, now):
                    tracer = self.tracer
                    trace = tracer.enabled
                    for i in range(4):
                        if trace:
                            tracer.emit_hop(now, i, i + 1)
        """
        result = _lint("src/repro/noc/fx.py", source,
                       [TracerGuardChecker()])
        assert _rules(result) == []

    def test_compound_guard_is_clean(self):
        source = """
            class Hop:
                def send(self, now, accepted):
                    if accepted and self.tracer.enabled:
                        self.tracer.emit_hop(now, "a", "b")
        """
        result = _lint("src/repro/noc/fx.py", source,
                       [TracerGuardChecker()])
        assert _rules(result) == []

    def test_early_return_guard_is_clean(self):
        source = """
            class Hop:
                def transfer(self, now):
                    if not self.tracer.enabled:
                        return
                    self.tracer.emit_hop(now, "a", "b")
        """
        result = _lint("src/repro/noc/fx.py", source,
                       [TracerGuardChecker()])
        assert _rules(result) == []

    def test_obs_package_is_exempt(self):
        source = """
            class Tracer:
                def flush(self, now):
                    self.tracer.emit_hop(now, "a", "b")
        """
        result = _lint("src/repro/obs/fx.py", source,
                       [TracerGuardChecker()])
        assert _rules(result) == []


# ---------------------------------------------------------------------------
# Determinism (D001-D004) fixtures
# ---------------------------------------------------------------------------

class TestDeterminismChecker:
    def _lint(self, source, path="src/repro/mem/fx.py"):
        return _lint(path, source, [DeterminismChecker()])

    def test_wall_clock_is_d001(self):
        result = self._lint("""
            import time

            def stamp():
                return time.time()
        """)
        assert _rules(result) == ["D001"]

    def test_global_random_is_d002(self):
        result = self._lint("""
            import random

            def jitter():
                return random.random()
        """)
        assert _rules(result) == ["D002"]

    def test_seeded_rng_instance_is_clean(self):
        result = self._lint("""
            import random

            def make_rng(seed):
                return random.Random(seed)
        """)
        assert _rules(result) == []

    def test_id_sort_key_is_d003(self):
        result = self._lint("""
            def order(objs):
                return sorted(objs, key=lambda o: id(o))
        """)
        assert _rules(result) == ["D003"]

    def test_id_equality_is_clean(self):
        result = self._lint("""
            def same(a, b):
                return id(a) == id(b)
        """)
        assert _rules(result) == []

    def test_set_iteration_is_d004(self):
        result = self._lint("""
            def drain(items):
                pending = set(items)
                for item in pending:
                    yield item
        """)
        assert _rules(result) == ["D004"]

    def test_sorted_set_iteration_is_clean(self):
        result = self._lint("""
            def drain(items):
                pending = set(items)
                for item in sorted(pending):
                    yield item
        """)
        assert _rules(result) == []

    def test_comprehension_feeding_sorted_is_clean(self):
        # the sanctioned fix pattern from sm/coalescer.py
        result = self._lint("""
            def lines(addrs):
                unique = {a // 128 for a in addrs}
                return sorted((line // 32, line % 32) for line in unique)
        """)
        assert _rules(result) == []

    def test_dict_iteration_is_clean(self):
        result = self._lint("""
            def drain(table):
                for key in table:
                    yield key
        """)
        assert _rules(result) == []

    def test_out_of_scope_package_is_exempt(self):
        result = self._lint("""
            import time

            def stamp():
                return time.time()
        """, path="src/repro/service/fx.py")
        assert _rules(result) == []


# ---------------------------------------------------------------------------
# Hot-class checker (H001-H003) fixtures
# ---------------------------------------------------------------------------

class TestHotClassChecker:
    REGISTRY = ("repro.sim.fx:Hot",)

    def _lint(self, source):
        return _lint("src/repro/sim/fx.py", source,
                     [HotClassChecker(registry=self.REGISTRY)])

    def test_slotted_class_is_clean(self):
        result = self._lint("""
            class Hot:
                __slots__ = ("a", "b")

                def __init__(self):
                    self.a = 0
                    self.b = 0

                def bump(self):
                    self.a += 1
        """)
        assert _rules(result) == []

    def test_missing_slots_is_h001(self):
        result = self._lint("""
            class Hot:
                def __init__(self):
                    self.a = 0
        """)
        assert _rules(result) == ["H001"]

    def test_dataclass_is_exempt_from_h001(self):
        result = self._lint("""
            from dataclasses import dataclass

            @dataclass
            class Hot:
                a: int = 0
        """)
        assert _rules(result) == []

    def test_attr_outside_init_is_h002(self):
        result = self._lint("""
            class Hot:
                __slots__ = ("a", "b")

                def __init__(self):
                    self.a = 0

                def lazy(self):
                    self.b = 1
                    self.c = 2
        """)
        # self.b is in __slots__ (declared, late-initialised): allowed.
        # self.c is a new attribute: flagged.
        findings = [f for f in result.new if f.rule == "H002"]
        assert len(findings) == 1
        assert "self.c" in findings[0].message

    def test_missing_class_is_h003(self):
        result = self._lint("""
            class Cold:
                __slots__ = ()
        """)
        assert _rules(result) == ["H003"]

    def test_real_registry_entries_all_resolve(self):
        import importlib

        assert len(HOT_CLASSES) == 14
        for entry in HOT_CLASSES:
            mod_name, _, cls_name = entry.partition(":")
            module = importlib.import_module(mod_name)
            assert hasattr(module, cls_name), entry


# ---------------------------------------------------------------------------
# Suppressions and baseline
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_inline_disable_comment(self):
        source = """
            import time

            def stamp():
                return time.time()  # lint: disable=D001
        """
        result = _lint("src/repro/mem/fx.py", source,
                       [DeterminismChecker()])
        assert _rules(result) == []
        assert [f.rule for f in result.suppressed] == ["D001"]

    def test_inline_disable_wrong_rule_does_not_suppress(self):
        source = """
            import time

            def stamp():
                return time.time()  # lint: disable=D004
        """
        result = _lint("src/repro/mem/fx.py", source,
                       [DeterminismChecker()])
        assert _rules(result) == ["D001"]

    def test_baseline_match_moves_finding(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        probe = lint_sources({"src/repro/mem/fx.py":
                              textwrap.dedent(source)},
                             checkers=[DeterminismChecker()])
        entry = probe.new[0].as_dict()
        entry["note"] = "fixture: intentional for the test"
        del entry["line"], entry["hint"]
        baseline = Baseline([entry])
        result = lint_sources({"src/repro/mem/fx.py":
                               textwrap.dedent(source)},
                              checkers=[DeterminismChecker()],
                              baseline=baseline)
        assert result.new == []
        assert [f.rule for f in result.baselined] == ["D001"]

    def test_baseline_entry_without_note_is_b001(self):
        baseline = Baseline([{"rule": "D001", "path": "src/repro/mem/fx.py",
                              "scope": "stamp", "message": "whatever",
                              "note": ""}])
        result = lint_sources({}, checkers=[], baseline=baseline)
        assert sorted(_rules(result)) == ["B001", "B002"]

    def test_unused_baseline_entry_is_b002(self):
        baseline = Baseline([{"rule": "D001", "path": "gone.py",
                              "scope": "stamp", "message": "whatever",
                              "note": "justified once, code since fixed"}])
        result = lint_sources({}, checkers=[], baseline=baseline)
        assert _rules(result) == ["B002"]

    def test_syntax_error_is_e000(self):
        result = lint_sources({"src/repro/sim/bad.py": "def broken(:\n"})
        assert _rules(result) == ["E000"]


# ---------------------------------------------------------------------------
# Acceptance: the real tree
# ---------------------------------------------------------------------------

class TestRealTree:
    def test_repo_lints_clean(self):
        baseline = load_baseline(REPO / "lint-baseline.json")
        result = lint_paths(None, baseline=baseline)
        assert result.new == [], "\n".join(
            f.render() for f in result.new)
        assert result.files >= 90

    def test_deleting_any_wake_call_fails_lint(self):
        sites = 0
        for path in sorted(SRC.rglob("*.py")):
            parts = path.relative_to(SRC).parts
            if parts[0] in ("obs", "lint"):
                continue
            source = path.read_text(encoding="utf-8")
            rel = path.relative_to(REPO).as_posix()
            for match in re.finditer(r"self\.wake\(\)", source):
                mutated = (source[:match.start()] + "pass"
                           + source[match.end():])
                result = lint_sources({rel: mutated},
                                      checkers=[WakeSiteChecker()])
                assert any(f.rule in ("W001", "W002")
                           for f in result.new), (rel, match.start())
                sites += 1
        assert sites >= 13  # today: 13 hand-paired wake sites

    def test_deleting_wake_in_timed_components_raises_w003(self):
        """Every detectable push site in a timed-wakeup component must
        lose its wake coverage when the wake call is deleted."""
        timed_files = (
            "sm/core.py", "mem/controller.py", "noc/crossbar.py",
            "noc/p2p.py", "cache/llc_slice.py", "core/mcm.py",
        )
        w003_sites = 0
        for name in timed_files:
            path = SRC / name
            source = path.read_text(encoding="utf-8")
            rel = path.relative_to(REPO).as_posix()
            for match in re.finditer(r"self\.wake\(\)", source):
                mutated = (source[:match.start()] + "pass"
                           + source[match.end():])
                result = lint_sources({rel: mutated},
                                      checkers=[WakeSiteChecker()])
                assert any(f.rule in ("W001", "W002", "W003")
                           for f in result.new), (rel, match.start())
                if any(f.rule == "W003" for f in result.new):
                    w003_sites += 1
        # The per-site rule must actually bite on the real ingress
        # methods, not just the fixtures.
        assert w003_sites >= 6

    def test_deleting_any_enabled_guard_fails_lint(self):
        sites = 0
        for path in sorted(SRC.rglob("*.py")):
            parts = path.relative_to(SRC).parts
            if parts[0] in ("obs", "lint"):
                continue
            source = path.read_text(encoding="utf-8")
            rel = path.relative_to(REPO).as_posix()
            for match in re.finditer(r"(?:self\.)?tracer\.enabled",
                                     source):
                mutated = (source[:match.start()] + "True"
                           + source[match.end():])
                result = lint_sources({rel: mutated},
                                      checkers=[TracerGuardChecker()])
                assert any(f.rule == "T001" for f in result.new), (
                    rel, match.start())
                sites += 1
        assert sites >= 8

    def test_removing_slots_fails_hot_class_check(self):
        rel = "src/repro/sim/queues.py"
        source = (REPO / rel).read_text(encoding="utf-8")
        mutated = source.replace("__slots__ = ", "_unslotted = ")
        result = lint_sources({rel: mutated},
                              checkers=[HotClassChecker()])
        assert any(f.rule == "H001" for f in result.new)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestLintCLI:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        code = cli_main(["lint", "--json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["counts"]["files"] >= 90
        assert payload["findings"] == []
        # stdout carries the same report
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["ok"] is True

    def test_single_path_and_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "mem" / "fx.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\n"
                       "def stamp():\n"
                       "    return time.time()\n", encoding="utf-8")
        code = cli_main(["lint", str(bad)])
        assert code == 1
        assert "D001" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("W001", "W002", "T001",
                     "D001", "D004", "H001", "H002", "B001"):
            assert rule in out
