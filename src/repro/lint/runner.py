"""Run all checkers over a file set and fold in suppressions/baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline
from repro.lint.core import Checker, Finding, LintModule, iter_source_files
from repro.lint.determinism import DeterminismChecker
from repro.lint.hotclass import HotClassChecker
from repro.lint.tracer_guard import TracerGuardChecker
from repro.lint.wake import WakeSiteChecker


def default_checkers() -> List[Checker]:
    """Fresh instances of the four standard checkers."""
    return [
        WakeSiteChecker(),
        TracerGuardChecker(),
        DeterminismChecker(),
        HotClassChecker(),
    ]


ALL_CHECKERS = default_checkers


@dataclass
class LintResult:
    """Outcome of one lint run."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.new

    def counts(self) -> Dict[str, int]:
        """Summary counters for reports."""
        return {
            "files": self.files,
            "new": len(self.new),
            "baselined": len(self.baselined),
            "suppressed": len(self.suppressed),
        }


def repo_root() -> Path:
    """Repo root inferred from this package's location (src/repro/lint)."""
    return Path(__file__).resolve().parents[3]


def default_lint_root() -> Path:
    """Default lint target: the installed ``repro`` package sources."""
    return Path(__file__).resolve().parents[1]   # src/repro


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def load_modules(paths: Optional[Sequence[str]] = None
                 ) -> Tuple[Dict[str, LintModule], List[Finding]]:
    """Parse the file set; syntax errors become E000 findings."""
    root = repo_root()
    files: List[Tuple[Path, str]] = []
    if not paths:
        base = default_lint_root()
        files = [(p, _rel_path(p, root)) for p in iter_source_files(base)]
    else:
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                files.extend((f, _rel_path(f, root))
                             for f in iter_source_files(p))
            else:
                files.append((p, _rel_path(p, root)))
    modules: Dict[str, LintModule] = {}
    errors: List[Finding] = []
    for path, rel in files:
        try:
            module = LintModule.from_file(path, rel)
        except SyntaxError as exc:
            errors.append(Finding(
                rule="E000", path=rel, line=exc.lineno or 1,
                scope="<module>",
                message="syntax error: %s" % exc.msg,
            ))
            continue
        modules[module.module_name] = module
    return modules, errors


def lint_modules(modules: Dict[str, LintModule],
                 checkers: Optional[Sequence[Checker]] = None,
                 baseline: Optional[Baseline] = None,
                 parse_errors: Optional[List[Finding]] = None) -> LintResult:
    """Run *checkers* over parsed modules and fold in suppressions."""
    checkers = list(checkers) if checkers is not None else default_checkers()
    raw: List[Finding] = list(parse_errors or [])
    suppressed: List[Finding] = []
    for checker in checkers:
        project_check = getattr(checker, "check_project", None)
        if project_check is not None and len(modules) > 1:
            raw.extend(project_check(modules))
        else:
            for module in modules.values():
                raw.extend(checker.check_module(module))
    kept: List[Finding] = []
    for finding in raw:
        module = _module_for(modules, finding.path)
        if module is not None and module.is_suppressed(finding):
            suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    baseline = baseline or Baseline()
    new, baselined, health = baseline.split(kept)
    new.extend(health)
    return LintResult(new=new, baselined=baselined,
                      suppressed=suppressed, files=len(modules))


def _module_for(modules: Dict[str, LintModule],
                path: str) -> Optional[LintModule]:
    for module in modules.values():
        if module.path == path:
            return module
    return None


def lint_paths(paths: Optional[Sequence[str]] = None,
               checkers: Optional[Sequence[Checker]] = None,
               baseline: Optional[Baseline] = None) -> LintResult:
    """Lint files/directories (default: all of ``src/repro``)."""
    modules, errors = load_modules(paths)
    return lint_modules(modules, checkers=checkers, baseline=baseline,
                        parse_errors=errors)


def lint_sources(sources: Dict[str, str],
                 checkers: Optional[Sequence[Checker]] = None,
                 baseline: Optional[Baseline] = None) -> LintResult:
    """Lint in-memory sources (path -> code).  Test/fixture entry point."""
    modules: Dict[str, LintModule] = {}
    errors: List[Finding] = []
    for path, source in sources.items():
        try:
            module = LintModule.from_source(path, source)
        except SyntaxError as exc:
            errors.append(Finding(
                rule="E000", path=path, line=exc.lineno or 1,
                scope="<module>",
                message="syntax error: %s" % exc.msg,
            ))
            continue
        modules[module.module_name] = module
    return lint_modules(modules, checkers=checkers, baseline=baseline,
                        parse_errors=errors)
