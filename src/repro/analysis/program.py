"""The shared core of the source-tree analyses (SRC, DET/CLU, DIM, RES).

* :class:`SourceTree` — the per-run source loader: every ``.py`` file
  under a root parsed once, unparseable files kept for ``SRC000``, and
  each analysis handed the ``(tree, location)`` pairs of its package
  scope.  :class:`~repro.analysis.context.AnalysisContext` owns one, so
  a :func:`~repro.analysis.api.run_passes` call parses each file once.
* :func:`dotted` and :func:`decorator_names` — the common AST helpers.
* :class:`Program` — the interprocedural skeleton of the DIM and RES
  engines: function collection, module-local-first call resolution, the
  capped fixpoint and the infer -> check -> sort run.  An engine adds
  its summary (a :class:`FunctionInfo` subclass), the key same-named
  definitions must agree on, and its per-function interpretation step.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from .findings import Finding

#: The simulator's own package root — what the source passes scan by default.
DEFAULT_SOURCE_ROOT = Path(__file__).resolve().parent.parent

#: fixpoint iteration cap; summaries stabilize in 2-3 rounds in practice
_MAX_ROUNDS = 5

#: One parsed module and its root-relative POSIX location.
Source = Tuple[ast.Module, str]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


# ---------------------------------------------------------------------------
# The source loader
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceFile:
    """One ``.py`` file: its parsed tree, or why it has none."""

    location: str
    tree: Optional[ast.Module] = None
    #: the parse/read failure when ``tree`` is ``None``, and its line
    error: Optional[Exception] = None
    error_line: int = 0


class SourceTree:
    """Every ``.py`` file under ``root``, each parsed exactly once.

    Parsing happens on first use, so a context whose passes never read
    source (the pre-run hook) pays nothing.  Files are read as bytes, so
    a coding cookie is honoured and undecodable bytes surface as a
    parse failure rather than an exception.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._files: Optional[List[SourceFile]] = None

    def _all_files(self) -> List[SourceFile]:
        if self._files is None:
            self._files = [self._load(path)
                           for path in sorted(self.root.rglob("*.py"))]
        return self._files

    def _load(self, path: Path) -> SourceFile:
        location = path.relative_to(self.root).as_posix()
        try:
            return SourceFile(location, tree=ast.parse(path.read_bytes()))
        except (OSError, SyntaxError, ValueError) as error:
            return SourceFile(location, error=error,
                              error_line=getattr(error, "lineno", 0) or 0)

    def files(self, packages: Sequence[str] = (),
              exclude: Sequence[str] = ()) -> List[SourceFile]:
        """The files in scope, parseable or not, in path order.

        ``packages`` names top-level package directories; when none of
        them exists under the root (a unit-test fixture tree) the whole
        tree is in scope.  ``exclude`` names file basenames to skip.
        """
        present = {name for name in packages
                   if (self.root / name).is_dir()}
        return [
            source for source in self._all_files()
            if (not present or source.location.split("/", 1)[0] in present)
            and source.location.rsplit("/", 1)[-1] not in exclude
        ]

    def modules(self, packages: Sequence[str] = (),
                exclude: Sequence[str] = ()) -> Iterator[Source]:
        """``(tree, location)`` for the parseable files in scope.

        Unparseable files are skipped; unit hygiene reports them as
        ``SRC000``.
        """
        for source in self.files(packages, exclude):
            if source.tree is not None:
                yield source.tree, source.location


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def dotted(node: ast.expr) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def decorator_names(node: FunctionNode) -> List[str]:
    """The bare names of a definition's decorators (``@a.b(...)`` -> ``b``)."""
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return names


# ---------------------------------------------------------------------------
# The interprocedural skeleton
# ---------------------------------------------------------------------------

@dataclass
class FunctionInfo:
    """One function definition; engines subclass it to add a summary."""

    name: str
    qualname: str
    module: str
    node: FunctionNode
    is_method: bool
    param_names: List[str]


F = TypeVar("F", bound=FunctionInfo)


@dataclass
class ModuleInfo(Generic[F]):
    """One parsed module and the functions defined in it."""

    location: str
    tree: ast.Module
    #: first definition per bare name (classes walked, nesting ignored)
    functions: Dict[str, F] = field(default_factory=dict)


class Program(Generic[F]):
    """Every function of a scanned tree plus the fixpoint over them.

    Subclasses implement :meth:`summary_key` and :meth:`interpret`.
    """

    def __init__(self, sources: Iterable[Source],
                 function_type: Type[F]) -> None:
        self.modules: List[ModuleInfo[F]] = []
        #: bare function name -> every definition carrying that name
        self.by_name: Dict[str, List[F]] = {}
        for tree, location in sources:
            module: ModuleInfo[F] = ModuleInfo(location, tree)
            self._collect_functions(module, tree.body, "", function_type)
            self.modules.append(module)

    def _collect_functions(self, module: ModuleInfo[F],
                           body: Iterable[ast.stmt], class_name: str,
                           function_type: Type[F]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._collect_functions(module, node.body, node.name,
                                        function_type)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = [*node.args.posonlyargs, *node.args.args]
                fn = function_type(
                    name=node.name,
                    qualname=(f"{class_name}.{node.name}"
                              if class_name else node.name),
                    module=module.location,
                    node=node,
                    is_method=(bool(class_name) and "staticmethod"
                               not in decorator_names(node)),
                    param_names=[p.arg for p in params],
                )
                module.functions.setdefault(node.name, fn)
                self.by_name.setdefault(node.name, []).append(fn)

    # -- engine hooks ------------------------------------------------------
    def summary_key(self, fn: F) -> object:
        """What same-named definitions must agree on to resolve as one."""
        raise NotImplementedError

    def interpret(self, module: ModuleInfo[F], fn: F, *,
                  collect: bool) -> List[Finding]:
        """Interpret one function body.

        With ``collect=False`` (inference) update ``fn``'s summary in
        place and return nothing; with ``collect=True`` (checking) leave
        summaries alone and return the findings.
        """
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------
    def resolve_call(self, module: ModuleInfo[F], name: str) -> Optional[F]:
        """The definition a call by bare name resolves to, if unambiguous.

        Module-local definitions win; otherwise a tree-wide unique name
        resolves, and several same-named definitions resolve (to the
        first) only when they agree on method-ness and summary key.
        """
        local = module.functions.get(name)
        if local is not None:
            return local
        candidates = self.by_name.get(name, [])
        if not candidates:
            return None
        first = candidates[0]
        key = (first.is_method, self.summary_key(first))
        if all((c.is_method, self.summary_key(c)) == key
               for c in candidates[1:]):
            return first
        return None

    def _functions(self) -> Iterator[Tuple[ModuleInfo[F], F]]:
        for module in self.modules:
            for fn in module.functions.values():
                yield module, fn

    def infer(self) -> None:
        """Iterate summaries until none changes (at most ``_MAX_ROUNDS``)."""
        for _ in range(_MAX_ROUNDS):
            changed = False
            for module, fn in self._functions():
                held = self.summary_key(fn)
                self.interpret(module, fn, collect=False)
                if self.summary_key(fn) != held:
                    changed = True
            if not changed:
                break

    def analyze(self) -> List[Finding]:
        """Infer summaries, then check every function; findings sorted."""
        self.infer()
        findings = [finding for module, fn in self._functions()
                    for finding in self.interpret(module, fn, collect=True)]
        findings.sort(key=lambda f: (f.location, f.code, f.message))
        return findings
