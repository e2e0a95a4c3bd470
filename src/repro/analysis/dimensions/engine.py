"""The dimensional abstract interpreter.

:class:`DimensionProgram` parameterizes the shared skeleton
(:class:`repro.analysis.program.Program`) with dimension summaries; its
three phases run over every module in scope:

1. **Collection** — harvest every function and class of the parsed
   modules: parameter/return dimensions from unit annotations
   (``Bytes``/``Seconds``/... — see :mod:`~repro.analysis.dimensions.
   stubs`), annotated dataclass fields, properties, and each module's
   import map for :mod:`repro.units` names.
2. **Fixpoint inference** — functions without a declared return
   dimension get one inferred by abstract interpretation of their body
   (the join of their return expressions), iterated until no summary
   changes.  This is what makes the analysis *interprocedural*: an
   unannotated helper that returns ``num_bytes / self.bandwidth``
   carries ``s`` into every caller.
3. **Checking** — re-interpret every function body with findings
   enabled: add/sub and comparisons require equal dimensions, calls are
   checked against summaries, unit stubs, and sink contracts, returns
   against declared dimensions.

The interpreter is flow-sensitive (an environment of variable -> Dim
maps through straight-line code; branches are analyzed separately and
joined) and deliberately conservative: a finding is only emitted when
*both* sides of an operation carry a known, non-dimensionless dimension
and those dimensions disagree.  ``unknown`` and bare numeric literals
never flag — the engine's job is catching unit algebra that is provably
wrong, not demanding annotations everywhere.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .. import program as shared
from ..findings import Finding, Severity
from ..program import Source, SourceTree, decorator_names, dotted
from .lattice import DIMENSIONLESS, TIME, UNKNOWN, Dim
from .stubs import (
    ANNOTATION_DIMS,
    COUNTER_UNITS,
    SINK_CONTRACTS,
    UNITS_CONSTANTS,
    UNITS_FUNCTIONS,
)

PASS_NAME = "dim-flow"

#: packages under the source root whose arithmetic is in scope; a root
#: containing none of them (a unit-test fixture tree) is scanned whole.
DIM_PACKAGES = (
    "sim", "runtime", "collectives", "parallel", "hardware", "model",
    "telemetry", "trace", "faults",
)

#: builtins whose result carries the (joined) dimension of their args
_PASS_THROUGH_BUILTINS = frozenset({"abs", "float", "round", "int"})

#: folds whose result carries the dimension of the folded elements
_FOLD_BUILTINS = frozenset({"sum", "min", "max", "sorted"})


@dataclass
class FunctionInfo(shared.FunctionInfo):
    """Interprocedural summary of one function definition."""

    param_dims: Dict[str, Dim] = field(init=False)
    declared_return: Optional[Dim] = field(init=False)
    is_property: bool = field(init=False)
    inferred_return: Dim = UNKNOWN

    def __post_init__(self) -> None:
        args = self.node.args
        self.param_dims = {}
        for param in [*args.posonlyargs, *args.args]:
            dim = _annotation_to_dim(param.annotation)
            if dim is not None:
                self.param_dims[param.arg] = dim
        self.declared_return = _annotation_to_dim(self.node.returns)
        decorators = decorator_names(self.node)
        self.is_property = ("property" in decorators
                            or "cached_property" in decorators)

    @property
    def return_dim(self) -> Dim:
        if self.declared_return is not None:
            return self.declared_return
        return self.inferred_return


ModuleInfo = shared.ModuleInfo[FunctionInfo]


@dataclass
class UnitsImports:
    """How one module spells :mod:`repro.units`."""

    #: local names bound to the :mod:`repro.units` module object
    aliases: List[str] = field(default_factory=list)
    #: local name -> units member name (``from ..units import GB as G``)
    members: Dict[str, str] = field(default_factory=dict)


def _annotation_to_dim(node: Optional[ast.expr]) -> Optional[Dim]:
    """The dimension an AST annotation denotes, or ``None``.

    Understands bare aliases (``Bytes``), dotted spellings
    (``units.Bytes``), string annotations, and ``Optional[Bytes]``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ANNOTATION_DIMS.get(node.value.rsplit(".", 1)[-1])
    if isinstance(node, ast.Name):
        return ANNOTATION_DIMS.get(node.id)
    if isinstance(node, ast.Attribute):
        return ANNOTATION_DIMS.get(node.attr)
    if isinstance(node, ast.Subscript):
        # Optional[Bytes] / Final[Seconds]: look inside one level.
        inner = node.slice
        if isinstance(inner, ast.Index):  # pragma: no cover - py3.8 only
            inner = inner.value  # type: ignore[attr-defined]
        return _annotation_to_dim(inner)
    return None


def _units_imports(tree: ast.Module) -> UnitsImports:
    imports = UnitsImports()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "units" or module.endswith(".units"):
                for alias in node.names:
                    imports.members[alias.asname or alias.name] = alias.name
            else:
                for alias in node.names:
                    if alias.name == "units":
                        imports.aliases.append(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "units" or alias.name.endswith(".units"):
                    imports.aliases.append(
                        alias.asname or alias.name.split(".")[0])
    return imports


class DimensionProgram(shared.Program[FunctionInfo]):
    """The scanned tree plus dimension summaries and attribute dims."""

    def __init__(self, sources: Iterable[Source]) -> None:
        #: attribute name -> dimension, from annotated class fields and
        #: properties; names whose definitions disagree are dropped.
        self.attr_dims: Dict[str, Dim] = {}
        self._attr_conflicts: set = set()
        super().__init__(sources, FunctionInfo)
        #: module location -> its units-import resolution map
        self.units = {module.location: _units_imports(module.tree)
                      for module in self.modules}
        for definitions in self.by_name.values():
            for fn in definitions:
                if fn.is_property and fn.declared_return is not None:
                    self._note_attr(fn.name, fn.declared_return)
        for module in self.modules:
            self._collect_class_fields(module.tree)

    def _collect_class_fields(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                dim = _annotation_to_dim(stmt.annotation)
                if dim is None:
                    continue
                # Class-level fields (dataclasses) and annotated instance
                # attributes (``self.now: Seconds = 0.0``) both count.
                if isinstance(stmt.target, ast.Name):
                    self._note_attr(stmt.target.id, dim)
                elif (isinstance(stmt.target, ast.Attribute)
                      and isinstance(stmt.target.value, ast.Name)
                      and stmt.target.value.id == "self"):
                    self._note_attr(stmt.target.attr, dim)

    def _note_attr(self, name: str, dim: Dim) -> None:
        if not dim.known or name in self._attr_conflicts:
            return
        held = self.attr_dims.get(name)
        if held is None:
            self.attr_dims[name] = dim
        elif held != dim:
            del self.attr_dims[name]
            self._attr_conflicts.add(name)

    def summary_key(self, fn: FunctionInfo) -> object:
        # Arguments are checked against the first of several same-named
        # definitions, so they must agree on parameters as well.
        return (fn.return_dim, fn.param_dims, fn.param_names)

    def interpret(self, module: ModuleInfo, fn: FunctionInfo, *,
                  collect: bool) -> List[Finding]:
        if fn.declared_return is not None and not collect:
            return []  # nothing to infer
        interp = _Interpreter(self, module, fn, collect=collect)
        inferred = interp.run()
        if not collect and inferred != fn.inferred_return:
            fn.inferred_return = inferred
            if fn.is_property:
                self._note_attr(fn.name, inferred)
        return interp.findings


class _Interpreter:
    """Abstract interpretation of one function body."""

    def __init__(self, program: DimensionProgram, module: ModuleInfo,
                 fn: FunctionInfo, *, collect: bool) -> None:
        self.program = program
        self.module = module
        self.units = program.units[module.location]
        self.fn = fn
        self.collect = collect
        self.findings: List[Finding] = []
        self.return_dim: Optional[Dim] = None

    # -- entry point -------------------------------------------------------
    def run(self) -> Dim:
        env: Dict[str, Dim] = {}
        args = self.fn.node.args
        for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            env[param.arg] = self.fn.param_dims.get(param.arg, UNKNOWN)
        self._exec_block(self.fn.node.body, env)
        return self.return_dim if self.return_dim is not None else UNKNOWN

    # -- findings ----------------------------------------------------------
    def _emit(self, severity: Severity, code: str, message: str,
              line: int) -> None:
        if not self.collect:
            return
        self.findings.append(Finding(
            PASS_NAME, severity, code, message,
            subject=self.fn.qualname,
            location=f"{self.module.location}:{line}",
        ))

    # -- statements --------------------------------------------------------
    def _exec_block(self, body: Iterable[ast.stmt],
                    env: Dict[str, Dim]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: Dict[str, Dim]) -> None:
        if isinstance(stmt, ast.Assign):
            dim = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, dim, env, value=stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            declared = _annotation_to_dim(stmt.annotation)
            dim = (self._eval(stmt.value, env)
                   if stmt.value is not None else UNKNOWN)
            if declared is not None:
                if (stmt.value is not None and dim.known
                        and not dim.is_dimensionless
                        and not dim.compatible(declared)):
                    self._emit(
                        Severity.ERROR, "DIM001",
                        f"assigning {dim} to a variable annotated {declared}",
                        stmt.lineno,
                    )
                dim = declared
            self._bind(stmt.target, dim, env, value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            target_dim = self._lookup_target(stmt.target, env)
            value_dim = self._eval(stmt.value, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_additive(target_dim, value_dim, stmt.lineno,
                                     verb="augmented-assigns")
                result = target_dim.join(value_dim) \
                    if target_dim.compatible(value_dim) else UNKNOWN
            elif isinstance(stmt.op, ast.Mult):
                result = target_dim.mul(value_dim)
            elif isinstance(stmt.op, (ast.Div, ast.FloorDiv)):
                result = target_dim.div(value_dim)
            else:
                result = UNKNOWN
            self._bind(stmt.target, result, env)
        elif isinstance(stmt, ast.Return):
            dim = (self._eval(stmt.value, env)
                   if stmt.value is not None else DIMENSIONLESS)
            declared = self.fn.declared_return
            if (declared is not None and stmt.value is not None
                    and dim.known and not dim.is_dimensionless
                    and not dim.compatible(declared)):
                self._emit(
                    Severity.ERROR, "DIM005",
                    f"{self.fn.qualname}() is annotated to return "
                    f"{declared} but returns {dim}",
                    stmt.lineno,
                )
            if stmt.value is not None:
                self.return_dim = (dim if self.return_dim is None
                                   else self.return_dim.join(dim))
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            self._merge_into(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._element_dim(stmt.iter, env), env)
            self._eval(stmt.iter, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge_into(env, body_env, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge_into(env, body_env, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, UNKNOWN, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name:
                    handler_env[handler.name] = UNKNOWN
                self._exec_block(handler.body, handler_env)
                self._merge_into(env, handler_env, env)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested definitions are analyzed on their own
        # pass/break/continue/import/global/del: nothing to track

    def _merge_into(self, env: Dict[str, Dim], a: Dict[str, Dim],
                    b: Dict[str, Dim]) -> None:
        for key in set(a) | set(b):
            left = a.get(key, UNKNOWN)
            right = b.get(key, UNKNOWN)
            env[key] = left.join(right)

    def _bind(self, target: ast.expr, dim: Dim, env: Dict[str, Dim],
              value: Optional[ast.expr] = None) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = dim
        elif isinstance(target, ast.Attribute):
            path = dotted(target)
            if path:
                env[path] = dim
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements: List[Optional[ast.expr]]
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                elements = list(value.elts)
            else:
                elements = [None] * len(target.elts)
            for sub_target, sub_value in zip(target.elts, elements):
                sub_dim = self._last_eval.get(id(sub_value), UNKNOWN) \
                    if sub_value is not None else UNKNOWN
                self._bind(sub_target, sub_dim, env)

    def _lookup_target(self, target: ast.expr, env: Dict[str, Dim]) -> Dim:
        if isinstance(target, ast.Name):
            return env.get(target.id, UNKNOWN)
        if isinstance(target, ast.Attribute):
            return self._attribute_dim(target, env)
        return UNKNOWN

    def _element_dim(self, iterable: ast.expr, env: Dict[str, Dim]) -> Dim:
        """Dimension of the loop variable for ``for x in iterable``."""
        if isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id == "range":
            return DIMENSIONLESS
        return UNKNOWN

    # -- expressions -------------------------------------------------------
    #: side table so tuple-unpacking can reuse sub-expression dims
    _last_eval: Dict[int, Dim] = {}

    def _eval(self, node: Optional[ast.expr], env: Dict[str, Dim]) -> Dim:
        if node is None:
            return UNKNOWN
        dim = self._eval_inner(node, env)
        if len(self._last_eval) > 4096:
            self._last_eval.clear()
        self._last_eval[id(node)] = dim
        return dim

    def _eval_inner(self, node: ast.expr, env: Dict[str, Dim]) -> Dim:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None or \
                    isinstance(node.value, str):
                return UNKNOWN
            if isinstance(node.value, (int, float)):
                return DIMENSIONLESS
            return UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            member = self.units.members.get(node.id)
            if member is not None and member in UNITS_CONSTANTS:
                return UNITS_CONSTANTS[member]
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._attribute_dim(node, env)
        if isinstance(node, ast.BinOp):
            return self._binop_dim(node, env)
        if isinstance(node, ast.UnaryOp):
            inner = self._eval(node.operand, env)
            return inner if isinstance(node.op, (ast.USub, ast.UAdd)) \
                else UNKNOWN
        if isinstance(node, ast.Compare):
            return self._compare_dim(node, env)
        if isinstance(node, ast.Call):
            return self._call_dim(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return self._eval(node.body, env).join(
                self._eval(node.orelse, env))
        if isinstance(node, ast.BoolOp):
            dims = [self._eval(value, env) for value in node.values]
            result = dims[0]
            for dim in dims[1:]:
                result = result.join(dim)
            return result
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension_dim(node, env)
        if isinstance(node, ast.Subscript):
            self._eval(node.value, env)
            if isinstance(node.slice, ast.expr):
                self._eval(node.slice, env)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            dim = self._eval(node.value, env)
            self._bind(node.target, dim, env)
            return dim
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, env)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        return UNKNOWN

    def _comprehension_dim(self, node: ast.expr,
                           env: Dict[str, Dim]) -> Dim:
        comp_env = dict(env)
        for generator in node.generators:  # type: ignore[attr-defined]
            self._eval(generator.iter, comp_env)
            self._bind(generator.target,
                       self._element_dim(generator.iter, comp_env), comp_env)
            for condition in generator.ifs:
                self._eval(condition, comp_env)
        if isinstance(node, ast.DictComp):
            self._eval(node.key, comp_env)
            self._eval(node.value, comp_env)
            return UNKNOWN
        return self._eval(node.elt, comp_env)  # type: ignore[attr-defined]

    def _attribute_dim(self, node: ast.Attribute,
                       env: Dict[str, Dim]) -> Dim:
        path = dotted(node)
        if path and path in env:
            return env[path]
        root = path.split(".", 1)[0] if path else ""
        if root in self.units.aliases:
            member = path.split(".", 1)[1] if "." in path else ""
            if member in UNITS_CONSTANTS:
                return UNITS_CONSTANTS[member]
            return UNKNOWN
        self._eval_receiver(node, env)
        return self.program.attr_dims.get(node.attr, UNKNOWN)

    def _eval_receiver(self, node: ast.Attribute,
                       env: Dict[str, Dim]) -> None:
        # Evaluate the receiver expression for findings, but only when it
        # is itself compound (a bare name receiver has nothing to check).
        if not isinstance(node.value, (ast.Name, ast.Attribute)):
            self._eval(node.value, env)

    def _binop_dim(self, node: ast.BinOp, env: Dict[str, Dim]) -> Dim:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if isinstance(node.op, ast.Mult):
            return left.mul(right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return left.div(right)
        if isinstance(node.op, ast.Mod):
            return left
        if isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) and \
                    isinstance(node.right.value, int):
                return left.pow(node.right.value)
            return UNKNOWN
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_additive(left, right, node.lineno, verb="combines")
            if left.compatible(right):
                return left.join(right) if not left.scale_conflict(right) \
                    else Dim(left.exps)
            return UNKNOWN
        return UNKNOWN

    def _check_additive(self, left: Dim, right: Dim, line: int, *,
                        verb: str) -> None:
        if not left.compatible(right):
            if left.is_dimensionless or right.is_dimensionless:
                return  # adding a literal offset: not provably wrong
            self._emit(
                Severity.ERROR, "DIM001",
                f"{verb} {left} with {right}; addition/subtraction "
                f"requires equal dimensions",
                line,
            )
        elif left.scale_conflict(right):
            self._emit(
                Severity.WARNING, "DIM003",
                f"{verb} decimal-scaled (GB) and binary-scaled (GiB) "
                f"byte quantities; these differ by 7 % per power of 1000",
                line,
            )

    def _compare_dim(self, node: ast.Compare, env: Dict[str, Dim]) -> Dim:
        operands = [node.left, *node.comparators]
        dims = [self._eval(operand, env) for operand in operands]
        for op, (left, right) in zip(node.ops, zip(dims, dims[1:])):
            if isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)):
                continue
            if not left.compatible(right):
                if left.is_dimensionless or right.is_dimensionless:
                    continue
                self._emit(
                    Severity.ERROR, "DIM002",
                    f"comparing {left} with {right}; a comparison "
                    f"requires equal dimensions",
                    node.lineno,
                )
            elif left.scale_conflict(right):
                self._emit(
                    Severity.WARNING, "DIM003",
                    "comparing decimal-scaled (GB) against binary-scaled "
                    "(GiB) byte quantities; these differ by 7 % per "
                    "power of 1000",
                    node.lineno,
                )
        return DIMENSIONLESS

    # -- calls -------------------------------------------------------------
    def _call_dim(self, node: ast.Call, env: Dict[str, Dim]) -> Dim:
        arg_dims = [self._eval(arg, env) for arg in node.args]
        kwarg_dims = {kw.arg: self._eval(kw.value, env)
                      for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value, env)

        func = node.func
        if isinstance(func, ast.Name):
            return self._name_call_dim(node, func.id, arg_dims, kwarg_dims)
        if isinstance(func, ast.Attribute):
            self._eval_receiver(func, env)
            return self._method_call_dim(node, func, arg_dims, kwarg_dims,
                                         env)
        self._eval(func, env)
        return UNKNOWN

    def _name_call_dim(self, node: ast.Call, name: str,
                       arg_dims: List[Dim],
                       kwarg_dims: Dict[str, Dim]) -> Dim:
        member = self.units.members.get(name)
        if member is not None and member in UNITS_FUNCTIONS:
            return self._check_units_fn(node, member, arg_dims)
        if name in _PASS_THROUGH_BUILTINS and len(arg_dims) == 1:
            return arg_dims[0]
        if name in _FOLD_BUILTINS and node.args:
            folded = arg_dims[0]
            for dim in arg_dims[1:]:
                folded = folded.join(dim)
            return folded
        if name == "len" or name == "range":
            return DIMENSIONLESS
        if name == "CounterTrack":
            self._check_counter_track(node, kwarg_dims)
            return UNKNOWN
        resolved = self.program.resolve_call(self.module, name)
        if resolved is not None and not resolved.is_method:
            self._check_resolved_args(node, resolved, arg_dims, kwarg_dims,
                                      offset=0)
            return resolved.return_dim
        return UNKNOWN

    def _method_call_dim(self, node: ast.Call, func: ast.Attribute,
                         arg_dims: List[Dim], kwarg_dims: Dict[str, Dim],
                         env: Dict[str, Dim]) -> Dim:
        name = func.attr
        root = dotted(func).split(".", 1)[0]
        if root in self.units.aliases and name in UNITS_FUNCTIONS:
            return self._check_units_fn(node, name, arg_dims)
        contract = SINK_CONTRACTS.get(name)
        if contract is not None:
            params, return_dim, (lo, hi) = contract
            if lo <= len(node.args) <= hi:
                for index, (expected, got) in enumerate(
                        zip(params, arg_dims)):
                    if expected is None:
                        continue
                    if got.known and not got.is_dimensionless and \
                            not got.compatible(expected):
                        self._emit(
                            Severity.ERROR, "DIM006",
                            f".{name}() expects {expected} for argument "
                            f"{index + 1}, got {got}",
                            node.lineno,
                        )
                return return_dim
        resolved = self.program.resolve_call(self.module, name)
        if resolved is not None:
            offset = 1 if resolved.is_method else 0
            self._check_resolved_args(node, resolved, arg_dims, kwarg_dims,
                                      offset=offset)
            return resolved.return_dim
        return UNKNOWN

    def _check_units_fn(self, node: ast.Call, name: str,
                        arg_dims: List[Dim]) -> Dim:
        params, return_dim = UNITS_FUNCTIONS[name]
        for index, (expected, got) in enumerate(zip(params, arg_dims)):
            if got.known and not got.is_dimensionless and \
                    not got.compatible(expected):
                self._emit(
                    Severity.ERROR, "DIM004",
                    f"units.{name}() expects {expected}, got {got}",
                    node.lineno,
                )
        return return_dim

    def _check_resolved_args(self, node: ast.Call, fn: FunctionInfo,
                             arg_dims: List[Dim],
                             kwarg_dims: Dict[str, Dim],
                             offset: int) -> None:
        names = fn.param_names[offset:]
        for index, got in enumerate(arg_dims):
            if index >= len(names):
                break
            expected = fn.param_dims.get(names[index])
            if expected is None:
                continue
            if got.known and not got.is_dimensionless and \
                    not got.compatible(expected):
                self._emit(
                    Severity.ERROR, "DIM004",
                    f"{fn.qualname}() expects {expected} for "
                    f"{names[index]!r}, got {got}",
                    node.lineno,
                )
        for keyword, got in kwarg_dims.items():
            expected = fn.param_dims.get(keyword)
            if expected is None or keyword not in names:
                continue
            if got.known and not got.is_dimensionless and \
                    not got.compatible(expected):
                self._emit(
                    Severity.ERROR, "DIM004",
                    f"{fn.qualname}() expects {expected} for "
                    f"{keyword!r}, got {got}",
                    node.lineno,
                )

    def _check_counter_track(self, node: ast.Call,
                             kwarg_dims: Dict[str, Dim]) -> None:
        for kw in node.keywords:
            if kw.arg == "unit" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                if kw.value.value not in COUNTER_UNITS:
                    self._emit(
                        Severity.ERROR, "DIM006",
                        f"CounterTrack unit {kw.value.value!r} is not in "
                        f"the counter-unit vocabulary "
                        f"{sorted(COUNTER_UNITS)}",
                        node.lineno,
                    )
            elif kw.arg in ("start", "period"):
                got = kwarg_dims.get(kw.arg, UNKNOWN)
                if got.known and not got.is_dimensionless and \
                        not got.compatible(TIME):
                    self._emit(
                        Severity.ERROR, "DIM006",
                        f"CounterTrack {kw.arg}= must be seconds, "
                        f"got {got}",
                        node.lineno,
                    )


def build_program(sources: SourceTree) -> DimensionProgram:
    """The :class:`DimensionProgram` over the dimensional scope of a tree."""
    return DimensionProgram(sources.modules(DIM_PACKAGES))


def analyze_tree(root: Path) -> List[Finding]:
    """Run the full dimensional analysis over every module under ``root``."""
    return build_program(SourceTree(root)).analyze()
