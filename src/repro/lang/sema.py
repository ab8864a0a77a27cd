"""Semantic analysis: name resolution and type annotation.

Walks the AST, resolves every identifier to a :class:`Symbol` (attached as
``expr.symbol``), and fills in ``expr.ctype`` on every expression.  The
checker is deliberately lenient about conversions -- the analysis targets
weakly-typed C, and RegionWiz explicitly "handles unsafe typecasts
including casts between integers and pointers" (Section 5.5) -- but it is
strict about the things the analysis depends on: unresolved names, unknown
struct fields, and calls through non-function values are errors.

Sema also records which variables are *address-taken* as it resolves
them (see :meth:`_Analyzer._take_address`), so lowering needs no walk of
its own to decide which variables live in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lang import nodes
from repro.lang.errors import SemaError
from repro.lang.types import (
    ArrayType,
    CHAR_PTR,
    CType,
    FunctionType,
    INT,
    PointerType,
    SIZE_T,
    StructType,
    VOID,
    VOID_PTR,
)

__all__ = ["Symbol", "FunctionInfo", "SemaResult", "analyze"]


@dataclass(frozen=True)
class Symbol:
    """A resolved name.  ``uid`` disambiguates shadowed locals."""

    name: str
    ctype: CType
    kind: str  # 'local' | 'param' | 'global' | 'func'
    uid: int

    @property
    def ir_name(self) -> str:
        if self.kind in ("global", "func"):
            return self.name
        return f"{self.name}.{self.uid}"


@dataclass
class FunctionInfo:
    """Per-function sema output: the decl plus its resolved symbols.

    ``address_taken`` holds the ``ir_name`` of every local and parameter
    of this function whose address is taken (globals are recorded in
    :attr:`SemaResult.global_address_taken`).
    """

    decl: nodes.FuncDecl
    params: List[Symbol]
    locals: List[Symbol] = field(default_factory=list)
    address_taken: Set[str] = field(default_factory=set)


@dataclass
class SemaResult:
    """``global_address_taken`` names the globals whose address is taken
    anywhere: in a function body or in a global initializer."""

    unit: nodes.TranslationUnit
    globals: Dict[str, Symbol]
    functions: Dict[str, FunctionInfo]
    prototypes: Dict[str, nodes.FuncDecl]
    global_address_taken: Set[str] = field(default_factory=set)

    def function_type(self, name: str) -> Optional[FunctionType]:
        info = self.functions.get(name)
        if info is not None:
            decl = info.decl
        elif name in self.prototypes:
            decl = self.prototypes[name]
        else:
            return None
        return FunctionType(
            decl.ret, tuple(p.type for p in decl.params), decl.varargs
        )


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> None:
        self.names[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _Analyzer:
    def __init__(self, unit: nodes.TranslationUnit) -> None:
        self.unit = unit
        self.globals: Dict[str, Symbol] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.prototypes: Dict[str, nodes.FuncDecl] = {}
        self.global_address_taken: Set[str] = set()
        # Where _take_address records locals and params: the set of the
        # function being analyzed.
        self._address_taken: Set[str] = set()
        self._uid = 0

    def _fresh_uid(self) -> int:
        self._uid += 1
        return self._uid

    # ------------------------------------------------------------------

    def run(self) -> SemaResult:
        # Pass 1: collect globals so forward references resolve.
        for decl in self.unit.decls:
            if isinstance(decl, nodes.FuncDecl):
                ftype = FunctionType(
                    decl.ret, tuple(p.type for p in decl.params), decl.varargs
                )
                self.globals[decl.name] = Symbol(decl.name, ftype, "func", 0)
                if decl.is_definition:
                    if decl.name in self.functions:
                        raise SemaError(
                            f"function {decl.name!r} redefined", decl.loc
                        )
                    self.functions[decl.name] = FunctionInfo(decl, [])
                else:
                    self.prototypes.setdefault(decl.name, decl)
            elif isinstance(decl, nodes.VarDecl):
                self.globals[decl.name] = Symbol(
                    decl.name, decl.type, "global", 0
                )
        # Pass 2: analyze bodies and global initializers.  Nothing is
        # defined at file scope from here on, so they share one scope.
        file_scope = _Scope()
        file_scope.names.update(self.globals)
        for decl in self.unit.decls:
            if isinstance(decl, nodes.FuncDecl) and decl.is_definition:
                self._analyze_function(self.functions[decl.name], file_scope)
            elif isinstance(decl, nodes.VarDecl) and decl.init is not None:
                self._expr(decl.init, file_scope)
        return SemaResult(
            self.unit,
            self.globals,
            self.functions,
            self.prototypes,
            self.global_address_taken,
        )

    def _analyze_function(self, info: FunctionInfo, file_scope: _Scope) -> None:
        self._address_taken = info.address_taken
        function_scope = _Scope(file_scope)
        for param in info.decl.params:
            if param.name is None:
                raise SemaError(
                    f"parameter of {info.decl.name!r} needs a name in"
                    " definitions",
                    param.loc,
                )
            symbol = Symbol(param.name, param.type, "param", self._fresh_uid())
            function_scope.define(symbol)
            info.params.append(symbol)
        assert info.decl.body is not None
        self._block(info.decl.body, function_scope, info)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _block(self, block: nodes.Block, scope: _Scope, info: FunctionInfo) -> None:
        inner = _Scope(scope)
        for stmt in block.stmts:
            self._stmt(stmt, inner, info)

    def _stmt(self, stmt: nodes.Stmt, scope: _Scope, info: FunctionInfo) -> None:
        if isinstance(stmt, nodes.Block):
            self._block(stmt, scope, info)
        elif isinstance(stmt, nodes.DeclStmt):
            self._declare_local(stmt.decl, scope, info)
        elif isinstance(stmt, nodes.ExprStmt):
            self._expr(stmt.expr, scope)
        elif isinstance(stmt, nodes.If):
            self._expr(stmt.cond, scope)
            self._stmt(stmt.then, _Scope(scope), info)
            if stmt.other is not None:
                self._stmt(stmt.other, _Scope(scope), info)
        elif isinstance(stmt, nodes.While):
            self._expr(stmt.cond, scope)
            self._stmt(stmt.body, _Scope(scope), info)
        elif isinstance(stmt, nodes.DoWhile):
            self._stmt(stmt.body, _Scope(scope), info)
            self._expr(stmt.cond, scope)
        elif isinstance(stmt, nodes.For):
            loop_scope = _Scope(scope)
            if isinstance(stmt.init, nodes.VarDecl):
                self._declare_local(stmt.init, loop_scope, info)
            elif stmt.init is not None:
                self._expr(stmt.init, loop_scope)
            if stmt.cond is not None:
                self._expr(stmt.cond, loop_scope)
            if stmt.step is not None:
                self._expr(stmt.step, loop_scope)
            self._stmt(stmt.body, _Scope(loop_scope), info)
        elif isinstance(stmt, nodes.Return):
            if stmt.value is not None:
                self._expr(stmt.value, scope)
        elif isinstance(stmt, (nodes.Break, nodes.Continue)):
            pass
        else:
            raise SemaError(f"internal: unknown statement {type(stmt).__name__}")

    def _declare_local(
        self, decl: nodes.VarDecl, scope: _Scope, info: FunctionInfo
    ) -> None:
        if isinstance(decl.type, StructType) and not decl.type.is_complete:
            raise SemaError(
                f"variable {decl.name!r} has incomplete type {decl.type}",
                decl.loc,
            )
        if decl.init is not None:
            self._expr(decl.init, scope)
        symbol = Symbol(decl.name, decl.type, "local", self._fresh_uid())
        scope.define(symbol)
        info.locals.append(symbol)
        decl.symbol = symbol  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expr(self, expr: nodes.Expr, scope: _Scope) -> CType:
        ctype = self._expr_inner(expr, scope)
        expr.ctype = ctype
        return ctype

    def _expr_inner(self, expr: nodes.Expr, scope: _Scope) -> CType:
        if isinstance(expr, nodes.IntLit):
            return INT
        if isinstance(expr, nodes.StrLit):
            return CHAR_PTR
        if isinstance(expr, nodes.NullLit):
            return VOID_PTR
        if isinstance(expr, nodes.Ident):
            symbol = scope.lookup(expr.name)
            if symbol is None:
                raise SemaError(f"undeclared identifier {expr.name!r}", expr.loc)
            expr.symbol = symbol  # type: ignore[attr-defined]
            if isinstance(symbol.ctype, ArrayType):
                self._take_address(expr)
            return symbol.ctype
        if isinstance(expr, nodes.Unary):
            operand = self._expr(expr.operand, scope)
            if expr.op == "*":
                if not operand.is_pointerlike:
                    raise SemaError(
                        f"cannot dereference value of type {operand}", expr.loc
                    )
                return operand.pointee()
            if expr.op == "&":
                base: Optional[nodes.Expr] = expr.operand
                while isinstance(base, (nodes.Member, nodes.Index, nodes.Cast)):
                    if isinstance(base, nodes.Member) and base.arrow:
                        base = None
                        break
                    base = base.operand if isinstance(base, nodes.Cast) else base.base
                self._take_address(base)
                return PointerType(operand)
            if expr.op in ("!", "~"):
                return INT
            return operand  # unary +/-
        if isinstance(expr, nodes.Binary):
            left = self._expr(expr.left, scope)
            right = self._expr(expr.right, scope)
            if expr.op == ",":
                return right
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return INT
            # Pointer arithmetic keeps the pointer type.
            if left.is_pointerlike:
                return left if not isinstance(left, ArrayType) else PointerType(left.element)
            if right.is_pointerlike:
                return right if not isinstance(right, ArrayType) else PointerType(right.element)
            return left
        if isinstance(expr, nodes.Assign):
            target = self._expr(expr.target, scope)
            self._expr(expr.value, scope)
            self._check_lvalue(expr.target)
            return target
        if isinstance(expr, nodes.Cond):
            self._expr(expr.cond, scope)
            then = self._expr(expr.then, scope)
            other = self._expr(expr.other, scope)
            return other if then.is_void else then
        if isinstance(expr, nodes.Call):
            return self._call(expr, scope)
        if isinstance(expr, nodes.Member):
            return self._member(expr, scope)
        if isinstance(expr, nodes.Index):
            base = self._expr(expr.base, scope)
            self._expr(expr.index, scope)
            if not base.is_pointerlike:
                raise SemaError(f"cannot index value of type {base}", expr.loc)
            return base.pointee()
        if isinstance(expr, nodes.Cast):
            self._expr(expr.operand, scope)
            return expr.to
        if isinstance(expr, nodes.SizeOf):
            if isinstance(expr.target, nodes.Expr):
                self._expr(expr.target, scope)
            return SIZE_T
        raise SemaError(f"internal: unknown expression {type(expr).__name__}")

    def _call(self, expr: nodes.Call, scope: _Scope) -> CType:
        callee = self._expr(expr.func, scope)
        for arg in expr.args:
            self._expr(arg, scope)
        ftype: Optional[FunctionType] = None
        if isinstance(callee, FunctionType):
            ftype = callee
        elif isinstance(callee, PointerType) and isinstance(
            callee.target, FunctionType
        ):
            ftype = callee.target
        elif callee.is_pointerlike or callee.is_void:
            # Call through void* / unknown pointer: permitted (weakly
            # typed); the result is unknown, modeled as void*.
            return VOID_PTR
        if ftype is None:
            raise SemaError(f"called object has type {callee}", expr.loc)
        required = len(ftype.params)
        if len(expr.args) < required or (
            len(expr.args) > required and not ftype.varargs
        ):
            raise SemaError(
                f"call expects {required}{'+' if ftype.varargs else ''}"
                f" arguments, got {len(expr.args)}",
                expr.loc,
            )
        return ftype.ret

    def _member(self, expr: nodes.Member, scope: _Scope) -> CType:
        base = self._expr(expr.base, scope)
        if not expr.arrow:
            # A struct accessed by value lives in memory.
            node = expr.base
            while isinstance(node, nodes.Member) and not node.arrow:
                node = node.base
            self._take_address(node)
        if expr.arrow:
            if not base.is_pointerlike:
                raise SemaError(
                    f"'->' on non-pointer type {base}", expr.loc
                )
            base = base.pointee()
        if not isinstance(base, StructType):
            raise SemaError(
                f"member access on non-struct type {base}", expr.loc
            )
        return base.field(expr.name).type

    def _take_address(self, expr: Optional[nodes.Expr]) -> None:
        """Record the variable ``expr`` names, if any, as address-taken.

        A variable's storage is observable through a pointer when its
        address is taken (``&x``, ``&x.f``, ``&a[i]``), when it is a
        struct accessed by value (``v.f``), and when it is an array.
        Such a variable must live in memory, so every access goes
        through its memory object -- otherwise stores through the
        pointer and direct reads of the variable would never meet in the
        flow-insensitive analysis.  This applies to locals, params, AND
        globals (a global pool passed as ``&global_pool`` is the
        canonical APR idiom).
        """
        if not isinstance(expr, nodes.Ident):
            return
        symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
        if symbol.kind == "global":
            self.global_address_taken.add(symbol.name)
        elif symbol.kind != "func":
            self._address_taken.add(symbol.ir_name)

    def _check_lvalue(self, expr: nodes.Expr) -> None:
        if isinstance(expr, (nodes.Ident, nodes.Member, nodes.Index)):
            return
        if isinstance(expr, nodes.Unary) and expr.op == "*":
            return
        if isinstance(expr, nodes.Cast):
            self._check_lvalue(expr.operand)
            return
        raise SemaError("assignment target is not an lvalue", expr.loc)


def analyze(unit: nodes.TranslationUnit) -> SemaResult:
    """Resolve names and annotate types on a parsed translation unit."""
    return _Analyzer(unit).run()
