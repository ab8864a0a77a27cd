"""AST-to-IR lowering.

Mirrors what the paper's Phoenix plug-in sees: three-address instructions,
with struct field access lowered to ``ADD base, byte_offset`` followed by a
memory LOAD/STORE, exactly as in the Section 5.1 example.  Global variable
initializers are collected into a synthetic ``_global_init`` function that
the call-graph builder treats as reachable before ``main``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.ir.instr import (
    Add,
    AddrOf,
    Assign,
    BinOp,
    Call,
    CBranch,
    Dest,
    FuncAddr,
    Instr,
    IntConst,
    Jump,
    Label,
    Load,
    NullConst,
    Operand,
    Return,
    Store,
    StrConst,
    Temp,
    VarOp,
)
from repro.ir.module import IRFunction, IRModule
from repro.lang import nodes
from repro.lang.errors import SemaError, SourceLocation
from repro.lang.sema import SemaResult, Symbol
from repro.lang.types import ArrayType, CType, StructType, VOID as _VOID_TYPE

__all__ = ["lower", "GLOBAL_INIT"]

GLOBAL_INIT = "_global_init"


class _FunctionLowerer:
    def __init__(
        self,
        module_lowerer: "_ModuleLowerer",
        name: str,
        address_taken: Optional[set] = None,
    ) -> None:
        self._ml = module_lowerer
        self.name = name
        self.instrs: List[Instr] = []
        self._temp_counter = 0
        self._label_counter = 0
        self._break_stack: List[int] = []
        self._continue_stack: List[int] = []
        self._address_taken: set = address_taken or set()

    def _is_demoted(self, symbol: Symbol) -> bool:
        return (
            symbol.kind in ("local", "param", "global")
            and symbol.ir_name in self._address_taken
        )

    def _slot_address(self, loc: SourceLocation, symbol: Symbol) -> Temp:
        temp = self._fresh_temp()
        self._emit(AddrOf(loc, temp, VarOp(symbol.ir_name, symbol.kind)))
        return temp

    def emit_param_spills(self, params: List[Symbol]) -> None:
        """Copy address-taken parameters into their memory slots so the
        incoming argument binding and pointer accesses agree."""
        for symbol in params:
            if self._is_demoted(symbol):
                loc = SourceLocation.UNKNOWN
                slot = self._slot_address(loc, symbol)
                self._emit(
                    Store(loc, slot, VarOp(symbol.ir_name, symbol.kind))
                )

    # -- emission helpers ------------------------------------------------

    def _fresh_temp(self) -> Temp:
        self._temp_counter += 1
        return Temp(self._temp_counter)

    def _fresh_label(self) -> int:
        self._label_counter += 1
        return self._label_counter

    def _emit(self, instr: Instr) -> Instr:
        instr.uid = self._ml.next_uid()
        self.instrs.append(instr)
        return instr

    # -- statements --------------------------------------------------------

    def lower_block(self, block: nodes.Block) -> None:
        for stmt in block.stmts:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: nodes.Stmt) -> None:
        if isinstance(stmt, nodes.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, nodes.DeclStmt):
            self._lower_decl(stmt.decl)
        elif isinstance(stmt, nodes.ExprStmt):
            self.rvalue(stmt.expr)
        elif isinstance(stmt, nodes.If):
            self._lower_if(stmt)
        elif isinstance(stmt, nodes.While):
            self._lower_while(stmt)
        elif isinstance(stmt, nodes.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, nodes.For):
            self._lower_for(stmt)
        elif isinstance(stmt, nodes.Return):
            value = None if stmt.value is None else self.rvalue(stmt.value)
            self._emit(Return(stmt.loc, value))
        elif isinstance(stmt, nodes.Break):
            if not self._break_stack:
                raise SemaError("break outside a loop", stmt.loc)
            self._emit(Jump(stmt.loc, self._break_stack[-1]))
        elif isinstance(stmt, nodes.Continue):
            if not self._continue_stack:
                raise SemaError("continue outside a loop", stmt.loc)
            self._emit(Jump(stmt.loc, self._continue_stack[-1]))
        else:
            raise SemaError(f"internal: cannot lower {type(stmt).__name__}")

    def _lower_decl(self, decl: nodes.VarDecl) -> None:
        if decl.init is None:
            return
        symbol: Symbol = decl.symbol  # type: ignore[attr-defined]
        src = self.rvalue(decl.init)
        if self._is_demoted(symbol):
            slot = self._slot_address(decl.loc, symbol)
            self._emit(Store(decl.loc, slot, src))
        else:
            self._emit(Assign(decl.loc, VarOp(symbol.ir_name, symbol.kind), src))

    def _lower_if(self, stmt: nodes.If) -> None:
        cond = self.rvalue(stmt.cond)
        then_label = self._fresh_label()
        else_label = self._fresh_label()
        end_label = self._fresh_label() if stmt.other is not None else else_label
        self._emit(CBranch(stmt.loc, cond, then_label, else_label))
        self._emit(Label(stmt.loc, then_label))
        self.lower_stmt(stmt.then)
        if stmt.other is not None:
            self._emit(Jump(stmt.loc, end_label))
            self._emit(Label(stmt.other.loc, else_label))
            self.lower_stmt(stmt.other)
        self._emit(Label(stmt.loc, end_label))

    def _lower_while(self, stmt: nodes.While) -> None:
        cond_label = self._fresh_label()
        body_label = self._fresh_label()
        end_label = self._fresh_label()
        self._emit(Label(stmt.loc, cond_label))
        cond = self.rvalue(stmt.cond)
        self._emit(CBranch(stmt.loc, cond, body_label, end_label))
        self._emit(Label(stmt.loc, body_label))
        self._break_stack.append(end_label)
        self._continue_stack.append(cond_label)
        self.lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._emit(Jump(stmt.loc, cond_label))
        self._emit(Label(stmt.loc, end_label))

    def _lower_do_while(self, stmt: nodes.DoWhile) -> None:
        body_label = self._fresh_label()
        cond_label = self._fresh_label()
        end_label = self._fresh_label()
        self._emit(Label(stmt.loc, body_label))
        self._break_stack.append(end_label)
        self._continue_stack.append(cond_label)
        self.lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._emit(Label(stmt.loc, cond_label))
        cond = self.rvalue(stmt.cond)
        self._emit(CBranch(stmt.loc, cond, body_label, end_label))
        self._emit(Label(stmt.loc, end_label))

    def _lower_for(self, stmt: nodes.For) -> None:
        if isinstance(stmt.init, nodes.VarDecl):
            self._lower_decl(stmt.init)
        elif stmt.init is not None:
            self.rvalue(stmt.init)
        cond_label = self._fresh_label()
        body_label = self._fresh_label()
        step_label = self._fresh_label()
        end_label = self._fresh_label()
        self._emit(Label(stmt.loc, cond_label))
        if stmt.cond is not None:
            cond = self.rvalue(stmt.cond)
            self._emit(CBranch(stmt.loc, cond, body_label, end_label))
        self._emit(Label(stmt.loc, body_label))
        self._break_stack.append(end_label)
        self._continue_stack.append(step_label)
        self.lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._emit(Label(stmt.loc, step_label))
        if stmt.step is not None:
            self.rvalue(stmt.step)
        self._emit(Jump(stmt.loc, cond_label))
        self._emit(Label(stmt.loc, end_label))

    # -- expressions -------------------------------------------------------

    def rvalue(self, expr: nodes.Expr) -> Operand:
        if isinstance(expr, nodes.IntLit):
            return IntConst(expr.value)
        if isinstance(expr, nodes.NullLit):
            return NullConst()
        if isinstance(expr, nodes.StrLit):
            return self._ml.string_const(expr.value)
        if isinstance(expr, nodes.Ident):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            if symbol.kind == "func":
                return FuncAddr(symbol.name)
            if isinstance(symbol.ctype, ArrayType):
                # Arrays decay to the address of their storage.
                temp = self._fresh_temp()
                self._emit(AddrOf(expr.loc, temp, VarOp(symbol.ir_name, symbol.kind)))
                return temp
            if self._is_demoted(symbol):
                slot = self._slot_address(expr.loc, symbol)
                temp = self._fresh_temp()
                self._emit(Load(expr.loc, temp, slot))
                return temp
            return VarOp(symbol.ir_name, symbol.kind)
        if isinstance(expr, nodes.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, nodes.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, nodes.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, nodes.Cond):
            return self._lower_cond(expr)
        if isinstance(expr, nodes.Call):
            return self._lower_call(expr)
        if isinstance(expr, (nodes.Member, nodes.Index)):
            addr = self._address_of(expr)
            temp = self._fresh_temp()
            self._emit(Load(expr.loc, temp, addr))
            return temp
        if isinstance(expr, nodes.Cast):
            return self.rvalue(expr.operand)
        if isinstance(expr, nodes.SizeOf):
            target = expr.target
            size_type = target if isinstance(target, CType) else target.ctype
            assert size_type is not None
            return IntConst(size_type.size())
        raise SemaError(f"internal: cannot lower {type(expr).__name__}")

    def _lower_unary(self, expr: nodes.Unary) -> Operand:
        if expr.op == "*":
            addr = self.rvalue(expr.operand)
            temp = self._fresh_temp()
            self._emit(Load(expr.loc, temp, addr))
            return temp
        if expr.op == "&":
            return self._address_of(expr.operand)
        operand = self.rvalue(expr.operand)
        temp = self._fresh_temp()
        self._emit(BinOp(expr.loc, temp, expr.op, IntConst(0), operand))
        return temp

    def _lower_binary(self, expr: nodes.Binary) -> Operand:
        if expr.op == ",":
            self.rvalue(expr.left)
            return self.rvalue(expr.right)
        left = self.rvalue(expr.left)
        right = self.rvalue(expr.right)
        assert expr.left.ctype is not None and expr.right.ctype is not None
        temp = self._fresh_temp()
        # Pointer arithmetic becomes ADD so the analysis sees offsets.
        if expr.op in ("+", "-") and expr.left.ctype.is_pointerlike:
            offset = self._scaled_offset(expr.left.ctype, expr.right, expr.op)
            self._emit(Add(expr.loc, temp, left, offset))
            return temp
        if expr.op == "+" and expr.right.ctype.is_pointerlike:
            offset = self._scaled_offset(expr.right.ctype, expr.left, expr.op)
            self._emit(Add(expr.loc, temp, right, offset))
            return temp
        self._emit(BinOp(expr.loc, temp, expr.op, left, right))
        return temp

    def _scaled_offset(
        self, pointer_type: CType, index: nodes.Expr, op: str
    ) -> Optional[int]:
        if not isinstance(index, nodes.IntLit):
            return None  # dynamic offset: declared-unsound territory
        element = pointer_type.pointee()
        try:
            size = element.size()
        except SemaError:
            size = 1
        offset = index.value * size
        return -offset if op == "-" else offset

    def _lower_assign(self, expr: nodes.Assign) -> Operand:
        src = self.rvalue(expr.value)
        kind, target = self._lvalue(expr.target)
        if kind == "var":
            assert isinstance(target, VarOp)
            self._emit(Assign(expr.loc, target, src))
        else:
            self._emit(Store(expr.loc, target, src))
        return src

    def _lower_cond(self, expr: nodes.Cond) -> Operand:
        cond = self.rvalue(expr.cond)
        then_label = self._fresh_label()
        else_label = self._fresh_label()
        end_label = self._fresh_label()
        result = self._fresh_temp()
        self._emit(CBranch(expr.loc, cond, then_label, else_label))
        self._emit(Label(expr.loc, then_label))
        then_value = self.rvalue(expr.then)
        self._emit(Assign(expr.loc, result, then_value))
        self._emit(Jump(expr.loc, end_label))
        self._emit(Label(expr.loc, else_label))
        else_value = self.rvalue(expr.other)
        self._emit(Assign(expr.loc, result, else_value))
        self._emit(Label(expr.loc, end_label))
        return result

    def _lower_call(self, expr: nodes.Call) -> Operand:
        callee: Operand
        func = expr.func
        if isinstance(func, nodes.Ident):
            symbol: Symbol = func.symbol  # type: ignore[attr-defined]
            if symbol.kind == "func":
                callee = FuncAddr(symbol.name)
            else:
                callee = VarOp(symbol.ir_name, symbol.kind)
        else:
            callee = self.rvalue(func)
        args = tuple(self.rvalue(arg) for arg in expr.args)
        assert expr.ctype is not None
        dst = None if expr.ctype.is_void else self._fresh_temp()
        self._emit(Call(expr.loc, dst, callee, args))
        return dst if dst is not None else NullConst()

    # -- lvalues and addresses ----------------------------------------------

    def _lvalue(self, expr: nodes.Expr) -> Tuple[str, Operand]:
        """``("var", VarOp)`` for register targets, ``("mem", addr)`` else."""
        if isinstance(expr, nodes.Ident):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            if self._is_demoted(symbol):
                return "mem", self._slot_address(expr.loc, symbol)
            return "var", VarOp(symbol.ir_name, symbol.kind)
        if isinstance(expr, nodes.Cast):
            return self._lvalue(expr.operand)
        if isinstance(expr, nodes.Unary) and expr.op == "*":
            return "mem", self.rvalue(expr.operand)
        if isinstance(expr, (nodes.Member, nodes.Index)):
            return "mem", self._address_of(expr)
        raise SemaError("assignment target is not an lvalue", expr.loc)

    def _address_of(self, expr: nodes.Expr) -> Operand:
        if isinstance(expr, nodes.Ident):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            if symbol.kind == "func":
                return FuncAddr(symbol.name)
            temp = self._fresh_temp()
            self._emit(AddrOf(expr.loc, temp, VarOp(symbol.ir_name, symbol.kind)))
            return temp
        if isinstance(expr, nodes.Unary) and expr.op == "*":
            return self.rvalue(expr.operand)
        if isinstance(expr, nodes.Member):
            if expr.arrow:
                base = self.rvalue(expr.base)
                struct = self._member_struct(expr)
            else:
                base = self._address_of(expr.base)
                struct = self._member_struct(expr)
            offset = struct.field(expr.name).offset
            temp = self._fresh_temp()
            self._emit(Add(expr.loc, temp, base, offset))
            return temp
        if isinstance(expr, nodes.Index):
            base = self.rvalue(expr.base)
            assert expr.base.ctype is not None
            offset = self._scaled_offset(expr.base.ctype, expr.index, "+")
            temp = self._fresh_temp()
            self._emit(Add(expr.loc, temp, base, offset))
            return temp
        if isinstance(expr, nodes.Cast):
            return self._address_of(expr.operand)
        raise SemaError("cannot take the address of this expression", expr.loc)

    def _member_struct(self, expr: nodes.Member) -> StructType:
        assert expr.base.ctype is not None
        base_type = expr.base.ctype
        if expr.arrow:
            base_type = base_type.pointee()
        if not isinstance(base_type, StructType):
            raise SemaError(f"member access on {base_type}", expr.loc)
        return base_type


class _ModuleLowerer:
    def __init__(self, sema: SemaResult) -> None:
        self.sema = sema
        self.module = IRModule()
        self._uid_counter = 0
        self._string_counter = 0

    def next_uid(self) -> int:
        self._uid_counter += 1
        return self._uid_counter

    def string_const(self, value: str) -> StrConst:
        self._string_counter += 1
        self.module.string_literals[self._string_counter] = value
        return StrConst(self._string_counter, value)

    def run(self) -> IRModule:
        # Globals whose address escapes anywhere are demoted in *every*
        # function (sema's address-taken sets).
        global_taken = self.sema.global_address_taken
        # Globals and their initializers (synthetic _global_init).
        init_lowerer = _FunctionLowerer(
            self, GLOBAL_INIT, address_taken=global_taken
        )
        for decl in self.sema.unit.decls:
            if isinstance(decl, nodes.VarDecl):
                self.module.globals.append(decl.name)
                if decl.init is not None:
                    src = init_lowerer.rvalue(decl.init)
                    if decl.name in global_taken:
                        slot = init_lowerer._fresh_temp()
                        init_lowerer._emit(
                            AddrOf(decl.loc, slot, VarOp(decl.name, "global"))
                        )
                        init_lowerer._emit(Store(decl.loc, slot, src))
                    else:
                        init_lowerer._emit(
                            Assign(decl.loc, VarOp(decl.name, "global"), src)
                        )
        if init_lowerer.instrs:
            self.module.add_function(
                IRFunction(GLOBAL_INIT, [], _VOID_TYPE, init_lowerer.instrs)
            )
        # Function bodies.
        for name, info in self.sema.functions.items():
            assert info.decl.body is not None
            lowerer = _FunctionLowerer(
                self, name, address_taken=global_taken | info.address_taken
            )
            lowerer.emit_param_spills(info.params)
            lowerer.lower_block(info.decl.body)
            self.module.add_function(
                IRFunction(
                    name,
                    [p.ir_name for p in info.params],
                    info.decl.ret,
                    lowerer.instrs,
                    info.decl.loc,
                )
            )
        # Prototypes (library entry points).
        for name, decl in self.sema.prototypes.items():
            if name not in self.module.functions:
                ftype = self.sema.function_type(name)
                assert ftype is not None
                self.module.prototypes[name] = ftype
        return self.module


def lower(sema: SemaResult) -> IRModule:
    """Lower an analyzed translation unit to the Phoenix-like IR."""
    return _ModuleLowerer(sema).run()
