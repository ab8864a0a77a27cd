"""Recursive-descent parser for the C subset.

Supports what the RegionWiz corpora need from real-world region code:

* full declarators -- pointers to pointers (``apr_pool_t **newp``),
  function pointers (``typedef apr_status_t (*cleanup_t)(void *)``),
  arrays, parenthesized declarators;
* struct/union tags with forward declarations, typedefs, enums
  (enumerators become integer constants);
* the statement suite (if/while/do/for/return/break/continue, blocks,
  declarations with initializers);
* the expression suite with C precedence, casts, ``sizeof``, ternary
  conditionals, ``->``/``.`` member access, indexing, varargs calls.

Typedef names are tracked during the parse (the classic lexer-feedback
problem), so ``(apr_pool_t *)p`` parses as a cast while ``(x) * p``
parses as multiplication.

The parser reads the lexer's flat token lists directly
(:class:`~repro.lang.lexer.TokenStream`): ``_kinds[_pos]`` and
``_values[_pos]`` are the current token.  The lists end in EOF
sentinels, so a one-token lookahead needs no bounds check, and
:meth:`Parser._loc` builds a :class:`SourceLocation` only for the tokens
an AST node or an error points at.  A value match is confirmed by kind
(:data:`_SYMBOLS`), so a string literal ``"("`` is never taken for
punctuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.lang import nodes
from repro.lang.errors import ParseError, SourceLocation
from repro.lang.lexer import TokenKind, tokenize
from repro.lang.types import (
    ArrayType,
    CHAR,
    CType,
    FunctionType,
    INT,
    IntType,
    LONG,
    PointerType,
    SHORT,
    StructType,
    UNSIGNED,
    VOID,
)

__all__ = ["Parser", "parse"]


_BASE_TYPE_KEYWORDS = frozenset(
    "void char short int long unsigned signed float double".split()
)
_QUALIFIERS = frozenset("const volatile static extern inline".split())
_TYPE_START_KEYWORDS = (
    _BASE_TYPE_KEYWORDS | _QUALIFIERS | {"struct", "union", "enum", "typedef"}
)

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_INT = TokenKind.INT
_STRING = TokenKind.STRING
_PUNCT = TokenKind.PUNCT
_EOF = TokenKind.EOF

#: The kinds whose value is matched literally by _at/_accept/_expect.
_SYMBOLS = frozenset((_PUNCT, _KEYWORD))

_UNARY_OPS = frozenset(("*", "&", "!", "-", "+", "~"))
_POSTFIX_OPS = frozenset(("(", "->", ".", "[", "++", "--"))

# Operator precedence for the expression climber (binary operators only).
_PRECEDENCE: Dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])


# Declarator shape tree (typed inside-out; see _apply_declarator).
@dataclass
class _DName:
    name: Optional[str]


@dataclass
class _DPtr:
    child: "_DTree"


@dataclass
class _DFunc:
    child: "_DTree"
    params: List[nodes.Param]
    varargs: bool


@dataclass
class _DArr:
    child: "_DTree"
    length: int


_DTree = Union[_DName, _DPtr, _DFunc, _DArr]


class Parser:
    def __init__(self, text: str, filename: str = "<input>") -> None:
        self._tokens = tokenize(text, filename)
        self._kinds = self._tokens.kinds
        self._values = self._tokens.values
        self._pos = 0
        self._typedefs: Dict[str, CType] = {}
        self._structs: Dict[str, StructType] = {}
        self._enum_constants: Dict[str, int] = {}
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _loc(self) -> SourceLocation:
        return self._tokens.loc(self._pos)

    def _next(self) -> str:
        """Consume the current token (EOF stays put); return its value."""
        pos = self._pos
        if self._kinds[pos] != _EOF:
            self._pos = pos + 1
        return self._values[pos]

    def _at(self, value: str) -> bool:
        pos = self._pos
        return self._values[pos] == value and self._kinds[pos] in _SYMBOLS

    def _accept(self, value: str) -> bool:
        pos = self._pos
        if self._values[pos] == value and self._kinds[pos] in _SYMBOLS:
            self._pos = pos + 1
            return True
        return False

    def _expect(self, value: str) -> None:
        pos = self._pos
        if self._values[pos] == value and self._kinds[pos] in _SYMBOLS:
            self._pos = pos + 1
            return
        raise ParseError(
            f"expected {value!r}, found {self._values[pos]!r}", self._loc()
        )

    def _expect_ident(self) -> str:
        pos = self._pos
        if self._kinds[pos] != _IDENT:
            raise ParseError(
                f"expected identifier, found {self._values[pos]!r}", self._loc()
            )
        self._pos = pos + 1
        return self._values[pos]

    # ------------------------------------------------------------------
    # Type detection
    # ------------------------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        pos = self._pos + offset
        kind = self._kinds[pos]
        if kind == _KEYWORD:
            return self._values[pos] in _TYPE_START_KEYWORDS
        if kind == _IDENT:
            return self._values[pos] in self._typedefs
        return False

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> nodes.TranslationUnit:
        loc = self._loc()
        decls: List[nodes.Decl] = []
        kinds = self._kinds
        while kinds[self._pos] != _EOF:
            decls.extend(self._parse_top_decl())
        unit = nodes.TranslationUnit(loc, decls)
        unit.enum_constants = dict(self._enum_constants)  # type: ignore[attr-defined]
        unit.structs = dict(self._structs)  # type: ignore[attr-defined]
        return unit

    def _parse_top_decl(self) -> List[nodes.Decl]:
        loc = self._loc()
        if self._accept("typedef"):
            return [self._parse_typedef(loc)]
        if self._accept(";"):
            return []
        base, tag_decl = self._parse_decl_specifiers()
        # `struct foo { ... };` or `struct foo;` with no declarator.
        if self._accept(";"):
            return [tag_decl] if tag_decl is not None else []
        results: List[nodes.Decl] = [] if tag_decl is None else [tag_decl]
        first = True
        while True:
            tree = self._parse_declarator()
            name, ctype = self._apply_declarator(tree, base)
            if name is None:
                raise ParseError("declarator requires a name", loc)
            if isinstance(ctype, FunctionType):
                params, varargs = self._declarator_params(tree)
                if first and self._at("{"):
                    body = self._parse_block()
                    results.append(
                        nodes.FuncDecl(loc, ctype.ret, name, params, varargs, body)
                    )
                    return results
                results.append(
                    nodes.FuncDecl(loc, ctype.ret, name, params, varargs, None)
                )
            else:
                init = self._parse_expr_no_comma() if self._accept("=") else None
                results.append(nodes.VarDecl(loc, ctype, name, init, is_global=True))
            first = False
            if self._accept(","):
                continue
            self._expect(";")
            return results

    def _declarator_params(self, tree: _DTree) -> Tuple[List[nodes.Param], bool]:
        """The parameter list of the function declarator attached to the
        name -- the *innermost* _DFunc (``int (*pick(void))(int)`` declares
        pick(void), not pick(int))."""
        node = tree
        last: Optional[_DFunc] = None
        while not isinstance(node, _DName):
            if isinstance(node, _DFunc):
                last = node
            node = node.child
        if last is None:
            raise ParseError("internal: function declarator without params")
        return last.params, last.varargs

    def _parse_typedef(self, loc: SourceLocation) -> nodes.TypedefDecl:
        base, _ = self._parse_decl_specifiers()
        tree = self._parse_declarator()
        name, ctype = self._apply_declarator(tree, base)
        if name is None:
            raise ParseError("typedef requires a name", loc)
        self._expect(";")
        self._typedefs[name] = ctype
        return nodes.TypedefDecl(loc, name, ctype)

    # ------------------------------------------------------------------
    # Declaration specifiers (base type)
    # ------------------------------------------------------------------

    def _parse_decl_specifiers(self) -> Tuple[CType, Optional[nodes.Decl]]:
        """Parse qualifiers + a base type; returns (type, optional tag decl).

        The tag decl is a StructDef when the specifier *defines* a struct,
        so the caller can keep it in the AST.
        """
        words: List[str] = []
        ctype: Optional[CType] = None
        tag_decl: Optional[nodes.Decl] = None
        kinds, values = self._kinds, self._values
        while True:
            pos = self._pos
            kind, value = kinds[pos], values[pos]
            if kind == _KEYWORD:
                if value in _QUALIFIERS:
                    self._pos = pos + 1
                    continue
                if value in _BASE_TYPE_KEYWORDS:
                    words.append(value)
                    self._pos = pos + 1
                    continue
                if value in ("struct", "union"):
                    if words or ctype is not None:
                        raise ParseError("conflicting type specifiers", self._loc())
                    ctype, tag_decl = self._parse_struct_specifier()
                    continue
                if value == "enum":
                    if words or ctype is not None:
                        raise ParseError("conflicting type specifiers", self._loc())
                    self._parse_enum_specifier()
                    ctype = INT
                    continue
            elif (
                kind == _IDENT
                and value in self._typedefs
                and not words
                and ctype is None
            ):
                # A typedef name is only a specifier if we still need one.
                ctype = self._typedefs[value]
                self._pos = pos + 1
                continue
            break
        if ctype is None:
            if not words:
                raise ParseError("expected a type", self._loc())
            ctype = _combine_base_words(words)
            if ctype is None:
                raise ParseError(
                    f"unsupported type specifier {' '.join(words)!r}", self._loc()
                )
        return ctype, tag_decl

    def _parse_struct_specifier(self) -> Tuple[CType, Optional[nodes.Decl]]:
        loc = self._loc()
        self._next()  # struct / union (unions are laid out like structs here)
        if self._kinds[self._pos] == _IDENT:
            name = self._next()
        else:
            self._anon_counter += 1
            name = f"<anon{self._anon_counter}>"
        struct = self._structs.get(name)
        if struct is None:
            struct = StructType(name, loc)
            self._structs[name] = struct
        if not self._at("{"):
            return struct, None
        self._next()  # {
        fields: List[Tuple[CType, str]] = []
        while not self._accept("}"):
            base, _ = self._parse_decl_specifiers()
            while True:
                tree = self._parse_declarator()
                fname, ftype = self._apply_declarator(tree, base)
                if fname is None:
                    raise ParseError("struct field requires a name", loc)
                if isinstance(ftype, FunctionType):
                    raise ParseError(
                        f"field {fname!r} has function type (missing '*'?)", loc
                    )
                fields.append((ftype, fname))
                if not self._accept(","):
                    break
            self._expect(";")
        struct.define([(fname, ftype) for ftype, fname in fields])
        return struct, nodes.StructDef(loc, name, fields)

    def _parse_enum_specifier(self) -> None:
        self._next()  # enum
        if self._kinds[self._pos] == _IDENT:
            self._next()  # tag (ignored; enums are just ints here)
        if not self._at("{"):
            return
        self._next()
        value = 0
        while not self._accept("}"):
            name = self._expect_ident()
            if self._accept("="):
                if self._kinds[self._pos] != _INT:
                    raise ParseError(
                        "enumerator initializers must be integer literals",
                        self._loc(),
                    )
                value = int(self._next())
            self._enum_constants[name] = value
            value += 1
            if not self._accept(","):
                self._expect("}")
                break

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------

    def _parse_declarator(self) -> _DTree:
        if self._accept("*"):
            kinds, values = self._kinds, self._values
            while kinds[self._pos] == _KEYWORD and values[self._pos] in _QUALIFIERS:
                self._pos += 1
            return _DPtr(self._parse_declarator())
        return self._parse_direct_declarator()

    def _parse_direct_declarator(self) -> _DTree:
        pos = self._pos
        value = self._values[pos]
        node: _DTree
        if self._kinds[pos] == _IDENT and value not in self._typedefs:
            self._pos = pos + 1
            node = _DName(value)
        elif self._at("(") and self._is_parenthesized_declarator():
            self._pos = pos + 1
            node = self._parse_declarator()
            self._expect(")")
        else:
            node = _DName(None)  # abstract declarator
        while True:
            if self._accept("("):
                params, varargs = self._parse_params()
                self._expect(")")
                node = _DFunc(node, params, varargs)
            elif self._accept("["):
                length = 0
                if self._kinds[self._pos] == _INT:
                    length = int(self._next())
                self._expect("]")
                node = _DArr(node, length)
            else:
                return node

    def _is_parenthesized_declarator(self) -> bool:
        """After '(' in declarator position: inner declarator vs params."""
        pos = self._pos + 1
        kind, value = self._kinds[pos], self._values[pos]
        if kind == _PUNCT and value in ("*", "("):
            return True
        if kind == _IDENT and value not in self._typedefs:
            return True
        return False

    def _parse_params(self) -> Tuple[List[nodes.Param], bool]:
        params: List[nodes.Param] = []
        varargs = False
        if self._at(")"):
            return params, varargs
        if self._at("void") and self._values[self._pos + 1] == ")":
            self._next()
            return params, varargs
        while True:
            if self._accept("..."):
                varargs = True
                break
            loc = self._loc()
            base, _ = self._parse_decl_specifiers()
            tree = self._parse_declarator()
            name, ctype = self._apply_declarator(tree, base)
            # Parameter decay: arrays and functions become pointers.
            if isinstance(ctype, ArrayType):
                ctype = PointerType(ctype.element)
            elif isinstance(ctype, FunctionType):
                ctype = PointerType(ctype)
            params.append(nodes.Param(loc, ctype, name))
            if not self._accept(","):
                break
        return params, varargs

    def _apply_declarator(
        self, tree: _DTree, base: CType
    ) -> Tuple[Optional[str], CType]:
        """Resolve a declarator tree against a base type (inside-out rule)."""
        if isinstance(tree, _DName):
            return tree.name, base
        if isinstance(tree, _DPtr):
            return self._apply_declarator(tree.child, PointerType(base))
        if isinstance(tree, _DFunc):
            param_types = tuple(p.type for p in tree.params)
            return self._apply_declarator(
                tree.child, FunctionType(base, param_types, tree.varargs)
            )
        if isinstance(tree, _DArr):
            return self._apply_declarator(tree.child, ArrayType(base, tree.length))
        raise ParseError("internal: unknown declarator node")

    def _parse_type_name(self) -> CType:
        """A type without a name, as in casts and sizeof."""
        base, _ = self._parse_decl_specifiers()
        tree = self._parse_declarator()
        name, ctype = self._apply_declarator(tree, base)
        if name is not None:
            raise ParseError(f"unexpected name {name!r} in type", self._loc())
        return ctype

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> nodes.Block:
        loc = self._loc()
        self._expect("{")
        stmts: List[nodes.Stmt] = []
        while not self._accept("}"):
            stmts.extend(self._parse_statement())
        return nodes.Block(loc, stmts)

    def _parse_statement(self) -> List[nodes.Stmt]:
        pos = self._pos
        kind, value = self._kinds[pos], self._values[pos]
        if kind == _PUNCT:
            if value == "{":
                return [self._parse_block()]
            if value == ";":
                self._pos = pos + 1
                return []
        elif kind == _KEYWORD:
            if value == "if":
                return [self._parse_if()]
            if value == "return":
                loc = self._loc()
                self._pos = pos + 1
                result = None if self._at(";") else self._parse_expr()
                self._expect(";")
                return [nodes.Return(loc, result)]
            if value == "while":
                return [self._parse_while()]
            if value == "do":
                return [self._parse_do_while()]
            if value == "for":
                return [self._parse_for()]
            if value == "break":
                loc = self._loc()
                self._pos = pos + 1
                self._expect(";")
                return [nodes.Break(loc)]
            if value == "continue":
                loc = self._loc()
                self._pos = pos + 1
                self._expect(";")
                return [nodes.Continue(loc)]
        if self._starts_type():
            return self._parse_local_declaration()
        loc = self._loc()
        expr = self._parse_expr()
        self._expect(";")
        return [nodes.ExprStmt(loc, expr)]

    def _parse_local_declaration(self) -> List[nodes.Stmt]:
        loc = self._loc()
        base, _ = self._parse_decl_specifiers()
        stmts: List[nodes.Stmt] = []
        if self._accept(";"):
            return stmts  # bare struct/enum tag declaration
        if self._accept("typedef"):
            raise ParseError("typedef must appear at file scope", loc)
        while True:
            tree = self._parse_declarator()
            name, ctype = self._apply_declarator(tree, base)
            if name is None:
                raise ParseError("declaration requires a name", loc)
            if isinstance(ctype, FunctionType):
                # Local prototype: the function is resolved globally,
                # so the declaration produces no statement.
                pass
            else:
                init = self._parse_expr_no_comma() if self._accept("=") else None
                stmts.append(
                    nodes.DeclStmt(loc, nodes.VarDecl(loc, ctype, name, init))
                )
            if self._accept(","):
                continue
            self._expect(";")
            return stmts

    def _parse_if(self) -> nodes.If:
        loc = self._loc()
        self._expect("if")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = _as_single(self._parse_statement(), loc)
        other = None
        if self._accept("else"):
            other = _as_single(self._parse_statement(), loc)
        return nodes.If(loc, cond, then, other)

    def _parse_while(self) -> nodes.While:
        loc = self._loc()
        self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = _as_single(self._parse_statement(), loc)
        return nodes.While(loc, cond, body)

    def _parse_do_while(self) -> nodes.DoWhile:
        loc = self._loc()
        self._expect("do")
        body = _as_single(self._parse_statement(), loc)
        self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        self._expect(";")
        return nodes.DoWhile(loc, body, cond)

    def _parse_for(self) -> nodes.For:
        loc = self._loc()
        self._expect("for")
        self._expect("(")
        init: Optional[Union[nodes.Expr, nodes.VarDecl]] = None
        if not self._at(";"):
            if self._starts_type():
                base, _ = self._parse_decl_specifiers()
                tree = self._parse_declarator()
                name, ctype = self._apply_declarator(tree, base)
                if name is None:
                    raise ParseError("declaration requires a name", loc)
                value = self._parse_expr_no_comma() if self._accept("=") else None
                init = nodes.VarDecl(loc, ctype, name, value)
            else:
                init = self._parse_expr()
        self._expect(";")
        cond = None if self._at(";") else self._parse_expr()
        self._expect(";")
        step = None if self._at(")") else self._parse_expr()
        self._expect(")")
        body = _as_single(self._parse_statement(), loc)
        return nodes.For(loc, init, cond, step, body)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expr(self) -> nodes.Expr:
        expr = self._parse_expr_no_comma()
        while self._at(","):
            loc = self._loc()
            self._pos += 1
            right = self._parse_expr_no_comma()
            # The comma operator evaluates both; model as a binary op.
            expr = nodes.Binary(loc, ",", expr, right)
        return expr

    def _parse_expr_no_comma(self) -> nodes.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> nodes.Expr:
        left = self._parse_conditional()
        pos = self._pos
        value = self._values[pos]
        if value in _ASSIGN_OPS and self._kinds[pos] == _PUNCT:
            loc = self._loc()
            self._pos = pos + 1
            right = self._parse_assignment()
            if value == "=":
                return nodes.Assign(loc, left, right)
            # Compound assignment desugars to load-op-store.
            return nodes.Assign(loc, left, nodes.Binary(loc, value[:-1], left, right))
        return left

    def _parse_conditional(self) -> nodes.Expr:
        cond = self._parse_binary(1)
        if not self._at("?"):
            return cond
        loc = self._loc()
        self._pos += 1
        then = self._parse_expr()
        self._expect(":")
        other = self._parse_conditional()
        return nodes.Cond(loc, cond, then, other)

    def _parse_binary(self, min_precedence: int) -> nodes.Expr:
        left = self._parse_unary()
        kinds, values = self._kinds, self._values
        while True:
            pos = self._pos
            op = values[pos]
            precedence = _PRECEDENCE.get(op)
            if (
                precedence is None
                or precedence < min_precedence
                or kinds[pos] != _PUNCT
            ):
                return left
            loc = self._loc()
            self._pos = pos + 1
            right = self._parse_binary(precedence + 1)
            left = nodes.Binary(loc, op, left, right)

    def _parse_unary(self) -> nodes.Expr:
        pos = self._pos
        kind, value = self._kinds[pos], self._values[pos]
        if kind == _PUNCT:
            if value in _UNARY_OPS:
                loc = self._loc()
                self._pos = pos + 1
                return nodes.Unary(loc, value, self._parse_unary())
            if value == "++" or value == "--":
                loc = self._loc()
                self._pos = pos + 1
                target = self._parse_unary()
                # ++x desugars to x = x + 1 (value semantics suffice here).
                op = "+" if value == "++" else "-"
                return nodes.Assign(
                    loc, target, nodes.Binary(loc, op, target, nodes.IntLit(loc, 1))
                )
            if value == "(" and self._starts_type(1):
                loc = self._loc()
                self._pos = pos + 1
                ctype = self._parse_type_name()
                self._expect(")")
                return nodes.Cast(loc, ctype, self._parse_unary())
        elif kind == _KEYWORD and value == "sizeof":
            loc = self._loc()
            self._pos = pos + 1
            if self._at("(") and self._starts_type(1):
                self._pos += 1
                ctype = self._parse_type_name()
                self._expect(")")
                return nodes.SizeOf(loc, ctype)
            return nodes.SizeOf(loc, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> nodes.Expr:
        expr = self._parse_primary()
        kinds, values = self._kinds, self._values
        while True:
            pos = self._pos
            op = values[pos]
            if op not in _POSTFIX_OPS or kinds[pos] != _PUNCT:
                return expr
            loc = self._loc()
            self._pos = pos + 1
            if op == "(":
                args: List[nodes.Expr] = []
                if not self._at(")"):
                    args.append(self._parse_expr_no_comma())
                    while self._accept(","):
                        args.append(self._parse_expr_no_comma())
                self._expect(")")
                expr = nodes.Call(loc, expr, args)
            elif op == "->":
                expr = nodes.Member(loc, expr, self._expect_ident(), arrow=True)
            elif op == ".":
                expr = nodes.Member(loc, expr, self._expect_ident(), arrow=False)
            elif op == "[":
                index = self._parse_expr()
                self._expect("]")
                expr = nodes.Index(loc, expr, index)
            else:
                # x++ as a statement-level desugar (value not preserved,
                # which the analysis never needs).
                expr = nodes.Assign(
                    loc,
                    expr,
                    nodes.Binary(
                        loc, "+" if op == "++" else "-", expr, nodes.IntLit(loc, 1)
                    ),
                )

    def _parse_primary(self) -> nodes.Expr:
        pos = self._pos
        kind, value = self._kinds[pos], self._values[pos]
        if kind == _IDENT:
            loc = self._loc()
            self._pos = pos + 1
            if value == "NULL":
                return nodes.NullLit(loc)
            if value in self._enum_constants:
                return nodes.IntLit(loc, self._enum_constants[value])
            return nodes.Ident(loc, value)
        if kind == _INT:
            loc = self._loc()
            self._pos = pos + 1
            return nodes.IntLit(loc, int(value))
        if kind == _STRING:
            loc = self._loc()
            self._pos = pos + 1
            # Adjacent string literals concatenate.
            kinds, values = self._kinds, self._values
            while kinds[self._pos] == _STRING:
                value += values[self._pos]
                self._pos += 1
            return nodes.StrLit(loc, value)
        if self._accept("("):
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise ParseError(f"unexpected token {value!r}", self._loc())


def _as_single(stmts: List[nodes.Stmt], loc: SourceLocation) -> nodes.Stmt:
    if len(stmts) == 1:
        return stmts[0]
    return nodes.Block(loc, stmts)


def _combine_base_words(words: List[str]) -> Optional[CType]:
    """The type a run of base-type keywords names (None if unsupported)."""
    key = frozenset(words)
    signed = "unsigned" not in key
    if "void" in key:
        return VOID
    if "char" in key:
        return CHAR if signed else IntType("unsigned char", 1, signed=False)
    if "short" in key:
        return SHORT if signed else IntType("unsigned short", 2, signed=False)
    if "long" in key or "double" in key:
        return LONG if signed else IntType("unsigned long", 8, signed=False)
    if "float" in key:
        return INT  # floats are opaque scalars to the analysis
    if "int" in key or "signed" in key:
        return INT if signed else UNSIGNED
    if key == {"unsigned"}:
        return UNSIGNED
    return None


def parse(text: str, filename: str = "<input>") -> nodes.TranslationUnit:
    """Parse a translation unit from source text."""
    return Parser(text, filename).parse_translation_unit()
