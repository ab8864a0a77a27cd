"""Tests for the C-subset parser."""

import pytest

from repro.lang import nodes, parse
from repro.lang.errors import ParseError
from repro.lang.types import (
    ArrayType,
    FunctionType,
    INT,
    PointerType,
    StructType,
    VOID,
)


def first_decl(text):
    return parse(text).decls[0]


def func_body(text, name=None):
    unit = parse(text)
    for decl in unit.decls:
        if isinstance(decl, nodes.FuncDecl) and decl.is_definition:
            if name is None or decl.name == name:
                return decl.body
    raise AssertionError("no function definition found")


class TestDeclarations:
    def test_global_int(self):
        decl = first_decl("int x;")
        assert isinstance(decl, nodes.VarDecl)
        assert decl.name == "x"
        assert decl.type is INT
        assert decl.is_global

    def test_global_with_initializer(self):
        decl = first_decl("int x = 42;")
        assert isinstance(decl.init, nodes.IntLit)
        assert decl.init.value == 42

    def test_multiple_declarators(self):
        unit = parse("int a, *b, c[4];")
        types = [d.type for d in unit.decls]
        assert types[0] is INT
        assert isinstance(types[1], PointerType)
        assert isinstance(types[2], ArrayType)

    def test_pointer_to_pointer(self):
        decl = first_decl("char **argv;")
        assert isinstance(decl.type, PointerType)
        assert isinstance(decl.type.target, PointerType)

    def test_prototype(self):
        decl = first_decl("void *malloc(unsigned long size);")
        assert isinstance(decl, nodes.FuncDecl)
        assert not decl.is_definition
        assert isinstance(decl.ret, PointerType)
        assert decl.params[0].name == "size"

    def test_varargs_prototype(self):
        decl = first_decl("int printf(char *fmt, ...);")
        assert decl.varargs

    def test_void_param_list(self):
        decl = first_decl("int getpid(void);")
        assert decl.params == []

    def test_function_definition(self):
        decl = first_decl("int id(int x) { return x; }")
        assert decl.is_definition
        assert isinstance(decl.body.stmts[0], nodes.Return)

    def test_apr_pool_create_prototype(self):
        text = """
        typedef int apr_status_t;
        typedef struct apr_pool_t apr_pool_t;
        apr_status_t apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
        """
        unit = parse(text)
        proto = unit.decls[-1]
        assert isinstance(proto, nodes.FuncDecl)
        newp = proto.params[0].type
        assert isinstance(newp, PointerType)
        assert isinstance(newp.target, PointerType)
        assert isinstance(newp.target.target, StructType)
        assert newp.target.target.name == "apr_pool_t"


class TestTypedefsAndStructs:
    def test_typedef_struct_forward(self):
        unit = parse("typedef struct foo foo;\nfoo *p;")
        var = unit.decls[-1]
        assert isinstance(var.type, PointerType)
        assert isinstance(var.type.target, StructType)

    def test_struct_definition_with_fields(self):
        unit = parse(
            """
            struct request {
                struct conn *connection;
                int id;
            };
            """
        )
        struct = unit.structs["request"]
        assert struct.is_complete
        assert struct.field("connection").offset == 0
        assert struct.field("id").offset == 8

    def test_function_pointer_typedef(self):
        unit = parse("typedef int (*cleanup_t)(void *data);")
        decl = unit.decls[0]
        assert isinstance(decl, nodes.TypedefDecl)
        assert isinstance(decl.type, PointerType)
        assert isinstance(decl.type.target, FunctionType)

    def test_function_pointer_field(self):
        unit = parse(
            """
            struct ops {
                void (*destroy)(void *p);
            };
            """
        )
        field = unit.structs["ops"].field("destroy")
        assert isinstance(field.type, PointerType)
        assert isinstance(field.type.target, FunctionType)

    def test_function_pointer_local(self):
        body = func_body(
            """
            int localtime(int t);
            void f(void) {
                int (*mytime)(int timer);
                mytime = localtime;
            }
            """
        )
        decl = body.stmts[0].decl
        assert isinstance(decl.type, PointerType)
        assert isinstance(decl.type.target, FunctionType)

    def test_enum_constants(self):
        unit = parse("enum color { RED, GREEN = 5, BLUE };\nint x = BLUE;")
        assert unit.enum_constants == {"RED": 0, "GREEN": 5, "BLUE": 6}
        init = unit.decls[-1].init
        assert isinstance(init, nodes.IntLit)
        assert init.value == 6

    def test_union_parsed_as_struct(self):
        unit = parse("union u { int a; char b; };")
        assert unit.structs["u"].is_complete


class TestStatements:
    def test_if_else(self):
        body = func_body("void f(int c) { if (c) return; else c = 1; }")
        stmt = body.stmts[0]
        assert isinstance(stmt, nodes.If)
        assert stmt.other is not None

    def test_while(self):
        body = func_body("void f(int c) { while (c) c = c - 1; }")
        assert isinstance(body.stmts[0], nodes.While)

    def test_do_while(self):
        body = func_body("void f(int c) { do c = 1; while (c); }")
        assert isinstance(body.stmts[0], nodes.DoWhile)

    def test_for_with_declaration(self):
        body = func_body("void f(void) { for (int i = 0; i < 4; i++) {} }")
        stmt = body.stmts[0]
        assert isinstance(stmt, nodes.For)
        assert isinstance(stmt.init, nodes.VarDecl)

    def test_break_continue(self):
        body = func_body(
            "void f(int c) { while (c) { if (c) break; continue; } }"
        )
        loop_body = body.stmts[0].body
        assert isinstance(loop_body.stmts[0].then, nodes.Break)
        assert isinstance(loop_body.stmts[1], nodes.Continue)

    def test_local_declarations(self):
        body = func_body("void f(void) { int x = 1; int y; y = x; }")
        assert isinstance(body.stmts[0], nodes.DeclStmt)
        assert body.stmts[0].decl.name == "x"


class TestExpressions:
    def expr(self, text):
        body = func_body(f"int g; void f(int a, int b, char *p) {{ g = {text}; }}")
        return body.stmts[0].expr.value

    def test_precedence(self):
        expr = self.expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_logical_operators(self):
        expr = self.expr("a && b || a")
        assert expr.op == "||"
        assert expr.left.op == "&&"

    def test_ternary(self):
        expr = self.expr("a ? 1 : 2")
        assert isinstance(expr, nodes.Cond)

    def test_member_chain(self):
        body = func_body(
            """
            struct inner { int w; };
            struct outer { struct inner *in; };
            void f(struct outer *o) { o->in->w = 1; }
            """
        )
        target = body.stmts[0].expr.target
        assert isinstance(target, nodes.Member)
        assert target.name == "w"
        assert target.arrow
        assert target.base.name == "in"

    def test_cast_vs_parens(self):
        # (x) * p multiplies; (t *) p casts.
        body = func_body(
            """
            typedef int t;
            int g;
            void f(int x, int p) { g = (x) * p; }
            """
        )
        expr = body.stmts[0].expr.value
        assert isinstance(expr, nodes.Binary)
        assert expr.op == "*"

        body2 = func_body(
            """
            typedef struct s s;
            s *g;
            void f(void *p) { g = (s *)p; }
            """
        )
        expr2 = body2.stmts[0].expr.value
        assert isinstance(expr2, nodes.Cast)

    def test_sizeof_type_and_expr(self):
        expr = self.expr("sizeof(int)")
        assert isinstance(expr, nodes.SizeOf)
        expr2 = self.expr("sizeof a")
        assert isinstance(expr2, nodes.SizeOf)

    def test_address_of_and_deref(self):
        expr = self.expr("*p")
        assert isinstance(expr, nodes.Unary) and expr.op == "*"

    def test_null_literal(self):
        body = func_body("void f(char *p) { p = NULL; }")
        assert isinstance(body.stmts[0].expr.value, nodes.NullLit)

    def test_string_concatenation(self):
        body = func_body('char *g; void f(void) { g = "a" "b"; }')
        assert body.stmts[0].expr.value.value == "ab"

    def test_compound_assignment_desugar(self):
        body = func_body("void f(int x) { x += 2; }")
        assign = body.stmts[0].expr
        assert isinstance(assign, nodes.Assign)
        assert isinstance(assign.value, nodes.Binary)
        assert assign.value.op == "+"

    def test_increment_desugar(self):
        body = func_body("void f(int x) { x++; ++x; }")
        for stmt in body.stmts:
            assert isinstance(stmt.expr, nodes.Assign)

    def test_call_with_args(self):
        body = func_body(
            "int add(int a, int b); int g; void f(void) { g = add(1, 2); }"
        )
        call = body.stmts[0].expr.value
        assert isinstance(call, nodes.Call)
        assert len(call.args) == 2

    def test_index(self):
        body = func_body("void f(int *v) { v[3] = 1; }")
        target = body.stmts[0].expr.target
        assert isinstance(target, nodes.Index)


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_bad_token_in_expression(self):
        with pytest.raises(ParseError):
            parse("void f(void) { return }; }")

    def test_struct_field_function_type(self):
        with pytest.raises(ParseError):
            parse("struct s { int f(void); };")

    def test_unnamed_global_declarator(self):
        with pytest.raises(ParseError):
            parse("int *;")

    def test_error_carries_location(self):
        try:
            parse("int x\nint y;", filename="t.c")
        except ParseError as error:
            assert "t.c:2" in str(error)
        else:
            raise AssertionError("expected ParseError")


class TestTokenStreamReading:
    """The parser reads the lexer's flat token lists; these pin what a
    change to that reading could silently alter."""

    def test_string_literal_is_not_punctuation(self):
        body = func_body('int main(void) { "{"; f("(", ")"); return 0; }')
        first, call = body.stmts[0].expr, body.stmts[1].expr
        assert isinstance(first, nodes.StrLit) and first.value == "{"
        assert [arg.value for arg in call.args] == ["(", ")"]

    def test_string_after_an_operand_does_not_start_a_call(self):
        with pytest.raises(ParseError, match="expected ';', found '\\('"):
            parse('int main(void) { x "("; }')

    @pytest.mark.parametrize(
        "source, message",
        [
            ("int main(void) {", "t.c:1:17: unexpected token ''"),
            ("int main(void) { return", "t.c:1:24: unexpected token ''"),
            ("int main(void) { if (x) ", "t.c:1:25: unexpected token ''"),
            ("int main(void) { f(1,", "t.c:1:22: unexpected token ''"),
            ("int main(void) { a->", "t.c:1:21: expected identifier, found ''"),
            ("int x =", "t.c:1:8: unexpected token ''"),
            ("int a[", "t.c:1:7: expected ']', found ''"),
            ("int f(", "t.c:1:7: expected a type"),
            ("struct s {", "t.c:1:11: expected a type"),
            ("enum e { A =", "t.c:1:13: enumerator initializers must be integer literals"),
            ("typedef int", "t.c:1:1: typedef requires a name"),
        ],
    )
    def test_errors_at_end_of_input(self, source, message):
        with pytest.raises(ParseError) as err:
            parse(source, "t.c")
        assert str(err.value) == message
