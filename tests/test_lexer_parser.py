"""XMTC lexer and parser tests."""

import pytest

from repro.xmtc import ast_nodes as A
from repro.xmtc.errors import CompileError
from repro.xmtc.lexer import tokenize
from repro.xmtc.parser import parse
from repro.xmtc.types import Array, FLOAT, INT, Pointer, VOID


class TestLexer:
    def test_keywords_vs_idents(self):
        toks = tokenize("int spawnling spawn")
        assert [(t.kind, t.text) for t in toks[:3]] == [
            ("keyword", "int"), ("ident", "spawnling"), ("keyword", "spawn")]

    def test_numbers(self):
        toks = tokenize("42 0x1F 3.25 1e3 2.5f .5")
        kinds = [(t.kind, t.text) for t in toks[:-1]]
        assert kinds == [("int", "42"), ("int", "0x1F"), ("float", "3.25"),
                         ("float", "1e3"), ("float", "2.5f"), ("float", ".5")]

    def test_operators_longest_match(self):
        toks = tokenize("a <<= b >> c >= d")
        ops = [t.text for t in toks if t.kind == "op"]
        assert ops == ["<<=", ">>", ">="]

    def test_dollar(self):
        toks = tokenize("A[$]")
        assert [t.text for t in toks[:-1]] == ["A", "[", "$", "]"]

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\t\"q\""')
        assert toks[0].value if hasattr(toks[0], "value") else toks[0].text == 'a\nb\t"q"'

    def test_char_literal(self):
        toks = tokenize("'A' '\\n'")
        assert toks[0].kind == "int" and toks[0].text == str(ord("A"))
        assert toks[1].text == str(ord("\n"))

    def test_comments(self):
        toks = tokenize("a // line\n/* block\nmore */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(CompileError, match="unterminated comment"):
            tokenize("/* oops")

    def test_unterminated_string(self):
        with pytest.raises(CompileError, match="unterminated string"):
            tokenize('"oops')

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_unknown_char(self):
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("int `x;")

    # every lexical error with its message and position, as the
    # character-by-character lexer reported them
    @pytest.mark.parametrize("source,message,line,col", [
        ("x /* oops", "unterminated comment", 1, 3),
        ('a\n  "oops', "unterminated string literal", 2, 8),
        ('"ab', "unterminated string literal", 1, 4),
        ('a = "ab\ncd";', "newline in string literal", 1, 8),
        ('"a\\qb"', "unknown escape \\q", 1, 3),
        ('"ab\\', "dangling escape", 1, 4),
        ('\t"x\\', "dangling escape", 1, 4),
        ("x = 1e+;", "malformed float exponent", 1, 8),
        ("x = 2.5e;", "malformed float exponent", 1, 9),
        ("x = 3e", "malformed float exponent", 1, 7),
        ("c = 'ab';", "malformed character literal", 1, 5),
        ("c = '", "malformed character literal", 1, 5),
        ("c = '\\q';", "unknown escape \\q", 1, 5),
        ("int `x;", "unexpected character '`'", 1, 5),
        ("int main() {\n  y = @;\n}", "unexpected character '@'", 2, 7),
        ("/* a\nbc */ @", "unexpected character '@'", 2, 7),
    ])
    def test_lexical_errors(self, source, message, line, col):
        with pytest.raises(CompileError) as info:
            tokenize(source)
        assert (info.value.message, info.value.line, info.value.col) == (
            message, line, col)

    @pytest.mark.parametrize("source,tokens", [
        ("x /* 1\n2 */ y\n\"s\\t\" 0x1F 1.5e-3f <<= '\\n'", [
            ("ident", "x", 1, 1), ("ident", "y", 2, 6),
            ("string", "s\t", 3, 1), ("int", "0x1F", 3, 7),
            ("float", "1.5e-3f", 3, 12), ("op", "<<=", 3, 20),
            ("int", "10", 3, 24), ("eof", "", 3, 28)]),
        # the eof token keeps the column of a trailing line comment
        ("a // note", [("ident", "a", 1, 1), ("eof", "", 1, 3)]),
        ("0x1g 1.5.3", [("int", "0x1", 1, 1), ("ident", "g", 1, 4),
                        ("float", "1.5", 1, 6), ("float", ".3", 1, 9),
                        ("eof", "", 1, 11)]),
    ])
    def test_token_positions(self, source, tokens):
        assert [(t.kind, t.text, t.line, t.col)
                for t in tokenize(source)] == tokens

    @pytest.mark.parametrize("literal,value", [
        ("0", 0), ("00", 0), ("010", 8), ("0777", 511), ("42", 42),
        ("0x1F", 31), ("0X10", 16)])
    def test_integer_literals(self, literal, value):
        unit = parse(f"int R = {literal};")
        assert unit.globals[0].init.value == value

    @pytest.mark.parametrize("source,message,col", [
        ("R = 099;", "malformed integer literal '099'", 5),
        ("R = 08;", "malformed integer literal '08'", 5),
        ("R = 0x;", "malformed integer literal '0x'", 5),
        ("R = ²;", "unexpected character '²'", 5),
    ])
    def test_malformed_integer_literals(self, source, message, col):
        from repro.xmtc.compiler import compile_source

        with pytest.raises(CompileError) as info:
            compile_source("int R;\nint main() { " + source + " return 0; }")
        assert (info.value.message, info.value.line, info.value.col) == (
            message, 2, 13 + col)

    def test_identifiers_are_ascii(self):
        """A non-ASCII identifier used to reach the assembler as a label
        it rejects; it is a lexical error at its position."""
        from repro.xmtc.compiler import compile_source

        with pytest.raises(CompileError) as info:
            compile_source("int é; int main(){ é = 1; return 0; }")
        assert (info.value.message, info.value.line, info.value.col) == (
            "unexpected character 'é'", 1, 5)


class TestParserTopLevel:
    def test_globals(self):
        unit = parse("""
        int a = 5;
        volatile int f;
        float pi = 3.14;
        int arr[10];
        int init[3] = {1, 2, 3};
        psBaseReg int base = 0;
        int m[2][3];
        """)
        g = {v.name: v for v in unit.globals}
        assert g["a"].var_type == INT
        assert g["f"].volatile
        assert g["pi"].var_type == FLOAT
        assert g["arr"].var_type == Array(INT, 10)
        assert len(g["init"].init) == 3
        assert g["base"].ps_base_reg
        assert g["m"].var_type == Array(Array(INT, 3), 2)

    def test_multiple_declarators(self):
        unit = parse("int a, b = 2, *p;")
        names = [v.name for v in unit.globals]
        assert names == ["a", "b", "p"]
        assert unit.globals[2].var_type == Pointer(INT)

    def test_function_params(self):
        unit = parse("int f(int a, float* b, int c[]) { return a; }")
        f = unit.functions[0]
        assert f.return_type == INT
        assert [p.param_type for p in f.params] == [
            INT, Pointer(FLOAT), Pointer(INT)]

    def test_void_params(self):
        unit = parse("void f(void) { }")
        assert unit.functions[0].params == []

    def test_array_size_const_expr(self):
        unit = parse("int a[4 * 8 + 2];")
        assert unit.globals[0].var_type.size == 34

    def test_bad_array_size(self):
        with pytest.raises(CompileError):
            parse("int a[0];")


class TestParserStatements:
    def _body(self, text):
        unit = parse("int main() { %s }" % text)
        return unit.functions[0].body.stmts

    def test_spawn(self):
        stmts = self._body("spawn(0, n-1) { x = $; }")
        assert isinstance(stmts[0], A.SpawnStmt)
        assert isinstance(stmts[0].body.stmts[0], A.ExprStmt)

    def test_ps_psm_printf(self):
        stmts = self._body('ps(i, base); psm(i, A[0]); printf("%d", i);')
        assert isinstance(stmts[0], A.PsStmt)
        assert stmts[0].base_name == "base"
        assert isinstance(stmts[1], A.PsmStmt)
        assert isinstance(stmts[2], A.PrintfStmt)
        assert stmts[2].fmt == "%d"

    def test_for_with_decl(self):
        stmts = self._body("for (int i = 0; i < 10; i++) ;")
        loop = stmts[0]
        assert isinstance(loop, A.For)
        assert isinstance(loop.init, A.DeclStmt)

    def test_dangling_else(self):
        stmts = self._body("if (a) if (b) x = 1; else x = 2;")
        outer = stmts[0]
        assert outer.els is None
        assert outer.then.els is not None

    def test_do_while(self):
        stmts = self._body("do { x = 1; } while (x < 3);")
        assert isinstance(stmts[0], A.DoWhile)

    def test_break_continue_return(self):
        stmts = self._body("while (1) { break; continue; } return 5;")
        assert isinstance(stmts[1], A.Return)


class TestParserExpressions:
    def _expr(self, text):
        unit = parse("int main() { x = %s; }" % text)
        return unit.functions[0].body.stmts[0].expr.value

    def test_precedence_mul_over_add(self):
        e = self._expr("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_precedence_shift_vs_compare(self):
        e = self._expr("a << 2 < b")
        assert e.op == "<"
        assert e.left.op == "<<"

    def test_assoc_left(self):
        e = self._expr("10 - 3 - 2")
        assert e.op == "-" and e.left.op == "-"

    def test_ternary(self):
        e = self._expr("a ? b : c ? d : e")
        assert isinstance(e, A.Cond)
        assert isinstance(e.els, A.Cond)

    def test_assignment_right_assoc(self):
        unit = parse("int main() { a = b = 3; }")
        e = unit.functions[0].body.stmts[0].expr
        assert isinstance(e.value, A.Assign)

    def test_unary_chain(self):
        e = self._expr("-~!y")
        assert e.op == "-"
        assert e.operand.op == "~"
        assert e.operand.operand.op == "!"

    def test_cast_vs_paren(self):
        e = self._expr("(int)f + (g)")
        assert e.op == "+"
        assert isinstance(e.left, A.Cast)
        assert isinstance(e.right, A.VarRef)

    def test_call_and_index_postfix(self):
        e = self._expr("f(1, 2)[3]")
        assert isinstance(e, A.Index)
        assert isinstance(e.base, A.Call)
        assert len(e.base.args) == 2

    def test_incdec(self):
        e = self._expr("i++ + ++j")
        assert not e.left.is_prefix
        assert e.right.is_prefix

    def test_compound_assign_ops(self):
        for op in ("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="):
            unit = parse("int main() { a %s 2; }" % op)
            assert unit.functions[0].body.stmts[0].expr.op == op

    def test_unary_plus_is_noop(self):
        e = self._expr("+x")
        assert isinstance(e, A.VarRef)


class TestParserErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("int main() { if (x } }", "expected"),
        ("int main() { spawn(1) {} }", "expected"),
        ("int main() { x = ; }", "unexpected token"),
        ("int main() { printf(x); }", "string literal"),
        ("int f(int void) {}", "expected"),
        ("int a[x];", "constant"),
        ("int main() { psBaseReg int z; }", "global scope"),
        ("volatile int f() {}", "qualifiers"),
    ])
    def test_syntax_errors(self, source, fragment):
        with pytest.raises(CompileError, match=fragment):
            parse(source)

    def test_error_carries_position(self):
        try:
            parse("int main() {\n  x = ;\n}")
        except CompileError as e:
            assert e.line == 2
        else:
            pytest.fail("no error raised")


class TestNestingLimit:
    """Nesting deeper than ``MAX_NESTING`` is a positioned diagnostic;
    it used to be a ``RecursionError`` from the parser (150 parentheses,
    200 nested ``if`` blocks) or from a later stage (1000-term sums)."""

    @staticmethod
    def parens(levels):
        # printf is a level, each parenthesis one, the innermost x one
        return ('int main() { int x = 3; printf("%d", ' + "(" * (levels - 2)
                + "x" + ")" * (levels - 2) + "); return 0; }")

    @staticmethod
    def ifs(levels):
        # each ``if`` and its block are a level; ``x = -x;`` adds four,
        # ``x = -(x);`` five
        inner = "x = -(x);" if levels % 2 else "x = -x;"
        depth = (levels - 4) // 2
        return ("int main() { int x = 3; " + "if (x) { " * depth + inner
                + "}" * depth + ' printf("%d", x); return 0; }')

    def test_the_limit_compiles_and_runs(self):
        from repro.sim.functional import FunctionalSimulator
        from repro.xmtc.compiler import compile_source
        from repro.xmtc.parser import MAX_NESTING

        for source, out in ((self.parens(MAX_NESTING), "3"),
                            (self.ifs(MAX_NESTING), "-3"),
                            (self.ifs(MAX_NESTING - 1), "-3")):
            program = compile_source(source)
            assert FunctionalSimulator(program).run().output == out

    @pytest.mark.parametrize("build", ["parens", "ifs"])
    @pytest.mark.parametrize("extra", [1, 1000])
    def test_beyond_the_limit_is_positioned(self, build, extra):
        from repro.xmtc.compiler import compile_source
        from repro.xmtc.parser import MAX_NESTING

        source = getattr(self, build)(MAX_NESTING + extra)
        with pytest.raises(CompileError, match=(
                rf"nesting deeper than {MAX_NESTING} levels \(line 1:\d+\)")):
            compile_source(source)

    @pytest.mark.parametrize("source", [
        "int main() { int x; return " + "+".join(["x"] * 1000) + "; }",
        "int main() { int x; " + "x = " * 1000 + "1; return x; }",
        "int main() { int x; return " + "x ? 1 : " * 1000 + "2; }",
        "int A[4]; int main() { return " + "A[" * 1000 + "0" + "]" * 1000
        + "; }",
    ])
    def test_long_chains_are_positioned(self, source):
        from repro.xmtc.compiler import compile_source

        with pytest.raises(CompileError, match="nesting deeper"):
            compile_source(source)


class TestFrontEndFuzz:
    """Robustness: arbitrary input must produce CompileError diagnostics,
    never interpreter-level crashes."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_lexer_never_crashes(self, text):
        from repro.xmtc.lexer import tokenize

        try:
            tokenize(text)
        except CompileError:
            pass

    @given(st.text(alphabet="intflospawn main(){}[];=+-*/%$<>&|^!~?:,.0123456789abcxyz\"\n é²",
                   max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_crashes(self, text):
        try:
            parse(text)
        except CompileError:
            pass
        except RecursionError:
            pass  # pathological nesting depth is acceptable to reject

    @given(st.text(alphabet="intspawn main(){}[];=+$0123456789abcx,<\n é²",
                   max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_full_pipeline_never_crashes(self, text):
        """Only a diagnostic may come out: an ``AssemblerError`` or a
        ``ValueError`` from ``compile_source`` is a crash."""
        from repro.xmtc.compiler import compile_source

        try:
            compile_source(text)
        except CompileError:
            pass
