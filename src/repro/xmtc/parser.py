"""Recursive-descent parser for XMTC.

Produces a :class:`~repro.xmtc.ast_nodes.TranslationUnit`.  The grammar
is C's expression/statement core plus the XMT extensions:

- ``spawn ( expr , expr ) compound-statement``
- ``$`` as a primary expression
- ``ps(inc, base);`` and ``psm(inc, lvalue);`` statements
- ``psBaseReg`` storage class on global ``int`` declarations
- ``printf("fmt", args...);`` builtin
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.xmtc import ast_nodes as A
from repro.xmtc.errors import CompileError
from repro.xmtc.lexer import Token, int_value, tokenize
from repro.xmtc.types import Array, FLOAT, INT, Pointer, Type, VOID

_BIN_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: deepest nesting accepted (each statement, operand and chained operator
#: is a level); every later stage recurses over the tree, so deeper input
#: would exhaust Python's stack instead of failing with a position
MAX_NESTING = 100


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == kind and (text is None or tok.text == text)

    def at_op(self, text: str, offset: int = 0) -> bool:
        tok = self.tokens[self.pos] if not offset else self.peek(offset)
        return tok.text == text and tok.kind == "op"

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.next()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_op(text):
            raise CompileError(f"expected {text!r}, found {tok.text!r}",
                               tok.line, tok.col)
        return self.next()

    def expect_kw(self, text: str) -> Token:
        tok = self.peek()
        if not self.at("keyword", text):
            raise CompileError(f"expected {text!r}, found {tok.text!r}",
                               tok.line, tok.col)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise CompileError(f"expected identifier, found {tok.text!r}",
                               tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> CompileError:
        tok = self.peek()
        return CompileError(message, tok.line, tok.col)

    def nest(self) -> None:
        """Enter one level of nesting; the caller leaves it with
        ``self.depth -= 1`` (an error abandons the parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    # -- types ------------------------------------------------------------------

    def at_type_start(self, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == "keyword" and tok.text in (
            "int", "float", "void", "volatile", "const", "psBaseReg")

    def parse_qualifiers(self) -> Tuple[bool, bool]:
        """Returns (volatile, psBaseReg); ``const`` is accepted and ignored."""
        volatile = False
        ps_base = False
        while True:
            if self.at("keyword", "volatile"):
                self.next()
                volatile = True
            elif self.at("keyword", "const"):
                self.next()
            elif self.at("keyword", "psBaseReg"):
                self.next()
                ps_base = True
            else:
                return volatile, ps_base

    def parse_base_type(self) -> Type:
        tok = self.peek()
        if self.at("keyword", "int"):
            self.next()
            return INT
        if self.at("keyword", "float"):
            self.next()
            return FLOAT
        if self.at("keyword", "void"):
            self.next()
            return VOID
        raise CompileError(f"expected a type, found {tok.text!r}", tok.line, tok.col)

    def parse_pointers(self, base: Type) -> Type:
        while self.accept_op("*"):
            base = Pointer(base)
        return base

    def parse_array_suffix(self, base: Type, tok: Token) -> Type:
        """``[N][M]...`` suffixes on a declarator; sizes are constant."""
        sizes: List[int] = []
        while self.at_op("["):
            self.next()
            size = self.parse_const_int()
            self.expect_op("]")
            sizes.append(size)
        for size in reversed(sizes):
            try:
                base = Array(base, size)
            except ValueError as exc:
                raise CompileError(f"array {tok.text!r}: {exc}",
                                   tok.line, tok.col) from None
        return base

    def parse_const_int(self) -> int:
        expr = self.parse_conditional()
        value = _const_eval(expr)
        if value is None:
            raise CompileError("expected a constant integer expression",
                               expr.line, expr.col)
        return value

    # -- top level ------------------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        globals_: List[A.GlobalVar] = []
        functions: List[A.FuncDef] = []
        while not self.at("eof"):
            volatile, ps_base = self.parse_qualifiers()
            tok = self.peek()
            base = self.parse_base_type()
            base = self.parse_pointers(base)
            name_tok = self.expect_ident()
            if self.at_op("("):
                if volatile or ps_base:
                    raise CompileError("qualifiers not allowed on functions",
                                       tok.line, tok.col)
                functions.append(self.parse_function(base, name_tok))
            else:
                globals_.extend(
                    self.parse_global_decl(base, name_tok, volatile, ps_base))
        return A.TranslationUnit(globals_, functions)

    def parse_function(self, return_type: Type, name_tok: Token) -> A.FuncDef:
        self.expect_op("(")
        params: List[A.Param] = []
        if not self.at_op(")"):
            if self.at("keyword", "void") and self.at_op(")", 1):
                self.next()
            else:
                while True:
                    ptok = self.peek()
                    base = self.parse_base_type()
                    base = self.parse_pointers(base)
                    pname = self.expect_ident()
                    # array params decay to pointers (sizes ignored)
                    while self.at_op("["):
                        self.next()
                        if not self.at_op("]"):
                            self.parse_const_int()
                        self.expect_op("]")
                        base = Pointer(base)
                    if base.is_void():
                        raise CompileError("parameter cannot have void type",
                                           ptok.line, ptok.col)
                    params.append(A.Param(pname.text, base, pname.line, pname.col))
                    if not self.accept_op(","):
                        break
        self.expect_op(")")
        body = self.parse_block()
        return A.FuncDef(name_tok.text, return_type, params, body,
                         name_tok.line, name_tok.col)

    def parse_global_decl(self, first_type: Type, name_tok: Token,
                          volatile: bool, ps_base: bool) -> List[A.GlobalVar]:
        out: List[A.GlobalVar] = []
        base_scalar = first_type
        tok = name_tok
        while True:
            var_type = self.parse_array_suffix(base_scalar, tok)
            init = None
            if self.accept_op("="):
                init = self.parse_global_init(var_type)
            out.append(A.GlobalVar(tok.text, var_type, init, volatile, ps_base,
                                   tok.line, tok.col))
            if not self.accept_op(","):
                break
            # subsequent declarators share the base type but may add '*'
            extra = self.parse_pointers(base_scalar)
            tok = self.expect_ident()
            base_scalar = extra
        self.expect_op(";")
        return out

    def parse_global_init(self, var_type: Type):
        if var_type.is_array():
            self.expect_op("{")
            values: List[A.Expr] = []
            if not self.at_op("}"):
                while True:
                    values.append(self.parse_conditional())
                    if not self.accept_op(","):
                        break
            self.expect_op("}")
            return values
        return self.parse_conditional()

    # -- statements --------------------------------------------------------------------

    def parse_block(self) -> A.Block:
        tok = self.expect_op("{")
        stmts: List[A.Stmt] = []
        while not self.at_op("}"):
            if self.at("eof"):
                raise CompileError("unterminated block", tok.line, tok.col)
            stmts.append(self.parse_statement())
        self.next()
        return A.Block(stmts, tok.line, tok.col)

    def parse_statement(self) -> A.Stmt:
        self.nest()
        stmt = self._statement()
        self.depth -= 1
        return stmt

    def _statement(self) -> A.Stmt:
        tok = self.peek()
        if self.at_op("{"):
            return self.parse_block()
        if self.at_op(";"):
            self.next()
            return A.Empty(tok.line, tok.col)
        if self.at("keyword", "if"):
            return self.parse_if()
        if self.at("keyword", "while"):
            return self.parse_while()
        if self.at("keyword", "do"):
            return self.parse_do_while()
        if self.at("keyword", "for"):
            return self.parse_for()
        if self.at("keyword", "return"):
            self.next()
            value = None if self.at_op(";") else self.parse_expression()
            self.expect_op(";")
            return A.Return(value, tok.line, tok.col)
        if self.at("keyword", "break"):
            self.next()
            self.expect_op(";")
            return A.Break(tok.line, tok.col)
        if self.at("keyword", "continue"):
            self.next()
            self.expect_op(";")
            return A.Continue(tok.line, tok.col)
        if self.at("keyword", "spawn"):
            return self.parse_spawn()
        if self.at_type_start():
            return self.parse_decl_stmt()
        if self.at("ident", "ps") and self.at_op("(", 1):
            return self.parse_ps()
        if self.at("ident", "psm") and self.at_op("(", 1):
            return self.parse_psm()
        if self.at("ident", "printf") and self.at_op("(", 1):
            return self.parse_printf()
        expr = self.parse_expression()
        self.expect_op(";")
        return A.ExprStmt(expr, tok.line, tok.col)

    def parse_if(self) -> A.If:
        tok = self.expect_kw("if")
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        then = self.parse_statement()
        els = None
        if self.at("keyword", "else"):
            self.next()
            els = self.parse_statement()
        return A.If(cond, then, els, tok.line, tok.col)

    def parse_while(self) -> A.While:
        tok = self.expect_kw("while")
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return A.While(cond, body, tok.line, tok.col)

    def parse_do_while(self) -> A.DoWhile:
        tok = self.expect_kw("do")
        body = self.parse_statement()
        self.expect_kw("while")
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        self.expect_op(";")
        return A.DoWhile(body, cond, tok.line, tok.col)

    def parse_for(self) -> A.For:
        tok = self.expect_kw("for")
        self.expect_op("(")
        init: Optional[A.Stmt] = None
        if not self.at_op(";"):
            if self.at_type_start():
                init = self.parse_decl_stmt()
            else:
                expr = self.parse_expression()
                self.expect_op(";")
                init = A.ExprStmt(expr, expr.line, expr.col)
        else:
            self.next()
        cond = None if self.at_op(";") else self.parse_expression()
        self.expect_op(";")
        update = None if self.at_op(")") else self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return A.For(init, cond, update, body, tok.line, tok.col)

    def parse_spawn(self) -> A.SpawnStmt:
        tok = self.expect_kw("spawn")
        self.expect_op("(")
        low = self.parse_assignment()
        self.expect_op(",")
        high = self.parse_assignment()
        self.expect_op(")")
        body = self.parse_block()
        return A.SpawnStmt(low, high, body, tok.line, tok.col)

    def parse_decl_stmt(self) -> A.DeclStmt:
        tok = self.peek()
        volatile, ps_base = self.parse_qualifiers()
        if ps_base:
            raise CompileError("psBaseReg is only allowed at global scope",
                               tok.line, tok.col)
        base = self.parse_base_type()
        if base.is_void():
            raise CompileError("variables cannot have void type", tok.line, tok.col)
        decls: List[A.VarDecl] = []
        while True:
            dtype = self.parse_pointers(base)
            name = self.expect_ident()
            dtype = self.parse_array_suffix(dtype, name)
            init = None
            if self.accept_op("="):
                init = self.parse_assignment()
            decls.append(A.VarDecl(name.text, dtype, init, volatile,
                                   name.line, name.col))
            if not self.accept_op(","):
                break
        self.expect_op(";")
        return A.DeclStmt(decls, tok.line, tok.col)

    def parse_ps(self) -> A.PsStmt:
        tok = self.next()  # 'ps'
        self.expect_op("(")
        inc = self.parse_assignment()
        self.expect_op(",")
        base = self.expect_ident()
        self.expect_op(")")
        self.expect_op(";")
        return A.PsStmt(inc, base.text, tok.line, tok.col)

    def parse_psm(self) -> A.PsmStmt:
        tok = self.next()  # 'psm'
        self.expect_op("(")
        inc = self.parse_assignment()
        self.expect_op(",")
        target = self.parse_assignment()
        self.expect_op(")")
        self.expect_op(";")
        return A.PsmStmt(inc, target, tok.line, tok.col)

    def parse_printf(self) -> A.PrintfStmt:
        tok = self.next()  # 'printf'
        self.expect_op("(")
        fmt_tok = self.peek()
        if fmt_tok.kind != "string":
            raise CompileError("printf expects a string literal format",
                               fmt_tok.line, fmt_tok.col)
        self.next()
        args: List[A.Expr] = []
        while self.accept_op(","):
            args.append(self.parse_assignment())
        self.expect_op(")")
        self.expect_op(";")
        return A.PrintfStmt(fmt_tok.text, args, tok.line, tok.col)

    # -- expressions -----------------------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        """Comma is not an operator in XMTC; expression = assignment."""
        return self.parse_assignment()

    def parse_assignment(self) -> A.Expr:
        left = self.parse_conditional()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self.next()
            self.nest()
            value = self.parse_assignment()
            self.depth -= 1
            return A.Assign(tok.text, left, value, tok.line, tok.col)
        return left

    def parse_conditional(self) -> A.Expr:
        cond = self.parse_binary(1)
        if self.at_op("?"):
            tok = self.next()
            self.nest()
            then = self.parse_assignment()
            self.expect_op(":")
            els = self.parse_conditional()
            self.depth -= 1
            return A.Cond(cond, then, els, tok.line, tok.col)
        return cond

    def parse_binary(self, min_prec: int) -> A.Expr:
        left = self.parse_unary()
        depth = self.depth
        while True:
            tok = self.peek()
            prec = _BIN_PRECEDENCE.get(tok.text) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                self.depth = depth
                return left
            self.next()
            self.nest()     # each operator nests ``left`` one level deeper
            right = self.parse_binary(prec + 1)
            left = A.Binary(tok.text, left, right, tok.line, tok.col)

    def parse_unary(self) -> A.Expr:
        self.nest()
        expr = self._unary()
        self.depth -= 1
        return expr

    def _unary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "!", "~", "*", "&", "+"):
            self.next()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return A.Unary(tok.text, operand, tok.line, tok.col)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.next()
            target = self.parse_unary()
            return A.IncDec(tok.text, True, target, tok.line, tok.col)
        # cast: '(' type-keyword ... ')'
        if self.at_op("(") and self.at_type_start(1):
            self.next()
            base = self.parse_base_type()
            base = self.parse_pointers(base)
            self.expect_op(")")
            operand = self.parse_unary()
            return A.Cast(base, operand, tok.line, tok.col)
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if self.at_op("["):
                self.next()
                index = self.parse_expression()
                self.expect_op("]")
                expr = A.Index(expr, index, tok.line, tok.col)
            elif self.at_op("(") and isinstance(expr, A.VarRef):
                self.next()
                args: List[A.Expr] = []
                if not self.at_op(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
                expr = A.Call(expr.name, args, tok.line, tok.col)
            elif tok.kind == "op" and tok.text in ("++", "--"):
                self.next()
                expr = A.IncDec(tok.text, False, expr, tok.line, tok.col)
            else:
                return expr

    def parse_primary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return A.IntLit(int_value(tok.text), tok.line, tok.col)
        if tok.kind == "float":
            self.next()
            return A.FloatLit(float(tok.text.rstrip("fF")), tok.line, tok.col)
        if tok.kind == "string":
            self.next()
            return A.StrLit(tok.text, tok.line, tok.col)
        if tok.kind == "ident":
            self.next()
            ref = A.VarRef(tok.text, tok.line, tok.col)
            return ref
        if self.at_op("$"):
            self.next()
            return A.Dollar(tok.line, tok.col)
        if self.at_op("("):
            self.next()
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise CompileError(f"unexpected token {tok.text!r} in expression",
                           tok.line, tok.col)


def _const_eval(expr: A.Expr) -> Optional[int]:
    """Minimal constant folding for array sizes."""
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = _const_eval(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, A.Binary):
        a = _const_eval(expr.left)
        b = _const_eval(expr.right)
        if a is None or b is None:
            return None
        try:
            return {
                "+": a + b, "-": a - b, "*": a * b,
                "/": a // b if b else None,
                "%": a % b if b else None,
                "<<": a << b, ">>": a >> b,
            }.get(expr.op)
        except (ValueError, TypeError):  # pragma: no cover
            return None
    return None


def parse(source: str) -> A.TranslationUnit:
    """Parse XMTC source into an AST."""
    return Parser(source).parse_translation_unit()
