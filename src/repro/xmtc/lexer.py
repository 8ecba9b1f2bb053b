"""XMTC lexer.

XMTC is "a modest single-program multiple-data (SPMD) parallel extension
of C" (Section II-A): C tokens plus the ``spawn`` keyword, the ``$``
virtual-thread-ID token, the ``ps``/``psm`` prefix-sum builtins and the
``psBaseReg`` storage class for the global prefix-sum registers.
"""

from __future__ import annotations

import re
import string
from typing import List, NamedTuple

from repro.xmtc.errors import CompileError

KEYWORDS = {
    "int", "float", "void", "if", "else", "while", "for", "do", "return",
    "break", "continue", "spawn", "volatile", "psBaseReg", "const",
}

# operators by length, tried longest first
_OPERATORS = {
    3: {"<<=", ">>="},
    2: {"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"},
    1: set("+-*/%=<>!~&|^(){}[];,?:$"),
}

_SPACE = re.compile(r"[ \t\r]+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_IDENT_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)
# hex, or digits / fraction / exponent (sign, digits) / float suffix
_NUMBER = re.compile(r"0[xX][0-9a-fA-F]*|[0-9]*(\.[0-9]*)?"
                     r"(?:([eE][+-]?)([0-9]*))?([fF])?")
_INT_LITERAL = re.compile(r"0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*")
_STRING_RUN = re.compile(r'[^"\\\n]*')
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0", "%": "%"}
_CHAR_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'"}


class Token(NamedTuple):
    kind: str   # 'ident' | 'keyword' | 'int' | 'float' | 'string' | 'op' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def int_value(text: str) -> int:
    """The value of an ``int`` token's text (C: a leading 0 is octal)."""
    if len(text) > 1 and text[0] == "0" and text[1] not in "xX":
        return int(text, 8)
    return int(text, 0)


def tokenize(source: str) -> List[Token]:
    """Tokenize XMTC source; raises :class:`CompileError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    i = 0
    line = 1
    line_start = 0      # index of the current line's first character
    n = len(source)

    def error(msg: str, at: int) -> CompileError:
        return CompileError(msg, line, at - line_start + 1)

    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i = _SPACE.match(source, i).end()
            continue
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        col = i - line_start + 1
        if ch in _IDENT_START:
            end = _IDENT.match(source, i).end()
            text = source[i:end]
            append(Token("keyword" if text in KEYWORDS else "ident",
                         text, line, col))
            i = end
            continue
        nxt = source[i + 1:i + 2]
        if ch == "/" and nxt == "/":
            end = source.find("\n", i)
            if end < 0:
                break       # the eof token takes the comment's column
            i = end
            continue
        if ch == "/" and nxt == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise CompileError("unterminated comment", line, col)
            newlines = source.count("\n", i, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", i, end) + 1
            i = end + 2
            continue
        if ch in _DIGITS or (ch == "." and nxt in _DIGITS):
            m = _NUMBER.match(source, i)
            if m.group(2) is not None and not m.group(3):
                raise error("malformed float exponent", m.end(2))
            text = m.group()
            if m.group(1) is None and m.group(2) is None and not m.group(4):
                if not _INT_LITERAL.fullmatch(text):
                    raise CompileError(f"malformed integer literal {text!r}",
                                       line, col)
                append(Token("int", text, line, col))
            else:
                append(Token("float", text, line, col))
            i = m.end()
            continue
        # string literals (printf formats)
        if ch == '"':
            i += 1
            out = []
            while True:
                end = _STRING_RUN.match(source, i).end()
                out.append(source[i:end])
                i = end
                if i >= n:
                    raise error("unterminated string literal", i)
                c = source[i]
                if c == '"':
                    break
                if c == "\n":
                    raise error("newline in string literal", i)
                if i + 1 >= n:
                    raise error("dangling escape", i)
                mapped = _ESCAPES.get(source[i + 1])
                if mapped is None:
                    raise error(f"unknown escape \\{source[i + 1]}", i)
                out.append(mapped)
                i += 2
            i += 1
            append(Token("string", "".join(out), line, col))
            continue
        # character literals -> int tokens
        if ch == "'":
            if i + 2 < n and nxt != "\\" and source[i + 2] == "'":
                append(Token("int", str(ord(nxt)), line, col))
                i += 3
                continue
            if i + 3 < n and nxt == "\\" and source[i + 3] == "'":
                esc = _CHAR_ESCAPES.get(source[i + 2])
                if esc is None:
                    raise error(f"unknown escape \\{source[i + 2]}", i)
                append(Token("int", str(ord(esc)), line, col))
                i += 4
                continue
            raise error("malformed character literal", i)
        # operators / punctuation
        for size in (3, 2, 1):
            op = source[i:i + size]
            if op in _OPERATORS[size]:
                append(Token("op", op, line, col))
                i += size
                break
        else:
            raise error(f"unexpected character {ch!r}", i)
    append(Token("eof", "", line, i - line_start + 1))
    return tokens
