"""The XMTC type system: int, float, void, pointers, arrays.

Deliberately the C subset the XMT toolchain manual documents for the
teaching workflow -- no structs, unions or function pointers.  ``int``
is 32-bit two's complement; ``float`` is IEEE-754 single precision
(matching the simulator's FPU model, which "enabled the publication"
[23] per Section II-B).
"""

from __future__ import annotations

from typing import Optional


class Type:
    def is_int(self) -> bool:
        return False

    def is_float(self) -> bool:
        return False

    def is_void(self) -> bool:
        return False

    def is_pointer(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False

    def is_arith(self) -> bool:
        return self.is_int() or self.is_float()

    def is_scalar(self) -> bool:
        return self.is_arith() or self.is_pointer()

    def sizeof(self) -> int:
        raise NotImplementedError

    def decay(self) -> "Type":
        """Array-to-pointer decay (used in expression contexts)."""
        return self


class _Int(Type):
    def is_int(self):
        return True

    def sizeof(self):
        return 4

    def __repr__(self):
        return "int"

    def __eq__(self, other):
        return isinstance(other, _Int)

    def __hash__(self):
        return hash("int")


class _Float(Type):
    def is_float(self):
        return True

    def sizeof(self):
        return 4

    def __repr__(self):
        return "float"

    def __eq__(self, other):
        return isinstance(other, _Float)

    def __hash__(self):
        return hash("float")


class _Void(Type):
    def is_void(self):
        return True

    def sizeof(self):
        return 0

    def __repr__(self):
        return "void"

    def __eq__(self, other):
        return isinstance(other, _Void)

    def __hash__(self):
        return hash("void")


INT = _Int()
FLOAT = _Float()
VOID = _Void()


class Pointer(Type):
    def __init__(self, base: Type):
        self.base = base

    def is_pointer(self):
        return True

    def sizeof(self):
        return 4

    def __repr__(self):
        return f"{self.base!r}*"

    def __eq__(self, other):
        return isinstance(other, Pointer) and self.base == other.base

    def __hash__(self):
        return hash(("ptr", self.base))


class Array(Type):
    """``T[size]``; multi-dimensional arrays nest (``Array(Array(T,m),n)``)."""

    def __init__(self, elem: Type, size: int):
        if size <= 0:
            raise ValueError("array size must be positive")
        self.elem = elem
        self.size = size
        if self.sizeof() >= 2 ** 32:
            raise ValueError(f"{self.sizeof()} bytes do not fit the 32-bit "
                             "address space")

    def is_array(self):
        return True

    def sizeof(self):
        return self.elem.sizeof() * self.size

    def decay(self):
        return Pointer(self.elem)

    def element_base(self) -> Type:
        """The ultimate scalar element type."""
        t: Type = self
        while isinstance(t, Array):
            t = t.elem
        return t

    def n_words(self) -> int:
        return self.sizeof() // 4

    def __repr__(self):
        return f"{self.elem!r}[{self.size}]"

    def __eq__(self, other):
        return (isinstance(other, Array) and self.elem == other.elem
                and self.size == other.size)

    def __hash__(self):
        return hash(("arr", self.elem, self.size))


def common_arith(a: Type, b: Type) -> Optional[Type]:
    """Usual arithmetic conversions over {int, float}."""
    if not (a.is_arith() and b.is_arith()):
        return None
    if a.is_float() or b.is_float():
        return FLOAT
    return INT
