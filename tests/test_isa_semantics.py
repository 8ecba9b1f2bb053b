"""Unit tests for the operational definitions: each row's callable in
``repro.isa.instructions.TABLE`` and the helpers of ``repro.isa.semantics``."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import semantics as S
from repro.isa.instructions import TABLE

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
S32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestSignedness:
    def test_to_signed_positive(self):
        assert S.to_signed(5) == 5

    def test_to_signed_negative(self):
        assert S.to_signed(0xFFFFFFFF) == -1
        assert S.to_signed(0x80000000) == -(2**31)

    def test_to_unsigned_wraps(self):
        assert S.to_unsigned(-1) == 0xFFFFFFFF
        assert S.to_unsigned(2**32 + 7) == 7

    @given(U32)
    def test_roundtrip(self, x):
        assert S.to_unsigned(S.to_signed(x)) == x


class TestIntOps:
    def test_add_wraps(self):
        assert TABLE["add"].fn(0xFFFFFFFF, 1) == 0

    def test_sub_wraps(self):
        assert S.to_signed(TABLE["sub"].fn(0, 1)) == -1

    def test_mul_signed(self):
        assert S.to_signed(TABLE["mul"].fn(S.to_unsigned(-3), 7)) == -21

    def test_div_truncates_toward_zero(self):
        assert S.to_signed(TABLE["div"].fn(S.to_unsigned(-7), 2)) == -3
        assert S.to_signed(TABLE["div"].fn(7, S.to_unsigned(-2))) == -3

    def test_rem_sign_follows_dividend(self):
        assert S.to_signed(TABLE["rem"].fn(S.to_unsigned(-7), 2)) == -1
        assert S.to_signed(TABLE["rem"].fn(7, S.to_unsigned(-2))) == 1

    def test_div_by_zero_traps(self):
        with pytest.raises(S.TrapError):
            TABLE["div"].fn(1, 0)
        with pytest.raises(S.TrapError):
            TABLE["rem"].fn(1, 0)

    def test_sra_is_arithmetic(self):
        assert S.to_signed(TABLE["sra"].fn(S.to_unsigned(-8), 1)) == -4

    def test_srl_is_logical(self):
        assert TABLE["srl"].fn(0x80000000, 31) == 1

    def test_shift_amount_masked(self):
        assert TABLE["sll"].fn(1, 33) == 2  # 33 & 31 == 1

    def test_comparisons_signed(self):
        neg1 = S.to_unsigned(-1)
        assert TABLE["slt"].fn(neg1, 0) == 1
        assert TABLE["sltu"].fn(neg1, 0) == 0
        assert TABLE["sge"].fn(5, 5) == 1
        assert TABLE["sgt"].fn(5, 5) == 0
        assert TABLE["sle"].fn(neg1, neg1) == 1
        assert TABLE["seq"].fn(3, 3) == 1
        assert TABLE["sne"].fn(3, 3) == 0

    def test_imm_aliases(self):
        assert TABLE["addi"].fn(2, 3) == TABLE["add"].fn(2, 3)
        assert TABLE["slli"].fn(1, 4) == 16

    def test_nor(self):
        assert TABLE["nor"].fn(0, 0) == 0xFFFFFFFF

    @given(S32, S32)
    @settings(max_examples=200)
    def test_div_rem_identity(self, a, b):
        if b == 0:
            return
        ua, ub = S.to_unsigned(a), S.to_unsigned(b)
        q = S.to_signed(TABLE["div"].fn(ua, ub))
        r = S.to_signed(TABLE["rem"].fn(ua, ub))
        if abs(q) < 2**31:  # skip INT_MIN/-1 overflow corner
            assert q * b + r == a


class TestFloatOps:
    def test_f32_roundtrip(self):
        for v in (0.0, 1.5, -2.25, 1e10, -1e-10, math.pi):
            bits = S.f32_to_bits(v)
            assert S.bits_to_f32(bits) == struct.unpack("<f", struct.pack("<f", v))[0]

    def test_fadd(self):
        a = S.f32_to_bits(1.5)
        b = S.f32_to_bits(2.25)
        assert S.bits_to_f32(TABLE["fadd"].fn(a, b)) == 3.75

    def test_fdiv_by_zero_is_inf(self):
        a = S.f32_to_bits(1.0)
        z = S.f32_to_bits(0.0)
        assert S.bits_to_f32(TABLE["fdiv"].fn(a, z)) == math.inf

    def test_fdiv_zero_by_zero_is_nan(self):
        z = S.f32_to_bits(0.0)
        result = S.bits_to_f32(TABLE["fdiv"].fn(z, z))
        assert result != result

    def test_float_compare(self):
        a = S.f32_to_bits(1.0)
        b = S.f32_to_bits(2.0)
        assert TABLE["flt"].fn(a, b) == 1
        assert TABLE["fle"].fn(a, a) == 1
        assert TABLE["feq"].fn(a, b) == 0

    def test_itof_ftoi(self):
        assert S.bits_to_f32(TABLE["itof"].fn(S.to_unsigned(-7))) == -7.0
        assert S.to_signed(TABLE["ftoi"].fn(S.f32_to_bits(-3.99))) == -3

    def test_ftoi_saturates(self):
        big = S.f32_to_bits(1e30)
        assert S.to_signed(TABLE["ftoi"].fn(big)) == 0x7FFFFFFF

    def test_ftoi_nan_is_zero(self):
        nan = S.f32_to_bits(math.nan)
        assert TABLE["ftoi"].fn(nan) == 0

    def test_fneg(self):
        assert S.bits_to_f32(TABLE["fneg"].fn(S.f32_to_bits(2.5))) == -2.5

    def test_overflow_rounds_to_inf(self):
        huge = S.f32_to_bits(3e38)
        out = S.bits_to_f32(TABLE["fmul"].fn(huge, huge))
        assert out == math.inf

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=200)
    def test_fadd_matches_numpy_float32(self, a, b):
        import numpy as np

        got = S.bits_to_f32(TABLE["fadd"].fn(S.f32_to_bits(a), S.f32_to_bits(b)))
        want = float(np.float32(np.float32(a) + np.float32(b)))
        assert got == want


class TestAddressCheck:
    def test_alignment(self):
        with pytest.raises(S.TrapError):
            S.check_word_addr(0x1002)

    def test_null(self):
        with pytest.raises(S.TrapError):
            S.check_word_addr(0)

    def test_ok(self):
        assert S.check_word_addr(0x1004) == 0x1004


class TestFormatPrint:
    def test_basic(self):
        assert S.format_print("x=%d y=%u\n", [S.to_unsigned(-1), 5]) == \
            "x=-1 y=5\n"

    def test_hex_and_percent(self):
        assert S.format_print("%x%%", [255]) == "ff%"

    def test_float(self):
        assert S.format_print("%f", [S.f32_to_bits(1.5)]) == "1.500000"

    def test_too_few_args(self):
        with pytest.raises(S.TrapError):
            S.format_print("%d %d", [1])

    def test_bad_spec(self):
        with pytest.raises(S.TrapError):
            S.format_print("%q", [1])

    def test_dangling_percent(self):
        with pytest.raises(S.TrapError):
            S.format_print("abc%", [])


class TestBranchConds:
    def test_all(self):
        neg = S.to_unsigned(-5)
        assert TABLE["beq"].fn(3, 3)
        assert TABLE["bne"].fn(3, 4)
        assert TABLE["blez"].fn(0, 0)
        assert TABLE["blez"].fn(neg, 0)
        assert not TABLE["bgtz"].fn(neg, 0)
        assert TABLE["bltz"].fn(neg, 0)
        assert TABLE["bgez"].fn(0, 0)
