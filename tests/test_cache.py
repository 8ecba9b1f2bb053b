"""Cache-hierarchy unit tests: tag arrays, address hashing, modules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_asm_cycle
from repro.sim.cache import CacheArray
from repro.sim.config import tiny
from repro.sim.packages import hash_address


class TestCacheArray:
    def test_miss_then_hit(self):
        arr = CacheArray(sets=4, assoc=2, line_words=4)
        assert not arr.lookup(0x1000)
        arr.fill(0x1000)
        assert arr.lookup(0x1000)
        # same line, different word
        assert arr.lookup(0x100C)
        # different line
        assert not arr.lookup(0x1010)

    def test_lru_eviction(self):
        arr = CacheArray(sets=1, assoc=2, line_words=1)
        arr.fill(0x00)  # line 0
        arr.fill(0x04)  # line 1
        arr.lookup(0x00)  # touch line 0 -> line 1 is LRU
        victim = arr.fill(0x08)
        assert victim is not None
        assert victim[0] == 0x04 >> 2  # line 1 evicted

    def test_dirty_tracking(self):
        arr = CacheArray(sets=1, assoc=1, line_words=1)
        arr.fill(0x00, dirty=True)
        victim = arr.fill(0x04)
        assert victim == (0, True)
        victim = arr.fill(0x08)
        assert victim == (1, False)

    def test_write_lookup_marks_dirty(self):
        arr = CacheArray(sets=1, assoc=1, line_words=1)
        arr.fill(0x00)
        arr.lookup(0x00, write=True)
        victim = arr.fill(0x04)
        assert victim[1] is True

    def test_invalidate_all_counts_dirty(self):
        arr = CacheArray(sets=2, assoc=2, line_words=1)
        arr.fill(0x00, dirty=True)
        arr.fill(0x04)
        arr.fill(0x08, dirty=True)
        assert arr.invalidate_all() == 2
        assert arr.occupancy() == 0

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_occupancy_bounded(self, addrs):
        arr = CacheArray(sets=4, assoc=2, line_words=4)
        for a in addrs:
            arr.fill(a * 4)
        assert arr.occupancy() <= 8


class TestHashAddress:
    def test_range(self):
        for n in (1, 2, 3, 7, 8, 128):
            for addr in range(0, 4096, 4):
                assert 0 <= hash_address(addr, n) < n

    def test_deterministic(self):
        assert hash_address(0x1234 & ~3, 8) == hash_address(0x1234 & ~3, 8)

    def test_spreads_strided_accesses(self):
        """Hashing exists to avoid hot-spots: a strided sweep must not
        land on one module (the failure mode of low-bit interleaving)."""
        n = 8
        hits = [0] * n
        for i in range(256):
            hits[hash_address(0x1000 + i * 32, n)] += 1
        assert max(hits) < 3 * (256 // n)
        assert min(hits) > 0

    def test_single_module(self):
        assert hash_address(0x4000, 1) == 0


class TestCacheModulesIntegration:
    def test_mshr_merging(self):
        """Concurrent misses to one line merge into one DRAM fetch."""
        _, res = run_asm_cycle("""
            .data
        X:  .word 7
            .text
        main:
            li   $t0, 0
            li   $t1, 3
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, X
            lw   $t3, 0($t2)
            j    vt
            join
            halt
        """)
        stats = res.stats
        assert stats.get("cache.mshr_merge") > 0
        # far fewer DRAM reads than misses thanks to merging
        assert stats.get("dram.read") < stats.get("cache.miss")

    def test_write_back_on_eviction(self):
        """Dirty lines written back to DRAM when evicted."""
        cfg = tiny(cache_sets=2, cache_assoc=1, cache_line_words=1)
        _, res = run_asm_cycle("""
            .data
        A:  .space 4096
            .text
        main:
            li   $t0, 0
            li   $t1, 31
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, A
            slli $t3, $k0, 5
            add  $t2, $t2, $t3
            sw   $k0, 0($t2)
            j    vt
            join
            halt
        """, config=cfg)
        assert res.stats.get("cache.writeback") > 0
        assert res.stats.get("dram.write") > 0

    def test_cache_hits_after_warmup(self):
        """Second sweep over the same small array mostly hits."""
        _, res = run_asm_cycle("""
            .data
        A:  .space 64
            .text
        main:
            li   $t5, 0
        again:
            li   $t0, 0
            li   $t1, 15
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, A
            slli $t3, $k0, 2
            add  $t2, $t2, $t3
            lw   $t4, 0($t2)
            j    vt
            join
            addi $t5, $t5, 1
            slti $at, $t5, 3
            bnez $at, again
            halt
        """)
        assert res.stats.get("cache.hit") > res.stats.get("cache.miss")

    def test_address_partitioning_disjoint(self):
        """Each module only ever sees its own hash partition."""
        _, res = run_asm_cycle("""
            .data
        A:  .space 512
            .text
        main:
            li   $t0, 0
            li   $t1, 127
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, A
            slli $t3, $k0, 2
            add  $t2, $t2, $t3
            sw   $k0, 0($t2)
            j    vt
            join
            halt
        """)
        # both tiny() modules participated
        machine_hits = res.stats.get("cache.hit") + res.stats.get("cache.miss")
        assert machine_hits >= 128
