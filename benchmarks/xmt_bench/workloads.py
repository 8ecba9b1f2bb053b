"""The seven workloads: what each round runs and how its outputs are
checked.  Why each exists is in ``spec.WORKLOADS`` and the README.

A workload is built from ``(seed, smoke)``; ``prepare()`` generates the
inputs (and precompiles, where users would too) and ``round()`` does
the measured work once, returning a :class:`Round` with the operations
attempted, the failures found, the exact simulated/compiled work counts
and any named sub-timings.  Every round builds fresh ``Simulator``
objects, so machine construction is inside the stopwatch and modelled
caches start cold.
"""

from __future__ import annotations

import copy
import gc
import os
import random
import shutil
import tempfile
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.isa.decode import decode_program
from repro.isa.semantics import bits_to_f32
from repro.sim.config import chip1024, fpga64
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import Simulator
from repro.sim.observability import (
    CycleAccountant, CycleProfiler, EventStream, FlightRecorder, Ledger,
    MetricsRegistry, Observability, RunArtifacts, TelemetrySampler,
    build_manifest, export_accounting, export_metrics, instrumented_run)
from repro.toolchain.driver import compile_and_run
from repro.workloads import microbench as MB
from repro.workloads import programs as W
from repro.xmtc.analysis.linter import collect_litmus_cases, lint_source
from repro.xmtc.compiler import CompileOptions, compile_source, compile_to_asm
from repro.xmtc.fuzz.generator import generate

import calibration
import spec
from staged import compile_staged


@dataclass
class Prog:
    """One program under test plus the reference it is checked against.

    ``verify(read, expected)`` gets ``read(global_name, **kw)`` over the
    post-run memory image; ``expected`` comes from the generator's
    Python reference, never from the toolchain under test.
    """

    name: str
    source: str
    inputs: Dict[str, object]
    options: Optional[CompileOptions]
    verify: Callable
    expected: object
    program: object = None          # set when set-up precompiles


@dataclass
class Round:
    ops: int = 0
    failures: List[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    parts: Counter = field(default_factory=Counter)
    #: checksum of the compiled assembly: must repeat from round to
    #: round like ``counts``, but is not comparable across processes --
    #: the register allocator's choice among equivalent registers
    #: follows PYTHONHASHSEED (seen on fft and merge_sort; same
    #: instruction and cycle counts)
    asm_crc: int = 0

    def attempt(self, name: str, fn) -> None:
        """Run one operation; an exception or a falsy return is a
        failed operation, never a crashed benchmark."""
        self.ops += 1
        try:
            ok = fn()
        except Exception as exc:    # boundary: report, keep measuring
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failures.append(f"{name}: output differs from reference")


# --------------------------------------------------------------------------- kernels

#: builder default seeds; ``--seed`` is added to each
_KERNEL_SEEDS = {"array_compaction": 7, "reduction": 3, "prefix_sum": 5,
                 "bfs": 11, "connectivity": 13, "matmul": 17, "fft": 23,
                 "spmv": 37, "list_ranking": 31, "merge_sort": 29}

#: sizes give ~1.5-2 s per round on the 2-core sandbox (half the ISSUE's
#: sizes, which were timed on a faster host: the driver's cap is ~21 s
#: per run all-in).  Functional sizes are 8x the cycle-mode work.
_KERNEL_SIZES = {
    "cycle": {"array_compaction": (1024,), "reduction": (1024,),
              "prefix_sum": (512,), "bfs": (128,), "connectivity": (64,),
              "matmul": (12,), "fft": (128,), "spmv": (128,),
              "list_ranking": (128,), "merge_sort": (128, 8)},
    # the observed workload runs everything twice and ~2.3x slower
    "observed": {"array_compaction": (512,), "reduction": (512,),
                 "prefix_sum": (256,), "bfs": (64,), "connectivity": (32,),
                 "matmul": (8,)},
    "functional": {"array_compaction": (8192,), "reduction": (8192,),
                   "prefix_sum": (4096,), "bfs": (1024,),
                   "connectivity": (512,), "matmul": (24,), "fft": (1024,),
                   "spmv": (1024,), "list_ranking": (1024,),
                   "merge_sort": (1024, 8)},
    "smoke": {"array_compaction": (64,), "reduction": (64,),
              "prefix_sum": (32,), "bfs": (24,), "connectivity": (16,),
              "matmul": (4,), "fft": (16,), "spmv": (16,),
              "list_ranking": (16,), "merge_sort": (32, 4)},
}


def _check_fft(read, expected) -> bool:
    re = [bits_to_f32(b) for b in read("re", signed=False)]
    im = [bits_to_f32(b) for b in read("im", signed=False)]
    return all(abs(complex(r, i) - want) < 1e-3 * max(1.0, abs(want))
               for r, i, want in zip(re, im, expected))


def _check_merge_sort(read, expected) -> bool:
    return read("A" if read("sorted_in_a") else "B") == expected


_KERNEL_CHECKS = {
    "array_compaction": lambda read, want: (
        read("count") == want and sum(1 for x in read("B") if x) == want),
    "reduction": lambda read, want: read("total") == want,
    "prefix_sum": lambda read, want: read("X", count=len(want)) == want,
    "bfs": lambda read, want: read("level") == want,
    "connectivity": lambda read, want: read("comp") == want,
    "matmul": lambda read, want: read("C") == want,
    "fft": _check_fft,
    "spmv": lambda read, want: read("y") == want,
    "list_ranking": lambda read, want: read("R0")[:len(want)] == want,
    "merge_sort": _check_merge_sort,
}


def kernel_progs(sizes: str, seed: int, names=None) -> List[Prog]:
    progs = []
    for name in names or _KERNEL_SEEDS:
        builder = getattr(W, name)
        source, inputs, expected = builder(
            *_KERNEL_SIZES[sizes][name], seed=_KERNEL_SEEDS[name] + seed)
        progs.append(Prog(
            name=name, source=source, inputs=inputs,
            options=(CompileOptions(parallel_calls=True)
                     if name == "merge_sort" else None),
            verify=_KERNEL_CHECKS[name], expected=expected))
    return progs


def precompile(prog: Prog) -> None:
    prog.program = compile_source(prog.source, prog.options)
    for name, values in prog.inputs.items():
        prog.program.write_global(name, values)


# --------------------------------------------------------------------------- microbenchmarks

def _wrap32(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x & 0x80000000 else x


def _compute_reference(a: int, iterations: int) -> int:
    """The microbenchmarks' ALU loop in 32-bit two's complement."""
    b = 17
    for k in range(iterations):
        a = _wrap32((a << 1) + b)
        b = b ^ (a >> 3)
        a = _wrap32(a + b + k)
    return a


def _memory_visits(start_indices, accesses: int, words: int) -> List[int]:
    visits = [0] * words
    for idx in start_indices:
        for _ in range(accesses):
            visits[idx] += 1
            idx += 97
            if idx >= words:
                idx -= words
    return visits


def _data_words(seed: int, words: int) -> List[int]:
    rng = random.Random(1000 + seed)
    return [rng.randrange(0, 1000) for _ in range(words)]


def micro_par_memory(seed: int, threads: int, accesses: int, words: int) -> Prog:
    source, _ = MB.parallel_memory(threads, accesses, array_words=words)
    data = _data_words(seed, words)
    visits = _memory_visits([(t * 769) % words for t in range(threads)],
                            accesses, words)

    def verify(read, bounds):
        # threads race on DATA[idx] by design (unsynchronised
        # read-modify-write), so an increment may be lost but never
        # invented: every visited word grew by 1..visits
        return all(low <= got <= high
                   for got, (low, high) in zip(read("DATA"), bounds))

    return Prog("parallel_memory", source, {"DATA": data}, None, verify,
                [(d + min(v, 1), d + v) for d, v in zip(data, visits)])


def micro_par_compute(threads: int, iterations: int) -> Prog:
    source, _ = MB.parallel_compute(threads, iterations)
    return Prog("parallel_compute", source, {}, None,
                lambda read, want: read("RESULT") == want,
                [_compute_reference(t + 1, iterations)
                 for t in range(threads)])


def micro_ser_memory(seed: int, accesses: int, words: int = 4096) -> Prog:
    source, _ = MB.serial_memory(accesses, array_words=words)
    data = _data_words(seed, words)
    visits = _memory_visits([3], accesses, words)
    return Prog("serial_memory", source, {"DATA": data}, None,
                lambda read, want: read("DATA") == want,
                [d + v for d, v in zip(data, visits)])


def micro_ser_compute(iterations: int) -> Prog:
    source, _ = MB.serial_compute(iterations)
    return Prog("serial_compute", source, {}, None,
                lambda read, want: read("RESULT") == want,
                _compute_reference(1, iterations))   # RESULT[1]: a scalar


# --------------------------------------------------------------------------- running one program

def sim_counts(result, sim=None) -> Counter:
    """The exact simulated work of one cycle-mode run.  Scheduler
    events are only known where the benchmark holds the ``Simulator``
    (``compile_and_run`` does not hand it back)."""
    counts = Counter({key: result.stats.get(key)
                      for key in spec.SIM_COUNTS.values()})
    counts["instructions"] = result.instructions
    if sim is not None:
        counts["events"] = \
            sim.machine.scheduler.metrics_snapshot()["events_processed"]
    return counts


def build_and_run(tracer, program, config):
    """A fresh machine (cold caches) and one run of it, each under its
    span; returns ``(simulator, result)``."""
    with tracer.span("sim.machine.build"):
        sim = Simulator(program, config)
    with tracer.span("sim.machine.run"):
        result = sim.run()
    return sim, result


def checked(prog: Prog, result, program=None) -> bool:
    """Does ``result`` (cycle or functional) match ``prog``'s reference?"""
    program = program or prog.program

    def read(name, **kw):
        return program.read_global(name, result.memory, **kw)

    return prog.verify(read, prog.expected)


class Workload:
    """Base: subclasses fill ``prepare`` and ``round``."""

    name = ""

    def __init__(self, seed: int, smoke: bool, tracer):
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.progs: List[Prog] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def warm_up(self) -> Round:
        """The untimed-for-``host_s`` first round; workloads add their
        once-per-run cross checks here."""
        return self.round(0)

    def probe_layers(self, check, host_s: float) -> Dict[str, float]:
        """Traced run only: per-layer metrics this workload can measure
        beyond the sampler's; ``check(ok, message)`` records a check."""
        return {}

    def close(self) -> None:
        pass


class MicroChip1024(Workload):
    """Table I microbenchmarks on the 1024-TCU chip, cycle mode."""

    def build_progs(self) -> List[Prog]:
        raise NotImplementedError

    def prepare(self) -> None:
        self.progs = self.build_progs()
        for prog in self.progs:
            precompile(prog)

    def round(self, index: int) -> Round:
        rnd = Round()
        for prog in self.progs:
            def operation(prog=prog):
                sim, result = build_and_run(self.tracer, prog.program,
                                            chip1024())
                rnd.counts.update(sim_counts(result, sim))
                return checked(prog, result)
            rnd.attempt(prog.name, operation)
        return rnd

    def warm_up(self) -> Round:
        rnd = self.round(0)
        # the functional engine must meet the same references
        for prog in self.progs:
            rnd.attempt(prog.name + " (functional)", lambda prog=prog: checked(
                prog, FunctionalSimulator(prog.program).run()))
        return rnd


class ParMem(MicroChip1024):
    name = "par_mem_chip1024"

    def build_progs(self):
        if self.smoke:
            return [micro_par_memory(self.seed, 64, 4, 1024)]
        return [micro_par_memory(self.seed, 1024, 12, 16384)]


class ParComp(MicroChip1024):
    name = "par_comp_chip1024"

    def build_progs(self):
        if self.smoke:
            return [micro_par_compute(64, 8)]
        return [micro_par_compute(2048, 36)]


class Serial(MicroChip1024):
    name = "serial_chip1024"

    def build_progs(self):
        if self.smoke:
            return [micro_ser_memory(self.seed, 40),
                    micro_ser_compute(100)]
        return [micro_ser_memory(self.seed, 1000), micro_ser_compute(3800)]


class KernelsFpga64(Workload):
    """The user path: ``compile_and_run`` per kernel, per round."""

    name = "kernels_fpga64"

    def prepare(self) -> None:
        self.progs = kernel_progs("smoke" if self.smoke else "cycle",
                                  self.seed)

    def _run(self, rnd: Round, prog: Prog):
        outcome = compile_and_run(prog.source, fpga64(), prog.inputs,
                                  prog.options)
        rnd.counts.update(sim_counts(outcome.result))
        return outcome

    def round(self, index: int, cross_check: bool = False) -> Round:
        rnd = Round()
        for prog in self.progs:
            def operation(prog=prog):
                outcome = self._run(rnd, prog)
                ok = checked(prog, outcome.result, outcome.program)
                if cross_check:     # functional mode must agree
                    functional = FunctionalSimulator(outcome.program).run()
                    ok = (ok and functional.output == outcome.output
                          and checked(prog, functional, outcome.program))
                return ok
            rnd.attempt(prog.name, operation)
        return rnd

    def warm_up(self) -> Round:
        return self.round(0, cross_check=True)


class KernelsFunctional(Workload):
    name = "kernels_functional"

    def prepare(self) -> None:
        self.progs = kernel_progs("smoke" if self.smoke else "functional",
                                  self.seed)
        for prog in self.progs:
            precompile(prog)

    def round(self, index: int) -> Round:
        rnd = Round()
        for prog in self.progs:
            def operation(prog=prog):
                result = FunctionalSimulator(prog.program).run()
                rnd.counts["instructions"] += result.instructions
                return checked(prog, result)
            rnd.attempt(prog.name, operation)
        return rnd


class CompileCorpus(Workload):
    """``compile_source`` + ``decode_program`` over ~350 programs."""

    name = "compile_corpus"
    FUZZ_PROGRAMS = 320

    def prepare(self) -> None:
        progs = [(p.name, p.source, p.options)
                 for p in kernel_progs("smoke" if self.smoke else "cycle",
                                       self.seed)]
        for name, (source, _) in (
                ("parallel_memory", MB.parallel_memory(1024, 16, 16384)),
                ("parallel_compute", MB.parallel_compute(2048, 40)),
                ("serial_memory", MB.serial_memory(1600)),
                ("serial_compute", MB.serial_compute(6000))):
            progs.append((name, source, None))
        litmus_dir = os.path.join(spec.REPO_ROOT, "examples", "litmus")
        for name, source, options, _ in collect_litmus_cases(litmus_dir):
            progs.append((name, source, options))
        for fuzz_seed in range(16 if self.smoke else self.FUZZ_PROGRAMS):
            generated = generate(self.seed + fuzz_seed)
            progs.append((f"fuzz-{generated.seed}", generated.source,
                          generated.compile_options()))
        self.progs = progs

    def round(self, index: int) -> Round:
        rnd = Round()
        for name, source, options in self.progs:
            def operation(source=source, options=options):
                program = compile_source(source, options)
                decoded = decode_program(program)
                rnd.counts["emitted"] += len(program.instructions)
                rnd.asm_crc ^= zlib.crc32(program.source.encode())
                return len(decoded.uops) == len(program.instructions)
            rnd.attempt(name, operation)
        return rnd

    def staged_round(self) -> Round:
        """The same work through the staged mirror, spans on; fails any
        program whose assembly differs from the shipped pipeline's."""
        rnd = Round()
        for name, source, options in self.progs:
            def operation(source=source, options=options):
                asm_text, program = compile_staged(
                    source, options, self.tracer, rnd.counts)
                rnd.counts["emitted"] += len(program.instructions)
                rnd.asm_crc ^= zlib.crc32(asm_text.encode())
                shipped = compile_to_asm(source, options).asm_text
                return asm_text == shipped
            rnd.attempt(name + " (staged)", operation)
        return rnd

    def warm_up(self) -> Round:
        """The staged mirror is the warm-up: its fidelity check runs
        once per run, and because the timed rounds must repeat its
        instruction count and assembly checksum, it also proves that
        ``compile_source`` and the mirror agree."""
        rnd = self.staged_round()
        rnd.counts = Counter(emitted=rnd.counts["emitted"])
        return rnd

    def probe_layers(self, check, host_s):
        """Compile layers from spans (exact here, where the benchmark
        calls the stages itself) in place of the sampler's shares."""
        since = len(self.tracer.spans)
        staged = self.staged_round()
        check(not staged.failures, f"staged mirror: {staged.failures[:3]}")
        span_s = self.tracer.self_seconds(since)
        # "staged" is the mirror's own time between the stage calls
        total = sum(span_s.values())
        check(span_s["staged"] <= spec.EXACTNESS_TOLERANCE * total,
              f"stage spans leave {span_s['staged']:.3f} of {total:.3f} s "
              f"of the staged pipeline uncovered: more than 5 %")
        out = {layer + ".self_s": span_s[layer] / total * host_s
               for layer in spec.COMPILE_LAYERS}
        out["sim.other.self_s"] = span_s["staged"] / total * host_s
        out.update({name: staged.counts[name] for name in spec.COMPILE_COUNTS})

        def lint():
            # lint_source sets keep_intermediates on the options it gets
            return sum(len(lint_source(source, copy.copy(options),
                                       filename=name))
                       for name, source, options in self.progs)

        with self.tracer.span("xmtc.analysis.lint"):
            diagnostics, wall, scale = calibration.timed(lint)
        out["xmtc.analysis.lint_s"] = wall * scale
        out["xmtc.analysis.diagnostics"] = diagnostics
        return out


class KernelsObserved(Workload):
    """Six kernels, each run plain and fully observed back to back."""

    name = "kernels_observed_fpga64"
    KERNELS = tuple(_KERNEL_SEEDS)[:6]
    ledger_dir = None

    def prepare(self) -> None:
        self.progs = kernel_progs("smoke" if self.smoke else "observed",
                                  self.seed, self.KERNELS)
        for prog in self.progs:
            precompile(prog)
        os.makedirs(spec.WORK_DIR, exist_ok=True)
        self.close()
        self.ledger_dir = tempfile.mkdtemp(prefix="ledger-", dir=spec.WORK_DIR)
        self.ledger = Ledger(self.ledger_dir)

    def close(self) -> None:
        if self.ledger_dir:
            shutil.rmtree(self.ledger_dir, ignore_errors=True)
            self.ledger_dir = None

    def _plain(self, rnd: Round, prog: Prog):
        start = time.perf_counter()
        sim, result = build_and_run(self.tracer, prog.program, fpga64())
        rnd.parts["plain_s"] += time.perf_counter() - start
        rnd.counts.update(sim_counts(result, sim))
        return result

    def _observed(self, rnd: Round, prog: Prog):
        start = time.perf_counter()
        artifacts = instrumented_run(prog.program, fpga64(),
                                     source=prog.source, accounting=True)
        exported = time.perf_counter()
        self.ledger.record_artifacts(artifacts)
        end = time.perf_counter()
        rnd.parts["observed_s"] += end - start
        rnd.parts["export_s"] += end - exported
        return artifacts.result

    def round(self, index: int) -> Round:
        rnd = Round()
        for position, prog in enumerate(self.progs):
            def operation(prog=prog, plain_first=(index + position) % 2 == 0):
                if plain_first:
                    plain = self._plain(rnd, prog)
                    observed = self._observed(rnd, prog)
                else:
                    observed = self._observed(rnd, prog)
                    plain = self._plain(rnd, prog)
                return (checked(prog, plain) and checked(prog, observed)
                        and observed.cycles == plain.cycles
                        and observed.output == plain.output)
            rnd.attempt(prog.name, operation)
        return rnd


    # -- traced run: one consumer at a time, then each export timed ---------------

    #: one consumer at a time; telemetry rides on an empty facade
    _OBSERVABILITY = {
        "metrics": lambda prog: Observability(metrics=MetricsRegistry()),
        "profiler": lambda prog: Observability(
            profiler=CycleProfiler(prog.program, source=prog.source)),
        "lifecycle": lambda prog: Observability(lifecycle=FlightRecorder()),
        "accounting": lambda prog: Observability(accounting=CycleAccountant()),
        "events": lambda prog: Observability(events=EventStream()),
        "telemetry": lambda prog: Observability(),
    }

    def _consumer_pass(self, consumer: Optional[str]) -> int:
        """Run the six programs with one consumer on; returns cycles."""
        cycles = 0
        for prog in self.progs:
            obs = self._OBSERVABILITY[consumer](prog) if consumer else None
            sim = Simulator(prog.program, fpga64(), observability=obs)
            if consumer == "telemetry":
                telemetry = TelemetrySampler()
                telemetry.attach(sim.machine)
                telemetry.arm()
            cycles += sim.run().cycles
            if consumer == "telemetry":
                telemetry.finish()
        return cycles

    def _export_pass(self) -> None:
        """Everything on, then each export under its own span."""
        span = self.tracer.span
        for prog in self.progs:
            accountant, recorder = CycleAccountant(), FlightRecorder()
            obs = Observability(
                metrics=MetricsRegistry(),
                profiler=CycleProfiler(prog.program, source=prog.source),
                accounting=accountant, lifecycle=recorder)
            sim = Simulator(prog.program, fpga64(), observability=obs)
            result = sim.run()
            with span("export_metrics"):
                metrics = export_metrics(sim.machine)
            with span("profile_export"):
                profile = obs.profiler.to_data()
            with span("export_accounting"):
                accounting = export_accounting(sim.machine, accountant,
                                               cycles=result.cycles)
            with span("lifecycle_export"):
                lifecycle = recorder.to_data()
            manifest = build_manifest(
                prog.program, sim.config, cycles=result.cycles,
                instructions=result.instructions, wall_seconds=0.0,
                source=prog.source)
            with span("ledger_record"):
                self.ledger.record_artifacts(RunArtifacts(
                    manifest=manifest, metrics=metrics, profile=profile,
                    result=result, accounting=accounting,
                    extras={"lifecycle": lifecycle}))

    def probe_layers(self, check, host_s):
        out = {}
        plain_cycles, wall, scale = calibration.timed(
            lambda: self._consumer_pass(None))
        plain_s = wall * scale
        for consumer in spec.OBS_CONSUMERS:
            gc.collect()
            cycles, wall, scale = calibration.timed(
                lambda: self._consumer_pass(consumer))
            check(cycles == plain_cycles,
                  f"{consumer} consumer changed the cycle count")
            out[f"sim.observability.{consumer}.on_ratio"] = \
                wall * scale / plain_s

        shutil.rmtree(self.ledger.runs_dir, ignore_errors=True)
        since = len(self.tracer.spans)
        _, _, scale = calibration.timed(self._export_pass)
        span_s = self.tracer.self_seconds(since)
        for name in spec.EXPORT_SPANS:
            out["sim.observability." + name] = span_s[name[:-2]] * scale
        out["sim.observability.artifact_bytes"] = sum(
            os.path.getsize(os.path.join(folder, filename))
            for folder, _, files in os.walk(self.ledger.runs_dir)
            for filename in files)
        return out


WORKLOADS = {cls.name: cls for cls in (
    ParMem, ParComp, Serial, KernelsFpga64, KernelsFunctional, CompileCorpus,
    KernelsObserved)}
assert tuple(WORKLOADS) == tuple(spec.WORKLOADS)
