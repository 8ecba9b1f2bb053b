"""Documentation must not rot: every XMTC snippet in docs/TEACHING.md
and the README quick-tour compiles and produces its stated result, and
the MANUAL's artifact and instruction tables are the code's tables."""

import os
import re
import subprocess
import sys

import pytest

from repro.sim.config import fpga64, tiny
from repro.sim.observability import ARTIFACTS
from repro.toolchain.driver import compile_and_run

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "TEACHING.md")
MANUAL = os.path.join(os.path.dirname(__file__), "..", "docs", "MANUAL.md")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def extract_c_blocks(path):
    text = open(path).read()
    return re.findall(r"```c\n(.*?)```", text, re.DOTALL)


@pytest.fixture(scope="module")
def teaching_blocks():
    return extract_c_blocks(DOCS)


class TestTeachingSnippets:
    def test_enough_snippets_present(self, teaching_blocks):
        complete = [b for b in teaching_blocks if "int main" in b]
        assert len(complete) >= 4

    def test_unit0_serial_sum(self, teaching_blocks):
        src = next(b for b in teaching_blocks if "total = s;" in b)
        out = compile_and_run(src, fpga64(), inputs={"A": [2] * 256},
                              max_cycles=5_000_000)
        assert out.output == "512\n"

    def test_unit1_doubling(self, teaching_blocks):
        src = next(b for b in teaching_blocks if "A[$] * 2" in b)
        out = compile_and_run(src, fpga64(),
                              inputs={"A": list(range(256))},
                              max_cycles=5_000_000)
        assert out.read_global("B") == [2 * i for i in range(256)]

    def test_unit2_compaction(self, teaching_blocks):
        src = next(b for b in teaching_blocks if "non-zeros" in b)
        data = [i % 5 for i in range(256)]
        out = compile_and_run(src, fpga64(), inputs={"A": data},
                              max_cycles=5_000_000)
        nonzero = sum(1 for x in data if x)
        assert out.output == f"{nonzero} non-zeros\n"
        got = [x for x in out.read_global("B") if x]
        assert sorted(got) == sorted(x for x in data if x)

    def test_unit3_scan(self, teaching_blocks):
        src = next(b for b in teaching_blocks
                   if "Y[$] = X[$] + X[$ - d]" in b and "int main" in b)
        out = compile_and_run(src, fpga64(), inputs={"X": [1] * 256},
                              max_cycles=10_000_000)
        assert out.read_global("X") == list(range(1, 257))


class TestReadmeSnippet:
    def test_quick_tour_program(self):
        blocks = re.findall(r'program = compile_xmtc\("""\n(.*?)"""\)',
                            open(README).read(), re.DOTALL)
        assert blocks, "README quick tour must contain the XMTC program"
        # the README shows the program inside a Python string literal,
        # where \\n means the two-character escape the lexer expects
        src = blocks[0].replace("\\\\n", "\\n")
        out = compile_and_run(src, fpga64(),
                              inputs={"A": [3, 0, 7, 0, 9, 2, 0, 1] * 8},
                              max_cycles=5_000_000)
        assert out.output.strip() == "40"


class TestManualArtifactTable:
    def test_table_is_the_code_table(self):
        """MANUAL 4.14: one row per entry of ``ARTIFACTS``, in its
        order, with its schema id, its kind and -- for what a run
        directory holds -- its file name."""
        section = open(MANUAL).read().split("### 4.14 Artifacts", 1)[1]
        section = section.split("\n#", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines()
                if line.startswith("| `")]
        assert [row[0].strip("`") for row in rows] == list(ARTIFACTS)
        for (name, schema, file, _writer, _reader, kind) in rows:
            row = ARTIFACTS[name.strip("`")]
            assert schema == (f"`{row.schema}`" if row.schema else "—"), name
            assert kind == ("JSONL" if row.jsonl else "whole-file"), name
            if row.file:
                assert file == f"`{row.file}`", name


class TestManualInstructionTable:
    def test_mnemonics_are_the_assemblers(self):
        """MANUAL 3: the instruction table names exactly the mnemonics
        the assembler accepts -- the rows of ``TABLE`` and ``ALIASES``.
        Read in a fresh interpreter: tests register extra mnemonics."""
        section = open(MANUAL).read().split("## 3. The XMT assembly", 1)[1]
        section = section.split("\n#", 1)[0]
        documented = set()
        for line in section.splitlines():
            if line.startswith("| ") and not line.startswith("| class"):
                for span in re.findall(r"`([^`]*)`", line.split("|")[2]):
                    documented.update(w for w in span.split()
                                      if re.fullmatch(r"[a-z]+", w))
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.isa.instructions import TABLE, ALIASES;"
             "print(' '.join(sorted(set(TABLE) | set(ALIASES))))"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert documented == set(out.stdout.split())
