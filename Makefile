# Convenience targets for the XMT toolchain reproduction.

PYTHON ?= python

.PHONY: install test check bench examples all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# the tier-1 gate, as CI runs it: the console scripts resolve (the
# package must be installed, e.g. by `make install`), then the test
# suite and the benchmark's self-tests
TOOLS = xmtcc xmtsim xmtc-lint xmtc-fuzz xmt-prof xmt-explain xmt-compare \
	xmt-campaign xmt-top

check:
	for tool in $(TOOLS); do $$tool --help > /dev/null || exit 1; done
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/xmt_bench/tests -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/bfs.py
	$(PYTHON) examples/memory_model.py
	$(PYTHON) examples/design_space.py
	$(PYTHON) examples/parallel_sort.py
	$(PYTHON) examples/thermal_dvfs.py

all: install test bench examples

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
