"""Setup shim: this environment has no `wheel` package, so PEP-517
editable installs (`pip install -e .`) fail with `invalid command
'bdist_wheel'`; `python setup.py develop` installs the same editable
egg-link without it.  All metadata, the nine console scripts included,
lives in pyproject.toml."""

from setuptools import setup

setup()
