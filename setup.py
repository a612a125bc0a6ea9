"""Packaging for ``repro``, the Rel implementation under ``src/``.

All metadata is declared here. The version is read from
``repro.__version__`` without importing the package, and the standard
library's ``.rel`` sources ship as package data: ``repro.connect()``
loads them at run time.

    python setup.py -q build --build-lib <dir>   # a standalone tree
    pip install -e .                             # a development install
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Rel: a programming language for relational data",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.stdlib": ["rel/*.rel"]},
)
