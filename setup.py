"""Package metadata: the ``repro`` package under ``src/``.

This file is the only place the metadata lives (there is no
pyproject.toml).  ``pip install -e .`` builds an editable wheel, which
needs the ``wheel`` package (or setuptools >= 70.1); without it,
``python setup.py develop --no-deps`` installs the same editable link
offline.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1),
    description="Index-based density peak clustering (ICDE 2021 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
