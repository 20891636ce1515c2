"""Build script: compiles the optional integer kernel extension.

The extension ``distset._core._ops_c`` is one hand-written C file,
``src/distset/_core/_ops_c.c``, holding the two kernels that
``distset._core`` routes to compiled code.  A C compiler and the Python
headers are all it needs.

The package is fully functional without the extension (a pure-Python
backend with identical semantics is selected at import time).  Set
DISTSET_PURE_PYTHON=1 to build nothing; at run time the same variable
makes ``distset._core`` import nothing.

A source-tree test run (``PYTHONPATH=src python -m pytest``) runs
``setup.py build_ext --inplace`` itself when the extension is missing or
older than its source; see ``tests/conftest.py``.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("DISTSET_PURE_PYTHON") != "1":
    ext_modules = [
        Extension("distset._core._ops_c", ["src/distset/_core/_ops_c.c"])
    ]

setup(ext_modules=ext_modules)
