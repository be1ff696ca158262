"""Build script.

The compiled rational kernel is optional.  With Cython it is generated
from _ratcore.pyx; without Cython it is compiled from the tracked
_ratcore.c.  Either way it needs a C compiler; when the build fails the
package installs pure-Python only and falls back to fractions.Fraction at
import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [Extension("monoinv._ratcore", ["src/monoinv/_ratcore.c"], optional=True)]
else:
    ext_modules = cythonize(
        [Extension("monoinv._ratcore", ["src/monoinv/_ratcore.pyx"], optional=True)],
        language_level=3,
    )

setup(ext_modules=ext_modules)
