"""Time a fresh interpreter's `import monoinv.cli`.

Usage: python3 perfbench/probe_import.py [KERNEL_PATH]

Prints the import time in seconds.  With KERNEL_PATH, the compiled kernel
built by the benchmark is loaded as `monoinv._ratcore` first, which is part
of what the import costs on the compiled backend.  Only the modules the
interpreter has already loaded are imported before the clock starts.
"""

import sys
import time


def preload_kernel(path):
    """Register the benchmark's build of the kernel as monoinv._ratcore.

    The package itself is imported from the checkout's src/, which holds no
    build output; exactnum's `from monoinv._ratcore import Rat` then finds
    this module in sys.modules.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location("monoinv._ratcore", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["monoinv._ratcore"] = module
    return module


if __name__ == "__main__":
    t0 = time.perf_counter()
    if len(sys.argv) > 1 and sys.argv[1]:
        preload_kernel(sys.argv[1])
    import monoinv.cli  # noqa: F401

    print(repr(time.perf_counter() - t0))
