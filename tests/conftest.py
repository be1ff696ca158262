import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from monoinv.exactnum import rat
from monoinv.intervals import REAL_LINE, Interval
from monoinv.measure import PiecewiseMeasure, distribution_function
from monoinv.monotone import PiecewiseMonotone, from_knot_data


@pytest.fixture
def fixa():
    """CDF of Lebesgue on (0,1/2) plus Lebesgue on (3/2,2), on the whole line."""
    return from_knot_data(
        REAL_LINE,
        [0, rat(1, 2), rat(3, 2), 2],
        [0, 0, 0, 0],
        [0, 1, 0, 1, 0],
        -1,
        0,
    )


@pytest.fixture
def fixa_measure():
    return PiecewiseMeasure(
        REAL_LINE,
        (),
        ((Interval(0, rat(1, 2)), 1), (Interval(rat(3, 2), 2), 1)),
    )


@pytest.fixture
def fixb():
    """The identity on (0,1), embedded with -inf/+inf outside."""
    return PiecewiseMonotone(Interval(0, 1), (), (1,), (rat(1, 2), rat(1, 2)))


@pytest.fixture
def fixb_measure():
    return PiecewiseMeasure(Interval(0, 1), (), ((Interval(0, 1), 1),))


@pytest.fixture
def fixc():
    """CDF of the unit atom at 0."""
    return from_knot_data(REAL_LINE, [0], [1], [0, 0], -1, 0)


@pytest.fixture
def fixc_measure():
    return PiecewiseMeasure(REAL_LINE, ((0, 1),), ())


@pytest.fixture
def fixd_measure():
    """Half uniform mass on (0,1), half an atom at 1/2."""
    return PiecewiseMeasure(
        REAL_LINE,
        ((rat(1, 2), rat(1, 2)),),
        ((Interval(0, 1), rat(1, 2)),),
    )


@pytest.fixture
def fixd(fixd_measure):
    return distribution_function(fixd_measure, -1)


def _drawn(items, counter):
    """items, counting each in counter as it is drawn."""
    for item in items:
        counter[0] += 1
        yield item


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) counts the calls of owner.name, in a
    one-element list: for a module, through every monoinv namespace that
    binds it; for a memoized table and the name "__wrapped__", the builds
    of the table.  With items=True it counts the items of the results
    instead: all of a tuple's at once, an iterator's as they are drawn."""

    def install(owner, name, items=False):
        original = getattr(owner, name)
        counter = [0]

        def counting(*args, **kwargs):
            if not items:
                counter[0] += 1
                return original(*args, **kwargs)
            result = original(*args, **kwargs)
            if isinstance(result, tuple):
                counter[0] += len(result)
                return result
            return _drawn(result, counter)

        monkeypatch.setattr(owner, name, counting)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("monoinv") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        return counter

    return install


# ---------------------------------------------------------------------------
# the compiled backend, built from the tracked _ratcore.c


SRC_PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "monoinv")


def _compiler():
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@pytest.fixture(scope="session")
def compiled_package(tmp_path_factory):
    """A copy of the monoinv package with _ratcore compiled into it from the
    tracked _ratcore.c, using the C compiler and flags Python was built with.

    Returns the directory to put on PYTHONPATH.  Skips only when no C
    compiler is present; a compiler that fails is a test failure.
    """
    cc = _compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]!r} (sysconfig CC) is not on PATH, "
                    "so the compiled backend cannot be built")
    root = tmp_path_factory.mktemp("compiled")
    package = root / "monoinv"
    shutil.copytree(SRC_PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    scratch = root / "tmp"
    scratch.mkdir()
    target = package / ("_ratcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [
        *cc,
        *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC"),
        "-shared", "-I", sysconfig.get_paths()["include"],
        str(package / "_ratcore.c"), "-o", str(target),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, TMPDIR=str(scratch)))
    assert proc.returncode == 0, f"kernel build failed:\n{proc.stderr[-2000:]}"
    return str(root)


@pytest.fixture(scope="session")
def compiled_rat(compiled_package):
    """The Rat type of the kernel built by compiled_package, loaded without
    registering it as monoinv._ratcore in this process."""
    path = os.path.join(compiled_package, "monoinv",
                        "_ratcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location("_ratcore", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Rat
