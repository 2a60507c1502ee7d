import glob
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from tomosense.states import CatParams, SqueezeParams, StateSpec


# doubles whose 17-digit text is easiest to get wrong: signed zeros, the
# smallest and largest subnormals, the largest finite values, nan and inf
EDGE_DOUBLES = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf)
doubles = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats())


def svs_spec(r=0.5, m=0, phi=0.0, tail_tol=1e-12):
    return StateSpec("svs", SqueezeParams(r, phi), m, tail_tol)


def ecs_spec(alpha=1.8, m=0, tail_tol=1e-12):
    return StateSpec("cat-even", CatParams(alpha), m, tail_tol)


def ocs_spec(alpha=1.8, tail_tol=1e-12):
    return StateSpec("cat-odd", CatParams(alpha), 0, tail_tol)


def align_global_phase(a: np.ndarray, b: np.ndarray):
    """Pad two amplitude vectors to equal length and rotate a onto b's phase."""
    k = max(len(a), len(b))
    aa = np.zeros(k, dtype=complex)
    bb = np.zeros(k, dtype=complex)
    aa[: len(a)] = a
    bb[: len(b)] = b
    i = int(np.argmax(np.abs(aa)))
    rot = bb[i] / aa[i]
    return aa * (rot / abs(rot)), bb


@pytest.fixture(scope="session")
def default_r():
    """The toolkit-default squeezing magnitude, 1/sqrt(2)."""
    return 1.0 / np.sqrt(2.0)


def _child_pids() -> set[str]:
    """Process ids of this process's children, from /proc where Linux lists them."""
    pids = {str(p.pid) for p in multiprocessing.active_children()}  # also reaps finished ones
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, "r", encoding="utf-8") as fh:
            pids.update(fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process alive, such as a reproduce worker."""
    before = _child_pids()
    yield
    left = _child_pids() - before
    assert not left, f"child processes left alive: {sorted(left)}"
