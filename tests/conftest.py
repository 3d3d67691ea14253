import os
import subprocess
import sys

from hypothesis import strategies as st

from simvc import make_space


def module_env():
    """Environment for a child Python that imports simvc from this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_python(code, timeout):
    """Stdout of ``code`` run in a child Python; a slow or failing child fails the test."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=module_env(), timeout=timeout, check=True,
    )
    return proc.stdout


@st.composite
def spaces(draw, min_n=2, max_n=6, max_size=20):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    size = draw(st.integers(min_value=1, max_value=min(1 << n, max_size)))
    bits = draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=size, max_size=size)
    )
    return make_space(n, bits)


@st.composite
def subsets_of(draw, domain_size, max_size=None):
    if domain_size == 0:
        return ()
    cap = domain_size if max_size is None else min(max_size, domain_size)
    picked = draw(st.sets(st.integers(min_value=0, max_value=domain_size - 1), max_size=cap))
    return tuple(sorted(picked))
