from hypothesis import strategies as st

from simvc import make_space


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
