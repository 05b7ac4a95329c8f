import math
import os

# Pin the BLAS and OpenMP pools before numpy loads: on 4x4 problems a second
# thread only burns CPU. An explicit setting in the environment still wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from entopt import CanonicalCoupling

# One policy for every property test: the same examples on every run, no
# example database on disk and no per-example deadline. Tests set only
# max_examples.
settings.register_profile("entopt", derandomize=True, database=None, deadline=None)
settings.load_profile("entopt")


def random_hermitian(rng, n=4, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2.0


def random_density_matrix(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_canonical(rng, lo=0.05, hi=1.0):
    """Random coupling in canonical diagonal form, either sign class."""
    mag = np.sort(rng.uniform(lo, hi, size=3))[::-1]
    sign = rng.choice([-1.0, 1.0])
    return CanonicalCoupling(sign * mag[0], sign * mag[1], sign * mag[2])


def expm_taylor(m, terms=30):
    """Scaled-and-squared Taylor series for exp(M); independent of eigensolvers."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.5))))
    small = m / (2.0**squarings)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ small / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


@st.composite
def regime_couplings(draw):
    """Canonical couplings whose scale spans six decades, at the regime edges.

    A quarter each: generic; jx ~ jy (relative gap below 1e-9); |jz| at most
    1e-9 of the scale, down to 0 (det J = 0); and ferromagnets with jz within
    2e-12 to 1e-3 of jy, relative to the scale, whose ground level is nearly
    degenerate, so that T_c falls far below the scale. That gap starts at
    twice the 1e-12 tolerance within which asymptotics._degenerate_axes takes
    jz = jy and boundary_temperature returns 0.
    """
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    big, mid, small = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)))[::-1]
    kind = draw(st.sampled_from(["generic", "jx_jy", "det_zero", "near_degenerate"]))
    if kind == "jx_jy":
        mid = big * (1.0 - draw(st.floats(0.0, 1e-9)))
        small = min(small, mid)
    elif kind == "det_zero":
        small = draw(st.sampled_from([0.0, 1e-9 * draw(st.floats(0.0, 1.0))]))
    elif kind == "near_degenerate":
        small = mid - 10.0 ** draw(st.floats(math.log10(2e-12), -3.0)) * (big + 2.0 * mid)
    sign = -1.0 if kind == "near_degenerate" else draw(st.sampled_from([1.0, -1.0]))
    return CanonicalCoupling(sign * big * scale, sign * mid * scale, sign * small * scale)
