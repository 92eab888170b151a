"""The ``vkribbon`` program: ``python -m vkribbon`` and the console script.

The Newton and slope solves are banded Cholesky factorizations of a few
thousand unknowns, too small for BLAS threads to pay: their start-up and
spinning only slow them down, most on shared cores.  The program therefore
runs BLAS on one thread, which also keeps its results reproducible bit
for bit.  The thread count is read when numpy loads, so it is set here,
before anything imports numpy (importing the package does not).
"""

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def entry() -> None:
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    from .cli import main

    raise SystemExit(main())


if __name__ == "__main__":
    entry()
