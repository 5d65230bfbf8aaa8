"""Shared test settings: every hypothesis property runs deterministically,
and BLAS and OpenMP run one thread unless the environment sets others."""

import os

# set before NumPy loads its BLAS: on a small host a second BLAS thread
# only spins against the other work, e.g. the N = 3 exact oracle solve
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("tlsbath", derandomize=True, deadline=None)
settings.load_profile("tlsbath")
