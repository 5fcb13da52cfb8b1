"""Module entry point: python -m bellforge <command> ...

Before numpy loads, the entry point lets idle OpenBLAS worker threads sleep
instead of spin.  A user's own OPENBLAS_THREAD_TIMEOUT wins, and no
reported number depends on it.
"""

import os
import sys

# Each command is one thread of Python work between BLAS calls, and after
# each call OpenBLAS workers spin for 2^28 cycles by default: on two cores
# that burns about 0.6 s of idle CPU per second of wall time.  At 4,
# OpenBLAS's minimum, they spin for 2^4 cycles and then sleep.  The BLAS
# thread count, and so every partition of BLAS work and every number, stays
# as it is; other BLAS builds ignore the variable.  It must be set before
# numpy is first imported, which `from .cli import main` does.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cli import main  # noqa: E402

sys.exit(main())
