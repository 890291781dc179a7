"""Console entry point of the ``atomless-mdp`` command.

It runs ``atomless_mdp.cli.main`` on one BLAS thread unless the caller set
the thread variables.  A threaded BLAS kernel can change a solve in its last
bits, and a threshold that the derandomizer finds as a root moves with it,
so the artifacts are the same bytes only at a fixed thread count.  OpenBLAS,
OpenMP and MKL read the variables once, when NumPy is first imported, which
is why this module lives outside the package: importing ``atomless_mdp``
imports NumPy.  A value the caller set is kept.

    python src/atomless_mdp_cli.py derandomize model.json pi.txt --out d
"""

import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARIABLES:
        os.environ.setdefault(var, "1")
    from atomless_mdp.cli import main as run
    return run()


if __name__ == "__main__":
    sys.exit(main())
