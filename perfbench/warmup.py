"""What every CLI invocation pays before its first computation.

Imports ``critshe.cli`` and the modules its subcommands import lazily, builds
the argument parser, and fills the first-call quadrature tables.  Run as a
script (``python3 perfbench/warmup.py <src dir>``) it is the fresh
interpreter whose wall time is ``setup_s``; imported, it warms the running
benchmark process the same way.
"""

import sys


def warm_up() -> None:
    import numpy as np

    import critshe.cli
    from critshe import gausscalc, momentengine, mollifier, shesim, simplexint, specfun  # noqa: F401
    from critshe._quad import gauss_legendre_01

    critshe.cli.build_parser()
    for n in (32, 48, 72, 96, 128, 144):
        gauss_legendre_01(n)
    specfun.jfn_times_t(np.zeros(1), 0.0)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    warm_up()
