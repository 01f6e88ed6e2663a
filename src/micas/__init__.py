"""Multi-grained adaptive sampling and prompt ranking for point-cloud
in-context learning, small enough to train and test on one desk machine.

Importing the package pins OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is already set. The desk-sized matmuls gain no wall
time from more threads, which only burn CPU, and a threaded reduction can
round a tall `x.T @ g` product differently, so trained checkpoints would
depend on the machine's core count. OpenBLAS reads the variable when numpy
loads it: a program that imports numpy before micas keeps numpy's
threading, and the pin has no effect there.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
