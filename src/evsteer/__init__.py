"""Event-driven robot steering at desk scale.

Constant-event-count DVS histograms and normalized APS frames feed a tiny
convolutional network; its low-pass filtered LCRN decisions drive a pursuit
behavior state machine over a 2-byte UDP control protocol, all closed around
a deterministic 2-D arena simulator.

BLAS runs on one thread in every evsteer process, whatever
OPENBLAS_NUM_THREADS says: a second thread costs memory in every training
run, stalls training while another process holds the second CPU, and on some
OpenBLAS kernels (Haswell's) changes a product's bits. Importing evsteer sets
OPENBLAS_NUM_THREADS=1, which numpy's OpenBLAS reads as it loads and child
processes inherit. Where numpy was imported first, the thread count of its
bundled scipy-openblas is set through ctypes; where it has none, nothing
changes.
"""

import os
import sys


def _one_blas_thread():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return
    import ctypes
    import glob

    package = os.path.dirname(numpy.__file__)
    for path in (glob.glob(os.path.join(package + ".libs", "libscipy_openblas*"))
                 + glob.glob(os.path.join(package, ".dylibs", "libscipy_openblas*"))):
        set_num_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_num_threads is not None:
            set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
            set_num_threads(1)


_one_blas_thread()

from evsteer.nnet import Decision, Network, runtime_network  # noqa: E402

__version__ = "0.1.0"

__all__ = ["Decision", "Network", "runtime_network", "__version__"]
