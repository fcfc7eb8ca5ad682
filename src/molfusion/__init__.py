"""molfusion: desk-scale molecular property prediction toolkit.

SMILES parsing, graph/fingerprint featurization, a reverse-mode tensor
engine, a fused local/global graph network with fingerprint cross-attention,
training and evaluation utilities, and a command-line interface.
"""

import numbers
import os

# One BLAS thread per process unless the caller chose otherwise. ``train``
# and ``predict`` run two lanes, one per core; a BLAS pool in each lane
# would oversubscribe the cores, and at these matrix sizes one thread loses
# nothing. Set before any submodule imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"


def is_number(value, kind=numbers.Integral) -> bool:
    """``value`` is a ``kind`` (an integer by default) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)
