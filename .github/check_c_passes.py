"""Exit nonzero unless every C pass of the installed leo loads and runs.

    python .github/check_c_passes.py

Run it outside the source tree, so that it imports the installed package:
a missing ``_kernel.c`` fails here too. A silent fallback to the numpy
loop, the numpy loss pass, the numpy placement or the round loop of batch
training would hide the kernel's speed, and tier-1 passes on either path;
so would placement certificates that silently defer to LAPACK.
"""

import ctypes

import numpy as np

from leo import learning, lti_core, observer
from leo.lti_core import _load_kernel

kernel = _load_kernel()
off = [name for name, binding in vars(kernel).items() if not binding]
assert not off, f"C passes off: {off}"

assert kernel.loop(np.eye(2)[None], np.ones((1, 2)), np.zeros((1, 3, 2)), np.empty((1, 4, 2)))
args = ((2, 1, 1), learning.TrainConfig(), np.ones((1, 10)), np.ones((1, 10)),
        np.ones((1, 251, 1)), np.ones((1, 252, 1)), np.ones((1, 2, 1)), True)
assert kernel.loss(*args) is not None, "numpy loss pass"
A, C, poles = np.eye(2)[None], np.ones((1, 1, 2)), observer._checked_poles([0.3, 0.4], 2)
assert kernel.place(A, C, poles) is not None, "numpy placement"
batch = ((2, 1, 1), learning.TrainConfig(epochs=2), np.ones((1, 10)), np.ones((1, 251, 1)),
         np.ones((1, 252, 1)))
assert kernel.train(*batch) is not None, "round loop"

# On an ordinary batch the placement's certificates decide every
# observability and conditioning test without dgesdd (its two workspace
# queries aside) and most placements without their dgeev of A - LC.
lib = lti_core._c_library()
family = next(f for f in range(len(lti_core._FAMILIES))
              if lti_core._matches_numpy(lti_core._family_loop(lib, f)))
lapack_fn = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)  # dgesdd's and dgeev's
calls = {"gesdd": 0, "geev": 0}


def counted(name, address):
    real = lapack_fn(address)

    def call(*args):
        calls[name] += 1
        real(*args)

    return lapack_fn(call)


routines = [lti_core._openblas_symbol(name) for name in (*lti_core._LAPACK, *lti_core._BLAS)]
wrappers = [counted(name, address) for name, address in zip(calls, routines)]
routines[:2] = [ctypes.cast(wrapper, ctypes.c_void_p).value for wrapper in wrappers]
gen, runs, cfg = np.random.default_rng(8), 4, learning.TrainConfig(epochs=3)
batch = ((3, 2, 1), cfg, 0.3 * gen.standard_normal((runs, 21)),
         gen.standard_normal((runs, 251, 2)), gen.standard_normal((runs, 252, 1)))
assert learning._family_train(lib, family, routines)(*batch) is not None, "round loop"
assert calls["gesdd"] == 2 and calls["geev"] - 1 < runs * cfg.epochs, f"deferred: {calls}"
print("C passes active: loop, loss, placement (certified), train")
