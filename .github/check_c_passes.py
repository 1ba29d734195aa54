"""Exit nonzero unless every C pass of the installed leo loads and runs.

    python .github/check_c_passes.py

Run it outside the source tree, so that it imports the installed package:
a missing ``_kernel.c`` fails here too. A silent fallback to the numpy
loop, the numpy loss pass, the numpy placement or the round loop of batch
training would hide the kernel's speed, and tier-1 passes on either path.
"""

import numpy as np

from leo import learning, observer
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
print("C passes active: loop, loss, placement, train")
