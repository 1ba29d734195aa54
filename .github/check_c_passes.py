"""Exit nonzero unless every C pass of the installed leo loads and runs.

    python .github/check_c_passes.py

Run it outside the source tree, so that it imports the installed package:
a missing ``_kernel.c`` fails here too. A silent fallback to the numpy
loop, the numpy loss pass, the numpy placement or the round loop of batch
training would hide the kernel's speed, and tier-1 passes on either path.
"""

import numpy as np

from leo import learning, observer
from leo.lti_core import _affine_rollout, kernel_name

_affine_rollout(np.eye(2)[None], np.ones((1, 2)), np.zeros((1, 3, 2)))
assert kernel_name() == "c", kernel_name()

args = ((2, 1, 1), learning.TrainConfig(), np.ones((1, 10)), np.ones((1, 10)),
        np.ones((1, 251, 1)), np.ones((1, 252, 1)), np.ones((1, 2, 1)), True)
learning._stacked_loss(*args)
assert learning._c_pass and learning._c_pass(*args) is not None, "numpy loss pass"

A, C, poles = np.eye(2)[None], np.ones((1, 1, 2)), observer._checked_poles([0.3, 0.4], 2)
observer._place_poles(A, C, poles)
assert observer._c_place and observer._c_place(A, C, poles) is not None, "numpy placement"

init = learning.LearnableParams(A_hat=0.5 * np.eye(2), B_hat=np.ones((2, 1)),
                                C_hat=np.ones((1, 2)), x0_hat=np.zeros(2))
cfg = learning.TrainConfig(epochs=2)
learning._train_batch([init], [np.ones((251, 1))], [np.ones((252, 1))], cfg)
batch = ((2, 1, 1), cfg, init.theta[None].copy(), np.ones((1, 251, 1)), np.ones((1, 252, 1)))
assert learning._c_train and learning._c_train(*batch) is not None, "round loop"
print("C passes active: loop, loss, placement, train")
