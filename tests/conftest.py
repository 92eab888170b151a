"""Suite-wide setup: BLAS runs on one thread, as it does in the ``vkribbon``
program (see ``vkribbon.__main__``).

The thread count is read when numpy loads, so it is set here, before any
test module imports numpy; importing ``vkribbon.__main__`` does not.
"""

import os

from vkribbon.__main__ import BLAS_THREAD_VARS

os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
