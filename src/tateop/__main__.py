"""Entry point of ``python -m tateop`` and of the ``tateop`` console script."""

import os
import sys

from .cli import main


def run() -> int:
    """Run the CLI, then end the process without interpreter teardown.

    Once ``main()`` returns, stdout and stderr are flushed and the process
    ends with ``os._exit``, skipping the teardown of every module and
    object, which took most of a short call's exit time (README).  That
    skips ``atexit`` handlers and object finalizers too: the package
    registers none, and its ``--out`` and ``--dump`` files are closed
    before ``main()`` returns.  If a flush fails (a full disk, a closed
    pipe), the code is returned instead, and the normal interpreter exit
    reports the failure and exits 120.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
