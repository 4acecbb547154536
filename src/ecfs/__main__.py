"""The program entry of `python -m ecfs` and of the installed `ecfs` script."""

import gc
import sys


def run() -> None:
    """Run the command line in sys.argv and exit with its status."""
    from .cli import main

    # numpy's and ecfs's objects from the imports live until exit; frozen, no
    # collection walks them again, the one at interpreter shutdown included
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
