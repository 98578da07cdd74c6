"""``python -m adescope``: the command line pipeline."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
