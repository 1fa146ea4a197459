"""``python -m fasdlab``: the ``fasdlab`` command, runnable from a checkout
with ``src`` on the path."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
