"""`python -m parmatch`: the same command-line interface as `parmatch`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
