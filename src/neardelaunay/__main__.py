"""`python -m neardelaunay`: the command-line interface.  Importing this
module runs nothing, so tools that import every module of the package can."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
