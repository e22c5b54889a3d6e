"""``python -m tensor_topk``: the same command line as ``tensor-topk``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
