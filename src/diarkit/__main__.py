"""``python -m diarkit``: the same entry point as the ``diarkit`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
