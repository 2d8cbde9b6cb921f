"""python -m pdfam ARGS: the pdfam command line."""

import sys

from .cli import main

sys.exit(main())
