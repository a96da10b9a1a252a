"""``python -m repro`` — the umbrella CLI without installed scripts.

CI (and anyone running from a source checkout with ``PYTHONPATH=src``)
gets the full ``repro {sim,resume,trace,report,profile,explain}`` interface
without a ``pip install``.
"""

import sys

from repro.cli import repro_main

if __name__ == "__main__":
    sys.exit(repro_main())
