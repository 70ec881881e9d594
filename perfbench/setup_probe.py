"""Import quiverstab and load the named catalogs; run.py times this process.

Usage: python3 setup_probe.py CATALOG [CATALOG...]
"""

import sys

if __name__ == "__main__":
    from quiverstab import catalog

    for name in sys.argv[1:]:
        catalog.load(name)
