"""``python -m posflow``: the command-line harness of :mod:`posflow.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
