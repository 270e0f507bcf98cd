"""``python -m refbus``: run a node, as the ``refbus-node`` script does."""

from refbus.node import main

if __name__ == "__main__":
    raise SystemExit(main())
