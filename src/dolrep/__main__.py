"""``python -m dolrep``: the command-line interface of :mod:`dolrep.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
