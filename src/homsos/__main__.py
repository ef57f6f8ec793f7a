"""``python -m homsos``: the ``homsos`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
