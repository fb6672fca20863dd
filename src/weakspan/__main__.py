"""`python -m weakspan`: the same command line as the `weakspan` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
