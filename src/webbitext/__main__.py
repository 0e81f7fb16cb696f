import sys

from .cli import main

if __name__ == "__main__":  # worker processes may import this module
    sys.exit(main())
