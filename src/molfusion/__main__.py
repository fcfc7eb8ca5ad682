"""The ``molfusion`` command, as ``python -m molfusion`` and the console script.

It imports ``molfusion.cli`` (numpy among its imports) inside the same Ctrl-C
handling as ``cli.main``, so an interrupt that lands during start-up also
ends with exit 130 and the one line ``interrupted``, not a traceback.
"""

import sys


def main() -> int:
    try:
        from .cli import main as cli_main

        return cli_main()
    except KeyboardInterrupt:  # cli.main handles one that lands inside its commands
        print("interrupted", file=sys.stderr)
        return 130  # cli.EXIT_INTERRUPTED, which cannot be imported before cli


if __name__ == "__main__":
    sys.exit(main())
