"""Run one ``store`` command as ``python -m twigstore.cli`` does, and add
the seconds its snapshot restore took as the last line of stderr:

    python3 perfbench/cli_child.py get 1#2 --config store.cfg

``cli-session`` runs its commands through this file, so that every cold
start also yields a restore sample.
"""

import sys
import time

import twigstore.cli as cli

RESTORE_LINE = "perfbench restore seconds "


def main() -> int:
    spent = []
    restore = cli.restore

    def timed_restore(path):
        start = time.perf_counter()
        try:
            return restore(path)
        finally:
            spent.append(time.perf_counter() - start)

    cli.restore = timed_restore
    code = cli.main(sys.argv[1:])
    print(f"{RESTORE_LINE}{sum(spent)!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
