"""Run a command as the child of this small process and report how it went.

    python -S bench/spawn.py LOG -- COMMAND [ARGS...]

Prints one JSON line: exit code, wall seconds and peak resident set (MB)
from `wait4`. The peak of an exec'd child includes the resident set of the
process it was forked from, so a command started straight from the
benchmark process would report at least that process's size; started from
this process it reports at least this process's few MB. The command's
stdout and stderr go to LOG.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    log, separator, *cmd = argv
    if separator != "--" or not cmd:
        raise SystemExit("usage: spawn.py LOG -- COMMAND [ARGS...]")
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
    finally:
        os.close(fd)
    print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "s": seconds,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
