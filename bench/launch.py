"""Run one netrecon CLI command with the benchmark's tracer installed.

    python bench/launch.py TRACE_DIR PARENT_SPAN -- <netrecon command and options>

Wraps netrecon's public functions (see tracer.TRACED), calls
`netrecon.cli.main` with the given arguments, writes this process's spans to
TRACE_DIR and exits with the CLI's exit code. Pool workers the command forks
write their own spans to TRACE_DIR. PARENT_SPAN links this process's spans to
the benchmark's span for the stage.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_dir, parent, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: launch.py TRACE_DIR PARENT_SPAN -- <netrecon args>")
    tracer = Tracer(trace_dir, root_parent=parent or None)
    tracer.install()
    from netrecon.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
