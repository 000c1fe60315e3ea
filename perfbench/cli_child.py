"""Run one chaircodes CLI command under the tracer.

Usage: python3 perfbench/cli_child.py TRACE_JSON ARGS...

Imports chaircodes.cli, wraps the library's functions, runs the command the
way `python -m chaircodes.cli ARGS...` would, writes the tracer's aggregates
and spans to TRACE_JSON and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402

CHILD_SPAN_CAP = 20_000


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(CHILD_SPAN_CAP)
    tracer.install()
    import chaircodes.cli

    try:
        rc = chaircodes.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps(tracer.to_json_dict()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
