"""Run one traced ``banddet`` CLI call.

    python3 benchmark/launch.py SPANS_JSON VERB [ARGS...]

Installs the benchmark's span wrappers, calls ``banddet.cli.main`` with the
remaining arguments, writes the recorded spans to SPANS_JSON as
[name_id, start_ns, end_ns, parent, work] rows and exits with main's code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from banddet import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps(tracer.rows()))


if __name__ == "__main__":
    sys.exit(main())
