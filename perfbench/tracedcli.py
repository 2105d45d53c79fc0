"""Run one iterk CLI request with spans recorded, then write them out.

cli-cold's traced run starts this instead of ``python -m iterk``:

    python perfbench/tracedcli.py SPANS_FILE <iterk arguments>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from iterk import cli

    tracer = spans.Tracer()
    tracer.install(spans.iterk_modules())
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        spans.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
