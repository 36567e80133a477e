"""One module per CLI command, each with a ``run(args, store) -> int``.

``faasplan.cli`` parses the arguments and imports only the module of the
command it runs, so a process compiles no other command's code. These
modules never import ``faasplan.cli``: under ``python -m faasplan.cli``
that module runs as ``__main__``, and importing it by name would compile
and run it a second time. This package holds what several commands share.
"""

from __future__ import annotations

import functools
import json
import sys


def emit(args, report, table, dumps=functools.partial(json.dumps, indent=2)) -> None:
    """Print ``report`` in the ``--format`` asked for: ``dumps(report)`` or ``table(report)``.

    A ``dumps`` that returns an iterator of parts, not a str, has each part
    written as it comes, so the whole text is never held at once.
    """
    text = dumps(report) if args.format == "json" else table(report)
    sys.stdout.writelines([text] if isinstance(text, str) else text)
    sys.stdout.write("\n")


def fields(rows, gap: str = "  ") -> str:
    """``label``/``value`` lines, each value ``gap`` after the longest label."""
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}{gap}{value}" for label, value in rows)


def violation_line(v: dict) -> str:
    return f"  {v['limit_name']}: {v['actual_value']} B > {v['limit_value']} B limit"
