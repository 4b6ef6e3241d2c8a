"""Row printing shared by the jobs (``tables.py`` and ``appendix_d.py``)."""
from __future__ import annotations

import sys


def emit(rows: list[dict], args) -> None:
    from repro.tables import format_markdown

    if args.markdown:
        print(format_markdown(rows))
        return
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    sys.stdout.flush()
