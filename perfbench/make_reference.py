"""Write ``reference/``: the tables of every invocation that takes no seeded input.

The stored tables are what the checks compare later versions against, so run
this only on the commit whose outputs define the reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, child_env, run_child
from workloads import GENERATORS, build


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        for workload in GENERATORS:
            for inv in build(workload, 0, work / "scenarios"):
                refs = {name: spec["file"] for name, specs in inv.outputs.items()
                        for spec in specs if spec["kind"] == "reference"}
                if not refs:
                    continue
                with open(work / "stderr.log", "wb") as log:
                    _, _, code = run_child(inv.argv(work), child_env(), work, log)
                if code != 0:
                    print(f"{inv.name} failed with exit code {code}", file=sys.stderr)
                    return 1
                for name, ref in refs.items():
                    with open(work / name, "rb") as src, \
                            gzip.GzipFile(REFERENCE / ref, "wb", mtime=0) as dst:
                        shutil.copyfileobj(src, dst)
                    print(f"wrote reference/{ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
