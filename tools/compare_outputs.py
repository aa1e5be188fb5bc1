"""Compare every CLI output of this checkout with those of a git revision.

    python3 tools/compare_outputs.py REV

exports REV with `git archive` into a temporary directory, copies this
checkout's tools/dump_outputs.py into that tree, runs it in both trees, and
prints each output file that differs or exists on one side only. Exit code:
0 when the two dumps are byte-identical, 1 when any file differs, 2 on a
usage error, a REV that cannot be exported or a dump that fails. The
temporary directories are removed in every case.
"""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DUMP = Path("tools") / "dump_outputs.py"


def differences(rev: Path, here: Path) -> list[str]:
    """One line per file under the two dump directories that differs or
    exists on one side only, sorted by path."""
    files = [{p.relative_to(d) for p in d.rglob("*") if p.is_file()} for d in (rev, here)]
    lines = []
    for name in sorted(files[0] | files[1]):
        if name not in files[1]:
            lines.append(f"only in REV: {name}")
        elif name not in files[0]:
            lines.append(f"only in this checkout: {name}")
        elif (rev / name).read_bytes() != (here / name).read_bytes():
            lines.append(f"differs: {name}")
    return lines


def compare(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
        if archive.returncode:
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        (tmp / "rev" / DUMP).parent.mkdir(exist_ok=True)
        shutil.copyfile(ROOT / DUMP, tmp / "rev" / DUMP)
        for tree, out in ((tmp / "rev", tmp / "out-rev"), (ROOT, tmp / "out-here")):
            if subprocess.run([sys.executable, str(tree / DUMP), str(out)], cwd=tree).returncode:
                return 2
        lines = differences(tmp / "out-rev", tmp / "out-here")
    print("\n".join(lines) if lines else f"no output differs from {rev}")
    return 1 if lines else 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: python3 tools/compare_outputs.py REV", file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1]))
