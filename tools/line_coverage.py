"""Line coverage of src/nvsense under the tier-1 tests, standard library only.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tools/line_coverage.py

It runs pytest in this process with a trace function on the frames of
src/nvsense files, in every thread, and takes each module's executable
lines from its code objects' co_lines().  It prints every executable
line no test ran, by file, code object and stripped text, and exits 1
if there is one; it exits with pytest's code when the tests fail.
Hypothesis draws with seed 0, so a line that only some draws reach
fails every run or none; processes the tests start are not traced.
pytest does not collect this file (testpaths is tests/).
"""

import collections
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nvsense"


def executable_lines(path):
    """{line: dotted name of the innermost code object running it}."""
    owner = {}
    todo = [(compile(path.read_text(), str(path), "exec"), "")]
    while todo:
        code, outer = todo.pop()
        name = outer + code.co_name
        owner.update((line, name) for _, _, line in code.co_lines() if line)
        inner = "" if code.co_name == "<module>" else name + "."
        todo += [(c, inner) for c in code.co_consts
                 if hasattr(c, "co_lines")]
    return owner


def main(args):
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    ran = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def watch(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(watch)
    sys.settrace(watch)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--hypothesis-seed=0", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)
    unrun = 0
    for name, path in files.items():
        text = path.read_text().splitlines()
        for line, owner in sorted(executable_lines(path).items()):
            if line not in ran[name]:
                unrun += 1
                print(f"unrun: {path.relative_to(ROOT).as_posix()}:{line} | "
                      f"{owner} | {text[line - 1].strip()}")
    print(f"{unrun} unrun executable lines in src/nvsense")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
