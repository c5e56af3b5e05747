#!/usr/bin/env python3
"""List the lines of src/robust_ope that the Tier-1 tests never run.

Runs pytest in a child process under the standard library's `trace`
module, then prints `module:line  source` for each executable line of
`src/robust_ope` that no test ran, and their count. The counts are written
to a temporary directory, removed on exit; nothing else is written.

    python scripts/unrun_lines.py            # the whole suite
    python scripts/unrun_lines.py tests/test_data.py -k misaligned

Extra arguments go to pytest in place of `tests`. The exit status is
pytest's. The whole suite takes about 45 s on 2 vCPUs.

The listing holds error branches no test reaches, and also lines that do
run where `trace` cannot count them: CLI paths that only the subprocess
tests reach, and the child of the robust fit helper, which leaves by
`os._exit` before `trace` writes its counts.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "robust_ope"

# argv: cover directory, then pytest's arguments
CHILD = """
import sys, sysconfig, trace, pytest
ignore = {sys.prefix, sys.base_prefix, sysconfig.get_path("stdlib"),
          sysconfig.get_path("purelib"), sysconfig.get_path("platlib")}
tracer = trace.Trace(count=1, trace=0, ignoredirs=sorted(ignore))
status = tracer.runfunc(pytest.main, sys.argv[2:])
tracer.results().write_results(show_missing=True, coverdir=sys.argv[1])
sys.exit(status)
"""


def main(argv: list[str]) -> int:
    # on PYTHONPATH, not only pytest's `pythonpath`, so that `trace` still
    # names the package's files after pytest has restored sys.path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        status = subprocess.run(
            [sys.executable, "-c", CHILD, tmp, "-q", "-p", "no:cacheprovider",
             *(argv or ["tests"])], cwd=ROOT, env=env).returncode
        unrun = 0
        for cover in sorted(Path(tmp).glob(f"{PACKAGE}.*.cover")):
            module = cover.name.removesuffix(".cover")
            for number, line in enumerate(cover.read_text().splitlines(), 1):
                if line.startswith(">>>>>> "):
                    print(f"{module}:{number}  {line[7:].strip()}")
                    unrun += 1
    print(f"{unrun} lines of src/{PACKAGE} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
