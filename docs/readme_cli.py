"""Run every command of the README's CLI block; each must exit 0.

The commands run in a temporary directory that holds a small job.json for
the `build --spec` line and the `artifacts/` directory it writes to. Each
`conwill ...` line runs as `python -m conwill.cli ...` with this
interpreter and the checkout's `src` first on PYTHONPATH, so it runs this
source whether or not the package is installed.

Run:  python docs/readme_cli.py
"""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
JOB = {"builder": "homogeneous-torus", "r1": 0.6, "r2": 0.8, "resolution": 32}


def readme_commands() -> list[list[str]]:
    """The argument lists of the `conwill` lines in the first ```bash block
    after the README's "## CLI" heading, continuation lines joined."""
    text = README.read_text()
    block = re.search(r"^## CLI\n.*?^```bash\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("conwill ")]


def main() -> int:
    commands = readme_commands()
    failed = 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "job.json").write_text(json.dumps(JOB))
        Path(tmp, "artifacts").mkdir()
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "conwill.cli", *argv], cwd=tmp, env=env,
                                  capture_output=True, text=True)
            print(f"exit {proc.returncode}: conwill {shlex.join(argv)}")
            if proc.returncode:
                failed += 1
                print(proc.stderr, end="")
    print(f"{len(commands) - failed} of {len(commands)} README commands exited 0")
    return 1 if failed or not commands else 0


if __name__ == "__main__":
    sys.exit(main())
