"""Print the sha256 of every output of the default benchmark commands.

Usage, from the root of a checkout:

    python3 tools/output_digests.py [CHECKOUT]

Runs ``compare``, ``bounds`` and ``table`` into a temporary directory, and
``gradcheck``, each at its defaults (no config file) as ``python -m varproj``
in a subprocess. The library is imported from ``CHECKOUT/src`` (by default
the checkout that holds this script), and every BLAS thread-count variable
of ``varproj.cli.BLAS_THREAD_VARS`` is set to 1, since outputs repeat byte
for byte only at a fixed BLAS thread count.

Prints one ``<sha256>  <command>/<file>`` line per output file, sorted,
and one ``<sha256>  gradcheck.stdout`` line. ``manifest.json`` is left out:
it records timings and the environment. Two checkouts whose outputs are
byte-identical print identical lines, so a refactor is checked by running
this once on each and comparing the two listings.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from varproj.cli import BLAS_THREAD_VARS  # noqa: E402

WRITING_COMMANDS = ("compare", "bounds", "table")


def _run(checkout: Path, *args: str) -> bytes:
    """Run ``python -m varproj *args`` on the checkout's library; return its
    stdout, or exit with its stderr if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    result = subprocess.run([sys.executable, "-m", "varproj", *args], env=env,
                            capture_output=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace"))
        sys.exit(f"varproj {args[0]} exited with {result.returncode}")
    return result.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(checkout: Path) -> list[tuple[str, str]]:
    """(sha256, name) of every output of the default commands, sorted by name."""
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in WRITING_COMMANDS:
            out_dir = Path(tmp) / command
            _run(checkout, command, "--out", str(out_dir))
            for path in out_dir.iterdir():
                if path.name != "manifest.json":
                    digests.append((_sha256(path.read_bytes()), f"{command}/{path.name}"))
    digests.append((_sha256(_run(checkout, "gradcheck")), "gradcheck.stdout"))
    return sorted(digests, key=lambda item: item[1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT,
                        help="root of the checkout whose src/ is run (default: this one)")
    args = parser.parse_args()
    for digest, name in output_digests(args.checkout.resolve()):
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
