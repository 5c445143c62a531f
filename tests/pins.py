"""The pinned commands: each one's argv lists and the sha256 of their stdout.

``check(name, flags)`` runs one pin in a child ``python <flags>``, which calls
``twistor4.cli.main`` on each argv in turn and stops at the first non-zero
exit.  Tier-1 checks every pin with and without ``-O``; so does

    python tests/pins.py

which prints each digest and exits 1 at the first failing call or wrong
digest.  A re-pin edits the digests here, and ``perfbench/expected.json``,
through ``perfbench/pin.py``, for ``enumerate --json``.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Pin = namedtuple("Pin", "argvs sha256")

PINS = {
    "enumerate --json": Pin(
        [["enumerate", "--json"]],
        "918cee63dc80362a4b3a22f0ab34c4348b0d58c2054960c37e84f306afb0a4bb"),
    # the full text table, error rows included
    "enumerate": Pin(
        [["enumerate"]],
        "c5adad34bd8cb68f5d162fc5ab052dc62abc5223c0245be696cdbe011e0bdfe6"),
    # a capped walk keeps the same first representatives
    "enumerate --limit 10 --json": Pin(
        [["enumerate", "--limit", "10", "--json"]],
        "438eb58696d5ae852ef35d968bc307afcf74254376f4aefa2a188faac2ac73d2"),
    # the benchmark's enumerate_json cold-start probe: the first kept entry
    # alone, classified as soon as it is met
    "enumerate --limit 1 --json": Pin(
        [["enumerate", "--limit", "1", "--json"]],
        "4a3296e612411f114bf986165f9e5a08d9aeddd80d558e8a62d8cf7ed8700336"),
    # the golden documents, classified one after another
    "classify --json": Pin(
        [["classify", "--json", f"schedules/{name}.json"]
         for name in ("case_a", "case_b", "case_c", "nef")],
        "003dd3e63a5570a2742fb38e63d57e5c6b8ea3431d30bcc52b757bf0e92aa00a"),
    # every criterion's detail line; no line carries a timing
    "selftest": Pin(
        [["selftest"]],
        "ed6266c675b099b0620ba4e2be3d75ccfb42e313cccc68bc14390d7344733108"),
    # the README's examples, then m = 2, one negative, an arc with no
    # positive component, a census necklace, all positive and all zero;
    # each prints "agree":true, and a disagreement exits 2.  The oracle's
    # value does not depend on which generic gluings it draws
    "cycle-h0 --oracle --json": Pin(
        [["cycle-h0", "--oracle", "--json", "--degrees", degrees]
         for degrees in ("2,-2,2,-2", "3,-1,0,0", "1,-1,1,-1", "3,-3", "1,1,-1",
                         "2,-1,0,-1", "0,-2,4,-2", "2,3,4", "0,0", "0,0,0")],
        "42264096bef44f6634aab41483d61444edf54348ebf6481799227abf49d526bb"),
    # the small cases around the kernel at n = 4, a middle size and the cap
    "pairing --json": Pin(
        [["pairing", "--n", n, "--json"] for n in ("1", "2", "3", "4", "5", "40", "150")],
        "bb4a468715945686b62ef671ed19c36a9b84d3a1a17ac8a92a73974e9b951cd7"),
}

_CHILD = """\
import json, sys
from twistor4.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        print("failed:", *argv, file=sys.stderr)
        sys.exit(code)
"""


class PinError(Exception):
    """A pinned call that failed, or a pin whose stdout has another digest."""


def check(name, flags):
    """Run pin ``name`` under ``python <flags>`` from the repository root and
    return its digest; raise ``PinError``, naming the pin, if it differs."""
    argvs, pinned = PINS[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, *flags.split(), "-c", _CHILD, json.dumps(argvs)],
                           capture_output=True, cwd=ROOT, env=env)
    where = f"python {flags}".strip() + f": {name}"
    if child.returncode:
        raise PinError(f"{where}: exit {child.returncode}\n{child.stderr.decode().strip()}")
    digest = hashlib.sha256(child.stdout).hexdigest()
    if digest != pinned:
        raise PinError(f"{where}: sha256 {digest}, pinned {pinned}")
    return digest


if __name__ == "__main__":
    try:
        for flags in ("", "-O"):
            for name in PINS:
                print(f"python {flags}".strip() + f": {name}: {check(name, flags)}",
                      flush=True)
    except PinError as failed:
        sys.exit(f"FAIL {failed}")
