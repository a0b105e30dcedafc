"""SHA-256 digests of the command line's outputs over a fixed command list,
kept in tests/data/outputs.json and checked by tests/test_outputs.py.

    PYTHONPATH=src python tools/outputs.py   # rewrite the digest file

Every command runs in process through `cli.main`. `verify` outputs lose
their elapsed_ms column, the one field that is not a function of the
command line. The file's keys are the commands, so after a rewrite
`git diff tests/data/outputs.json` names every output that changed; a
change that alters an output on purpose says which and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import Iterator

from envy_census import cli

DIGESTS = Path(__file__).resolve().parent.parent / "tests" / "data" / "outputs.json"

# Instance files, each written by `gen` to stdout and then counted.
INSTANCES = {
    "random-monotone-m5.json": "gen random-monotone --m 5 --seed 3",
    "random-monotone-m18.json": "gen random-monotone --m 18 --seed 1",
    "tight-ef1-m9.json": "gen tight-ef1 --m 9",
    "tight-efx-m7.json": "gen tight-efx --m 7",
    "additive-m6.json": "gen additive --m 6 --values 1/2,0.25,3,7/3,1,1/3 --values2 2,1/3,1/3,5,0.75,4",
}
# Run on every instance file: each report, and each list of both agents.
COUNT_OPTIONS = [f"--fairness {kind}" for kind in ("ef1", "efx", "both")] + [
    f"--list {which} --agent {agent}"
    for which in ("good", "too-small", "too-large", "ef1-partitions")
    for agent in (1, 2)
]
COMMANDS = [
    "verify --m-range 2..14 --trials 80 --seed 7 --jobs 1",
    "verify --m-range 2..14 --trials 80 --seed 7 --jobs 2",
    "verify --m-range 15..18 --trials 3",
    # Seeding edge cases: a negative seed, one past 32 bits, and MIN_SEED.
    "gen random-monotone --m 1 --seed -1",
    "gen random-monotone --m 4 --seed 4294967296",
    "verify --m-range 1..6 --trials 300 --seed -170141183460469231731687303715884105728",
    "harper --m 12 --trials 20",
    # Distance walks with tiles: m = 20 cuts each lattice into 16 of them.
    "harper --m 20 --trials 4",
    "harper --m 11 --trials 40",
    "shadow --n 123456789 --k 7",
    "cascade --n 123456789 --k 7",
]


def _run(argv: list[str]) -> str:
    """stdout of one command, which must exit 0; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"`{' '.join(argv)}` exited {code}")
    return out.getvalue()


def outputs(workdir: Path) -> Iterator[tuple[str, str]]:
    """(command, output) of every listed command, in order. Instance files
    are written to `workdir`, and a command names them as written there."""
    for name, command in INSTANCES.items():
        text = _run(command.split())
        (workdir / name).write_text(text, encoding="utf-8")
        yield f"{command} > {name}", text
        for options in COUNT_OPTIONS:
            yield f"count {name} {options}", _run(["count", str(workdir / name), *options.split()])
    for command in COMMANDS:
        text = _run(command.split())
        if command.startswith("verify"):
            text = "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())
        yield command, text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        digests = {command: digest(text) for command, text in outputs(Path(workdir))}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
