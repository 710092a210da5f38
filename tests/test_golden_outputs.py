"""Canonical CLI output on the catalog stays byte for byte what is stored.

`tests/golden/` holds, for each of the 5 catalog entries, the `dual-report`
output (json and csv), the `gap-analyze` output (json and csv) and the `kkt-verify` output
at every KKT pin of the entry.  It also holds the `dual-report` and
`gap-analyze` json of each entry's tabulated twin (`<name>.twin.*`): f and g
sampled on 401 points of the entry's box and read back as an instance
document, so the grid-only paths are pinned as well.  A change that alters any of these bytes
either fixes a listed defect (then regenerate the files with
`python tests/test_golden_outputs.py` and say why in the change log) or
breaks the canonical output.
"""

import json
import pathlib
import sys

import pytest

from phidual.catalog import catalog_names, get_entry
from phidual.cli import main

from oracles import twin_document

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TWIN = "{twin}"  # stands for the twin's instance file in the arguments


def _invocations() -> dict[str, list[str]]:
    """CLI arguments by golden file name, for every stored output."""
    out = {}
    for name in catalog_names():
        for cmd in ("dual-report", "gap-analyze"):
            out[f"{name}.{cmd}.json"] = [cmd, "--catalog", name]
            out[f"{name}.{cmd}.csv"] = [cmd, "--catalog", name, "--format", "csv"]
        for k, pin in enumerate(get_entry(name).expected.get("kkt", [])):
            out[f"{name}.kkt-verify-{k}.json"] = [
                "kkt-verify", "--catalog", name,
                f"--x={pin['x']!r}", f"--a={pin['a']!r}", f"--w={pin['w']!r}",
            ]
        for cmd in ("dual-report", "gap-analyze"):
            out[f"{name}.twin.{cmd}.json"] = [cmd, "--instance", TWIN]
    return out


def _run(argv: list[str], path: pathlib.Path) -> bytes:
    if TWIN in argv:
        name = path.name.split(".twin.")[0]
        twin = path.with_name(f"{name}.twin-instance.json")
        twin.write_text(json.dumps(twin_document(get_entry(name).build())))
        argv = [str(twin) if a == TWIN else a for a in argv]
    main([*argv, "--out", str(path)])
    return path.read_bytes()


INVOCATIONS = _invocations()


@pytest.mark.parametrize("fname", sorted(INVOCATIONS))
def test_cli_output_matches_golden(tmp_path, fname):
    assert _run(INVOCATIONS[fname], tmp_path / fname) == (GOLDEN / fname).read_bytes()


if __name__ == "__main__":
    # regenerate every golden file from the current code
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for fname, argv in INVOCATIONS.items():
            (GOLDEN / fname).write_bytes(_run(argv, pathlib.Path(tmp) / fname))
            print(fname, file=sys.stderr)
