"""Byte-identity of the command line's outputs: each output of the fixed
command list in tools/outputs.py against its SHA-256 in
tests/data/outputs.json, which `python tools/outputs.py` rewrites."""
import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs_tool", _TOOL)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_every_output_matches_its_digest(tmp_path):
    """Names the command of every output that differs, and of every digest
    with no command or command with no digest."""
    expected = json.loads(outputs.DIGESTS.read_text(encoding="utf-8"))
    actual = {command: outputs.digest(text) for command, text in outputs.outputs(tmp_path)}
    differ = [c for c in {**expected, **actual} if expected.get(c) != actual.get(c)]
    assert not differ, f"{len(differ)} of {len(actual)} outputs differ: " + "; ".join(differ)
    assert list(actual) == list(expected)
