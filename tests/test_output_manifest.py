"""The bytes of the tree a cold `forge pipeline` writes over the integration
corpus, pinned by sha256 in `output_manifest.json` (`.forge_state.json`
included). A change that alters an output on purpose rewrites the manifest
in the same commit, so its diff names every changed file:

    PYTHONPATH=src python tests/test_output_manifest.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from lego_forge.cli import EXIT_OK, load_config, run_pipeline

from conftest import build_integration_corpus

MANIFEST = Path(__file__).with_name("output_manifest.json")


def output_digests(config: Path) -> dict[str, str]:
    """Run a cold pipeline in process; sha256 of every file in out_dir by relative path."""
    cfg = load_config(config)
    assert run_pipeline(cfg, echo=lambda line: None) == EXIT_OK
    return {
        path.relative_to(cfg.out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(cfg.out_dir.rglob("*"))
        if path.is_file()
    }


def test_cold_pipeline_writes_the_manifest_bytes(corpus):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = output_digests(corpus)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"outputs that differ from {MANIFEST.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(build_integration_corpus(Path(tmp) / "corpus"))
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
