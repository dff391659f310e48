"""The bytes of the tree a cold `forge pipeline` writes, pinned by sha256
(`.forge_state.json` included) over two corpora: the integration corpus, in
`output_manifest.json`, and the seed-1 `rerun` corpus of `bench/corpus.py`,
in `output_manifest_rerun.json`. A change that alters an output on purpose
rewrites the manifests in the same commit, so their diff names every
changed file:

    PYTHONPATH=src python tests/test_output_manifest.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from lego_forge.cli import EXIT_OK, load_config, run_pipeline

from conftest import build_integration_corpus

HERE = Path(__file__).parent
BENCH_CORPUS = HERE.parent / "bench" / "corpus.py"


def build_rerun_corpus(root: Path) -> Path:
    """Write the seed-1 `rerun` corpus of bench/corpus.py; return its config."""
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.generate(root, "rerun", 1).config


# Corpus name: (its manifest, the function that writes it and returns its config).
CORPORA = {
    "integration": (HERE / "output_manifest.json", build_integration_corpus),
    "rerun": (HERE / "output_manifest_rerun.json", build_rerun_corpus),
}


def output_digests(config: Path) -> dict[str, str]:
    """Run a cold pipeline in process; sha256 of every file in out_dir by relative path."""
    cfg = load_config(config)
    assert run_pipeline(cfg, echo=lambda line: None) == EXIT_OK
    return {
        path.relative_to(cfg.out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(cfg.out_dir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_cold_pipeline_writes_the_manifest_bytes(name, tmp_path):
    manifest, build = CORPORA[name]
    want = json.loads(manifest.read_text(encoding="utf-8"))
    got = output_digests(build(tmp_path / "corpus"))
    differ = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not differ, f"outputs that differ from {manifest.name}: {differ}"


if __name__ == "__main__":
    for manifest, build in CORPORA.values():
        with tempfile.TemporaryDirectory() as tmp:
            digests = output_digests(build(Path(tmp) / "corpus"))
        manifest.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {manifest}")
