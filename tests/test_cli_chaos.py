"""Chaos through the CLI: ``repro evaluate --degrade`` degrades, not fails.

The chaos fixture (``tests/faults/chaos.py``) is installed on the
pipeline that :meth:`PipelineSpec.build` returns, so the command runs
with its relatedness backend permanently down.  The chaos flags the
command once had are gone.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.spec import PipelineSpec

from tests.faults.chaos import Chaos, Fault


@pytest.fixture(scope="module")
def kb_and_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-chaos")
    kb_dir, corpus = str(root / "kb"), str(root / "kore50.jsonl")
    assert main(
        ["generate-kb", "--out", kb_dir, "--seed", "7", "--clusters", "2"]
    ) == 0
    assert main(
        ["corpus", "--kind", "kore50", "--out", corpus, "--seed", "7",
         "--clusters", "2"]
    ) == 0
    return kb_dir, corpus


@pytest.fixture
def relatedness_down(monkeypatch):
    """Every pipeline the CLI builds has its relatedness backend down."""
    installed = []
    build = PipelineSpec.build

    def build_with_chaos(spec):
        pipeline = build(spec)
        chaos = Chaos(pipeline, [Fault("relatedness", kind="permanent")])
        installed.append(chaos.__enter__())
        return pipeline

    monkeypatch.setattr(PipelineSpec, "build", build_with_chaos)
    yield installed
    for chaos in installed:
        chaos.__exit__(None, None, None)


def test_evaluate_degrades_not_fails(kb_and_corpus, relatedness_down, capsys):
    kb_dir, corpus = kb_and_corpus
    assert main(
        ["evaluate", "--kb", kb_dir, "--corpus", corpus, "--degrade"]
    ) == 0
    out = capsys.readouterr().out
    assert "degradation rungs:" in out
    assert "no_coherence=" in out
    assert "failed documents:" not in out
    assert relatedness_down and relatedness_down[0].triggers[
        "relatedness"
    ].fired


@pytest.mark.parametrize(
    "flags", [["--retries", "1"], ["--inject", "relatedness"]]
)
def test_chaos_flags_are_gone(kb_and_corpus, flags, capsys):
    kb_dir, corpus = kb_and_corpus
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--kb", kb_dir, "--corpus", corpus, *flags])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
