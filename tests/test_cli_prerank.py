"""CLI surface of the pre-ranker and the snapshot's embedding sections."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def kb_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli-prerank") / "kb")
    assert (
        main(
            ["generate-kb", "--out", directory, "--seed", "7",
             "--clusters", "2"]
        )
        == 0
    )
    return directory


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli-prerank") / "corpus.jsonl")
    assert (
        main(
            ["corpus", "--out", path, "--seed", "7", "--clusters", "2",
             "--kind", "kore50"]
        )
        == 0
    )
    return path


class TestFlags:
    @pytest.mark.parametrize(
        "command, required",
        [
            ("disambiguate", ["--kb", "x", "--text", "y"]),
            ("evaluate", ["--kb", "x", "--corpus", "y"]),
            ("serve", ["--kb", "x"]),
        ],
    )
    def test_prerank_flags_parse(self, command, required):
        args = build_parser().parse_args(
            [command, *required, "--prerank-topk", "8"]
        )
        assert args.prerank_topk == 8

    def test_prerank_defaults_off(self):
        args = build_parser().parse_args(
            ["evaluate", "--kb", "x", "--corpus", "y"]
        )
        assert args.prerank_topk is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["embeddings", "train", "--kb", "x", "--out", "y"],
            ["relatedness", "--kb", "x", "--measure", "embedding", "a"],
            ["evaluate", "--kb", "x", "--corpus", "y",
             "--relatedness", "embedding"],
        ],
    )
    def test_embedding_scoring_surfaces_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_topk_is_clean_cli_error(self, kb_dir, corpus_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["evaluate", "--kb", kb_dir, "--corpus", corpus_path,
                 "--prerank-topk", "0"]
            )
        assert "prerank_topk" in str(excinfo.value)


class TestEvaluate:
    def test_huge_k_output_identical(self, kb_dir, corpus_path, capsys):
        assert (
            main(["evaluate", "--kb", kb_dir, "--corpus", corpus_path])
            == 0
        )
        baseline = capsys.readouterr().out
        assert (
            main(
                ["evaluate", "--kb", kb_dir, "--corpus", corpus_path,
                 "--prerank-topk", "1000000"]
            )
            == 0
        )
        assert capsys.readouterr().out == baseline


class TestSnapshotEmbeddings:
    def test_build_embed_and_serve(
        self, kb_dir, corpus_path, tmp_path, capsys
    ):
        snap_path = str(tmp_path / "kb.snap")
        assert (
            main(
                ["snapshot", "build", "--kb", kb_dir, "--out", snap_path,
                 "--embeddings", "--embedding-dim", "16"]
            )
            == 0
        )
        assert "embeddings: d=16" in capsys.readouterr().out
        assert (
            main(
                ["evaluate", "--snapshot", snap_path,
                 "--corpus", corpus_path, "--prerank-topk", "4"]
            )
            == 0
        )
        assert "micro accuracy" in capsys.readouterr().out

    def test_build_without_embeddings_reports_none(
        self, kb_dir, tmp_path, capsys
    ):
        snap_path = str(tmp_path / "plain.snap")
        assert (
            main(["snapshot", "build", "--kb", kb_dir,
                  "--out", snap_path])
            == 0
        )
        assert "embeddings: none" in capsys.readouterr().out

