"""``ServingConfig`` holds exactly what ``repro serve`` has flags for."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json

from repro.cli import build_parser, main
from repro.kb.io import save_knowledge_base
from repro.serving import ServingConfig

from tests.serving.conftest import document_payload


def _serve_actions():
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        action.dest: action for action in subparsers.choices["serve"]._actions
    }


def test_every_field_is_a_serve_flag_with_its_default():
    fields = dataclasses.fields(ServingConfig)
    assert len(fields) == 10
    actions = _serve_actions()
    for field in fields:
        assert field.name in actions, field.name
        assert actions[field.name].default == field.default, field.name


def test_batch_window_flag_is_accepted_and_ignored(
    kb, sample_docs, tmp_path, monkeypatch, capsys
):
    """``--batch-window-ms`` still parses (scripts pass it), sets no
    config field, and says on stderr that it is ignored."""
    assert "ignored" in _serve_actions()["batch_window_ms"].help
    kb_dir = str(tmp_path / "kb")
    save_knowledge_base(kb, kb_dir)
    document = sample_docs[0].document
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(document_payload(document)))
    )
    assert (
        main(["serve", "--kb", kb_dir, "--batch-window-ms", "2", "--stdin"])
        == 0
    )
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [row["doc_id"] for row in rows] == [document.doc_id]
    assert rows[0]["assignments"]
    notices = [
        line
        for line in captured.err.splitlines()
        if "--batch-window-ms is ignored" in line
    ]
    assert len(notices) == 1
