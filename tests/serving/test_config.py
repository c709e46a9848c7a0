"""``ServingConfig`` holds exactly what ``repro serve`` has flags for."""

from __future__ import annotations

import argparse
import dataclasses

from repro.cli import build_parser
from repro.serving import ServingConfig


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
    assert len(fields) == 11
    actions = _serve_actions()
    for field in fields:
        assert field.name in actions, field.name
        assert actions[field.name].default == field.default, field.name
