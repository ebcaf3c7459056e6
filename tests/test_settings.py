"""docs/SETTINGS.md is the settings catalogue, and it is the code's.

The table lists every user-settable value — each optional flag of each
``repro`` verb, walked from :func:`repro.cli.build_parser`, and each
``ServeConfig`` / ``EngineConfig`` field — with its default and what
justifies it.  These tests fail on a missing row, an extra row, a
stale default or a justification that does not resolve.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.engine import EngineConfig
from repro.serve import ServeConfig

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "docs" / "SETTINGS.md"

#: Where a justification may point: tests, CI and the benchmarks.
EVIDENCE_DIRS = ("tests/", ".github/workflows/", "benchmarks/")

#: The settings a deployment alone justifies.
DEPLOYMENT = {
    "repro serve --host",
    "repro serve --port",
    "ServeConfig.host",
    "ServeConfig.port",
}

_ROW = re.compile(r"^\| `([^`]+)` \| `([^`]*)` \| (.+) \|$")
_EVIDENCE = re.compile(r"`([^`\s]+)`: `([^`]+)`")


def settings_in_code() -> dict[str, tuple[str, tuple[str, ...]]]:
    """``name -> (default, spellings)`` for every settable value; the
    spellings are what a justification may name it by."""
    found = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for verb, sub in action.choices.items():
                    walk(sub, path + [verb])
            elif action.option_strings and not isinstance(
                action, (argparse._HelpAction, argparse._VersionAction)
            ):
                name = f"{' '.join(path)} {action.option_strings[0]}"
                spellings = (*action.option_strings, action.dest)
                found[name] = (str(action.default), spellings)

    walk(build_parser(), ["repro"])
    for config in (ServeConfig, EngineConfig):
        for field in dataclasses.fields(config):
            flag = "--" + field.name.replace("_", "-")
            found[f"{config.__name__}.{field.name}"] = (
                str(field.default), (field.name, flag)
            )
    return found


def catalogue_rows() -> list[tuple[str, str, str]]:
    return [
        match.groups()
        for line in CATALOGUE.read_text().splitlines()
        if (match := _ROW.match(line))
    ]


def _squeeze(text: str) -> str:
    return " ".join(text.split())


def test_one_row_per_setting():
    names = [name for name, _default, _why in catalogue_rows()]
    assert len(names) == len(set(names)), "a setting has two rows"
    code = settings_in_code()
    assert sorted(set(code) - set(names)) == [], "settings without a row"
    assert sorted(set(names) - set(code)) == [], "rows without a setting"
    assert f"— {len(code)} settings." in _squeeze(CATALOGUE.read_text())


def test_defaults_are_the_code_defaults():
    code = settings_in_code()
    stale = {
        name: (default, code[name][0])
        for name, default, _why in catalogue_rows()
        if name in code and code[name][0] != default
    }
    assert stale == {}


@pytest.mark.parametrize(
    "name, why", [(name, why) for name, _d, why in catalogue_rows()]
)
def test_every_row_is_justified(name, why):
    spellings = settings_in_code()[name][1]
    evidence = _EVIDENCE.findall(why)
    deployment = "deployment" in _EVIDENCE.sub("", why)
    assert evidence or deployment, f"{name}: no justification"
    assert not deployment or name in DEPLOYMENT, (
        f"{name}: only {sorted(DEPLOYMENT)} rest on deployment"
    )
    for path, text in evidence:
        assert path.startswith(EVIDENCE_DIRS), f"{path}: not a test, CI or bench"
        source = ROOT / path
        assert source.is_file(), f"{path}: no such file"
        assert _squeeze(text) in _squeeze(source.read_text()), (
            f"{path} does not contain {text!r}"
        )
        assert any(s in text for s in spellings), (
            f"{text!r} does not name {name}"
        )
