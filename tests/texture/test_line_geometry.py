"""One cache line: its geometry is stated once, and only
:mod:`repro.texture.cache` knows how a line is placed and stored.

Table I's 64-byte line holds one 4x4 tile of 4-byte texels.  Every
component reads :data:`~repro.texture.address.LINE_BYTES`, so no
constructor or method may take a line size, texel size or tile of its
own: two such values could disagree and the model would run on.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.core.expansion import RequestExpander
from repro.memory.gddr5 import Gddr5Config
from repro.memory.hmc import HmcConfig
from repro.memory.packets import PacketSpec
from repro.texture.address import LINE_BYTES, TILE, TexelAddressMap
from repro.texture.cache import CacheConfig
from repro.texture.texture import TEXEL_BYTES

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CACHE_MODULE = SRC / "texture" / "cache.py"
GEOMETRY_NAME = re.compile(r"line|texel|tile", re.IGNORECASE)
CONTENTS = frozenset({"_sets", "_cold_fills"})


def settable_names(owner):
    """The names a caller can set on ``owner``: its dataclass fields and
    its constructor's or method's parameters."""
    names = set(inspect.signature(owner).parameters)
    if dataclasses.is_dataclass(owner):
        names.update(field.name for field in dataclasses.fields(owner))
    return names


def test_a_line_is_one_tile_of_texels():
    assert LINE_BYTES == TILE * TILE * TEXEL_BYTES == 64


@pytest.mark.parametrize("owner", [
    CacheConfig, PacketSpec, HmcConfig, Gddr5Config, TexelAddressMap,
    RequestExpander,
] + [method for _, method in inspect.getmembers(
    TexelAddressMap, inspect.isfunction)], ids=lambda owner: owner.__qualname__)
def test_nothing_sets_the_geometry(owner):
    assert not {name for name in settable_names(owner)
                if GEOMETRY_NAME.search(name)}


def test_only_the_cache_module_touches_cache_contents():
    """No module but ``texture/cache.py`` reads a cache's sets or
    cold-fill logs, or names a line object."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == CACHE_MODULE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in CONTENTS
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            if isinstance(node, ast.Name) and node.id == "_Line":
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
