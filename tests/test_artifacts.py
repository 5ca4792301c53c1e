"""File formats: space files, set files, spread files, manifests."""

import json

import pytest

import polarcl.enumeration as enumeration
from polarcl.artifacts import (load_generator_set, load_space,
                               parse_subspace_line, space_payload,
                               write_generator_set, write_json)
from polarcl.enumeration import get_space_by_name
from polarcl.geometry import GeometryError


def test_space_roundtrip(tmp_path):
    sp = get_space_by_name("W(3,2)")
    path = tmp_path / "w32.json"
    write_json(path, space_payload(sp, ["space", "enumerate"]))
    loaded = load_space(path)
    assert loaded is sp  # cached instance, verified against the file


def test_load_space_rejects_tampered_file(tmp_path):
    sp = get_space_by_name("W(3,2)")
    path = tmp_path / "w32.json"
    payload = space_payload(sp, ["space", "enumerate"])
    payload["generators"][0], payload["generators"][1] = \
        payload["generators"][1], payload["generators"][0]
    write_json(path, payload)
    with pytest.raises(GeometryError):
        load_space(path)


@pytest.mark.parametrize("name", [
    "Q+(5,2)", "Q+(7,2)", "Q(4,2)", "Q(6,2)", "Q-(5,2)", "W(3,2)", "W(3,3)",
    "W(5,2)", "H(3,4)", "H(4,4)", "W(5,3)", "Q(6,3)"])
def test_certified_load_matches_the_enumeration(tmp_path, monkeypatch, name):
    # a stored list is certified, not re-enumerated; the levels below the
    # generators are enumerated when read and equal the enumerated space's
    sp = get_space_by_name(name)
    path = tmp_path / "space.json"
    write_json(path, space_payload(sp, ["space", "enumerate"]))
    monkeypatch.setattr(enumeration, "_SPACE_CACHE", {})
    loaded = load_space(path)
    assert loaded is not sp
    assert loaded.generators == sp.generators
    assert loaded.gen_point_masks == sp.gen_point_masks
    assert loaded.gen_index == sp.gen_index
    assert loaded.class_labels == sp.class_labels
    assert sorted(loaded.levels) == sorted(sp.levels)
    for k in sp.levels:
        assert len(loaded.levels[k]) == len(sp.levels[k]), (name, k)
        assert loaded.levels[k] == sp.levels[k], (name, k)


def test_set_file_roundtrip(tmp_path):
    sp = get_space_by_name("Q-(5,2)")
    mask = 0b1011001
    path = tmp_path / "set.txt"
    write_generator_set(path, sp, mask)
    assert load_generator_set(path, sp) == mask
    write_generator_set(path, sp, mask, explicit=True)
    assert load_generator_set(path, sp) == mask


def test_set_file_validation(tmp_path):
    sp = get_space_by_name("W(3,2)")
    path = tmp_path / "bad.txt"
    path.write_text("idx:99\n")
    with pytest.raises(GeometryError):
        load_generator_set(path, sp)
    path.write_text("5,0,0,0\n")  # entry out of field range
    with pytest.raises(GeometryError):
        load_generator_set(path, sp)
    path.write_text("1,0,0\n")  # wrong ambient length
    with pytest.raises(GeometryError):
        load_generator_set(path, sp)
    # a non-generator subspace in canonical form
    path.write_text("1,0,0,0\n")
    with pytest.raises(GeometryError):
        load_generator_set(path, sp)


def test_parse_subspace_line_normalization_hint():
    sp = get_space_by_name("W(3,2)")
    g = sp.generators[0]
    line = ";".join(",".join(str(x) for x in r) for r in reversed(g))
    if tuple(reversed(g)) != g:
        with pytest.raises(GeometryError) as err:
            parse_subspace_line(line, sp)
        assert "normalized form" in str(err.value)


def test_comments_and_blank_lines_ignored(tmp_path):
    sp = get_space_by_name("W(3,2)")
    path = tmp_path / "set.txt"
    path.write_text("# a comment\n\nidx:3\n")
    assert load_generator_set(path, sp) == 0b1000
