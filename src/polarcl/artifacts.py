"""File formats and run manifests.

Every JSON artifact embeds a manifest recording the command line, the
descriptor, seeds, tool version, timing, and completeness flags.
Re-running the same manifest reproduces the artifact byte-identically
apart from the timing fields: all orderings downstream are canonical and
the only randomness (test-corpus generation) is seeded.

Generator-set files are plain text: either one `idx:N` line per member
(N an index into the canonical generator order of the space) or one
serialized subspace per line, semicolon-separated echelon rows of
comma-separated field-element encodings.  Non-canonical matrices are
rejected with a hint showing the normalized form.
"""

from __future__ import annotations

import json
import time

from . import __version__
from .counting import num_kspaces
from .enumeration import PolarSpace, get_space
from .geometry import GeometryError, descriptor, gf_rref


def make_manifest(command, desc=None, seed=None, completeness=None,
                  extra=None) -> dict:
    man = {
        "tool": "polarcl",
        "version": __version__,
        "command": list(command),
        "timing": {"unix_time": time.time()},
    }
    if desc is not None:
        man["descriptor"] = {
            "family": desc.family, "rank": desc.rank, "q": desc.q,
            "dim": desc.dim, "name": desc.name(),
        }
    if seed is not None:
        man["seed"] = seed
    if completeness is not None:
        man["completeness"] = completeness
    if extra:
        man.update(extra)
    return man


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def space_payload(space: PolarSpace, command) -> dict:
    return {
        "manifest": make_manifest(command, space.desc),
        "points": [",".join(str(x) for x in p) for p in space.points],
        "generators": [space.serialize_subspace(g) for g in space.generators],
        "generator_classes": space.class_labels,
        "counts": {str(k): len(v) for k, v in space.levels.items()},
    }


def load_space(path) -> PolarSpace:
    """The space of a stored file, its generator list certified instead of
    re-enumerated (see `PolarSpace._certify`): a list that passes is the
    canonical one, so its masks and order are the enumeration's.  The
    stored points must be the space's isotropic points in their order,
    the class labels the computed ones and the counts the closed forms.
    The levels below the generators are enumerated when first read.  A
    file that fails raises GeometryError naming the line and the check.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        d, stored = data["manifest"]["descriptor"], list(data["generators"])
        points = data["points"]
        desc = descriptor(d["family"], d["rank"], d["q"], d["dim"])
    except (KeyError, TypeError) as ex:
        raise GeometryError(f"{path}: not a space file, no manifest "
                            f"descriptor, point list or generator list "
                            f"({ex!r})") from None
    rows = []
    for g, line in enumerate(stored):
        try:
            rows.append(tuple(tuple(int(x) for x in row.split(","))
                              for row in line.split(";")))
        except (AttributeError, ValueError):
            raise GeometryError(f"{path}: generator line {g} ({line!r}) is "
                                "not rows of comma-separated integers") from None
    try:
        space = get_space(desc.family, desc.rank, desc.q, desc.dim,
                          generators=rows)
    except GeometryError as ex:
        raise GeometryError(f"{path}: {ex}") from None
    if points != [",".join(str(x) for x in p) for p in space.points]:
        raise GeometryError(f"{path}: the point list is not the isotropic "
                            f"points of {space.name()} in canonical order")
    if data.get("generator_classes") != space.class_labels:
        raise GeometryError(f"{path}: the generator classes are not those "
                            f"of {space.name()}")
    counts = {str(k): num_kspaces(desc.rank, desc.e, desc.q, k - 1)
              for k in range(1, desc.rank + 1)}
    if data.get("counts") != counts:
        raise GeometryError(f"{path}: the level counts are not the closed "
                            f"forms of {space.name()}")
    return space


def parse_subspace_line(line: str, space: PolarSpace):
    rows = []
    for part in line.strip().split(";"):
        row = tuple(int(x) for x in part.split(","))
        if len(row) != space.desc.nvars:
            raise GeometryError(
                f"row {part!r} has {len(row)} entries, ambient needs "
                f"{space.desc.nvars}")
        for x in row:
            if not 0 <= x < space.desc.q:
                raise GeometryError(f"entry {x} is not a field encoding "
                                    f"(0..{space.desc.q - 1})")
        rows.append(row)
    canon = gf_rref(rows, space.gf)[0]
    if tuple(rows) != canon:
        raise GeometryError(
            f"subspace {line.strip()!r} is not in reduced echelon form; "
            f"normalized form: {space.serialize_subspace(canon)!r}")
    return canon


def load_generator_set(path, space: PolarSpace) -> int:
    """Read a set file into a bitmask over the canonical generator order."""
    mask = 0
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("idx:"):
                idx = int(line[4:])
                if not 0 <= idx < space.n_generators:
                    raise GeometryError(f"generator index {idx} out of range")
            else:
                canon = parse_subspace_line(line, space)
                if canon not in space.gen_index:
                    raise GeometryError(
                        f"{line!r} is not a generator of {space.name()}")
                idx = space.gen_index[canon]
            mask |= 1 << idx
    return mask


def write_generator_set(path, space: PolarSpace, mask: int,
                        explicit: bool = False):
    with open(path, "w") as fh:
        g = 0
        m = mask
        while m:
            if m & 1:
                if explicit:
                    fh.write(space.serialize_subspace(space.generators[g]) + "\n")
                else:
                    fh.write(f"idx:{g}\n")
            m >>= 1
            g += 1


def load_spreads(path, space: PolarSpace) -> list[int]:
    """Read the solutions of a spread file, each a list of generator
    indices, into bitmasks over the canonical generator order."""
    with open(path) as fh:
        data = json.load(fh)
    sols = data.get("solutions") if isinstance(data, dict) else None
    if not isinstance(sols, list) or not all(isinstance(s, list) for s in sols):
        raise GeometryError(f"{path}: not a spread file, no \"solutions\" "
                            "list of generator index lists")
    out = []
    for sol in sols:
        mask = 0
        for idx in sol:
            if not isinstance(idx, int) or not 0 <= idx < space.n_generators:
                raise GeometryError(f"{path}: generator index {idx!r} is not "
                                    f"in 0..{space.n_generators - 1}")
            mask |= 1 << idx
        out.append(mask)
    return out
