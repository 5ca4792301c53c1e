"""Finite classical polar spaces: standard forms and projective subspaces.

Six families are supported, each with the conventional equation on its
natural ambient projective space:

    Q+(2d-1,q)   X0 X1 + ... + X_{2d-2} X_{2d-1} = 0          e = 0
    H(2d-1,q)    X0^(r+1) + ... + X_{2d-1}^(r+1) = 0, r=sqrt q e = 1/2
    W(2d-1,q)    alternating form, f(e_i, e'_j) = delta_ij     e = 1
    Q(2d,q)      X0^2 + X1 X2 + ... + X_{2d-1} X_{2d} = 0      e = 1
    H(2d,q)      X0^(r+1) + ... + X_{2d}^(r+1) = 0             e = 3/2
    Q-(2d+1,q)   X0 X1 + ... + g(X_{2d}, X_{2d+1}) = 0         e = 2

with g the first irreducible binary quadratic in the field's scan order.
Subspaces are reduced row-echelon matrices over GF(q), which makes the
representation canonical: equal subspaces have identical matrices.

Total isotropy is tested through the basis: the form vanishes on every
basis vector and all pairwise pairings vanish, where the pairing of a
quadratic form is its polarization b(u,v) = Q(u+v) - Q(u) - Q(v).  That
criterion is correct in every characteristic, including two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf import GF, field
from .linalg import gf_nullspace, gf_rref

FAMILIES = ("Q+", "Q", "Q-", "W", "H")

_PARAMETERS = {
    "Q+": Fraction(0),
    "W": Fraction(1),
    "Q": Fraction(1),
    "Q-": Fraction(2),
}


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class PolarSpaceDescriptor:
    """A polar space family at a given rank and field order.

    `dim` is the ambient projective dimension and `e` the parameter of
    the space (half-integral for the Hermitian families, where the field
    order must be a square).
    """

    family: str
    rank: int
    q: int
    dim: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GeometryError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise GeometryError("rank must be >= 1")
        d = self.rank
        expected = {"Q+": 2 * d - 1, "W": 2 * d - 1, "Q": 2 * d, "Q-": 2 * d + 1}
        if self.family == "H":
            if self.dim not in (2 * d - 1, 2 * d):
                raise GeometryError(
                    f"H with rank {d} needs ambient dimension {2*d-1} or {2*d}")
            gf = field(self.q)
            if not gf.has_conjugation:
                raise GeometryError(
                    f"Hermitian space needs a square field order, got q={self.q}")
        elif self.dim != expected[self.family]:
            raise GeometryError(
                f"{self.family} with rank {d} lives in PG({expected[self.family]},q), "
                f"got dim {self.dim}")
        field(self.q)  # validates q is a prime power

    @property
    def e(self) -> Fraction:
        if self.family == "H":
            return Fraction(1, 2) if self.dim % 2 == 1 else Fraction(3, 2)
        return _PARAMETERS[self.family]

    @property
    def nvars(self) -> int:
        return self.dim + 1

    def name(self) -> str:
        return f"{self.family}({self.dim},{self.q})"


def descriptor(family: str, rank: int, q: int, dim: int | None = None) -> PolarSpaceDescriptor:
    """Build a descriptor; `dim` is only needed to pick a Hermitian family."""
    if family not in FAMILIES:
        raise GeometryError(f"unknown family {family!r}")
    d = rank
    if dim is None:
        if family == "H":
            raise GeometryError("Hermitian spaces need an explicit ambient dimension")
        dim = {"Q+": 2 * d - 1, "W": 2 * d - 1, "Q": 2 * d, "Q-": 2 * d + 1}[family]
    return PolarSpaceDescriptor(family, rank, q, dim)


def descriptor_from_name(name: str) -> PolarSpaceDescriptor:
    """Parse names like 'Q+(5,2)', 'W(3,3)', 'H(4,4)'."""
    fam, rest = name.split("(", 1)
    dim_s, q_s = rest.rstrip(")").split(",")
    fam, dim, q = fam.strip(), int(dim_s), int(q_s)
    rank = {"Q+": (dim + 1) // 2, "W": (dim + 1) // 2, "Q": dim // 2, "Q-": (dim - 1) // 2,
            "H": (dim + 1) // 2}[fam]
    return PolarSpaceDescriptor(fam, rank, q, dim)


class Form:
    """The standard form of a descriptor, with its pairing.

    kind is 'quadratic', 'hermitian' or 'alternating'.  `matrix` is the
    upper-triangular Gram matrix for quadratic kinds and the full matrix
    of the (sesqui)bilinear form otherwise; `pairing` is the matrix of
    the associated bilinear pairing (the polarization, for quadratics).
    Hermitian pairings conjugate their second argument.
    """

    def __init__(self, desc: PolarSpaceDescriptor):
        self.desc = desc
        self.gf = field(desc.q)
        n = desc.nvars
        gf = self.gf
        M = [[0] * n for _ in range(n)]
        if desc.family == "Q+":
            self.kind = "quadratic"
            for i in range(0, n, 2):
                M[i][i + 1] = 1
        elif desc.family == "Q":
            self.kind = "quadratic"
            M[0][0] = 1
            for i in range(1, n, 2):
                M[i][i + 1] = 1
        elif desc.family == "Q-":
            self.kind = "quadratic"
            for i in range(0, n - 2, 2):
                M[i][i + 1] = 1
            b, c = gf.find_irreducible_quadratic()
            M[n - 2][n - 2] = 1
            M[n - 2][n - 1] = b
            M[n - 1][n - 1] = c
        elif desc.family == "H":
            self.kind = "hermitian"
            for i in range(n):
                M[i][i] = 1
        else:  # W
            self.kind = "alternating"
            d = desc.rank
            for i in range(d):
                M[i][d + i] = 1
                M[d + i][i] = gf.neg(1)
        self.matrix = tuple(tuple(r) for r in M)
        if self.kind == "quadratic":
            P = [[gf.add(M[i][j], M[j][i]) for j in range(n)] for i in range(n)]
            self.pairing_matrix = tuple(tuple(r) for r in P)
        else:
            self.pairing_matrix = self.matrix
        self.conjugate_second = self.kind == "hermitian"

    def evaluate(self, v) -> int:
        """Q(v) for quadratic kinds, f(v,v) for Hermitian, 0 for alternating."""
        if len(v) != self.desc.nvars:
            raise GeometryError(
                f"vector length {len(v)} does not match ambient {self.desc.nvars}")
        gf = self.gf
        if self.kind == "alternating":
            return 0
        if self.kind == "hermitian":
            return self.pair(v, v)
        acc = 0
        M = self.matrix
        for i, vi in enumerate(v):
            if vi:
                row = M[i]
                for j in range(i, len(v)):
                    if v[j] and row[j]:
                        acc = gf.add(acc, gf.mul(row[j], gf.mul(vi, v[j])))
        return acc

    def pair(self, u, v) -> int:
        gf = self.gf
        P = self.pairing_matrix
        if self.conjugate_second:
            v = [gf.conjugate(x) for x in v]
        acc = 0
        for i, ui in enumerate(u):
            if ui:
                row = P[i]
                for j, vj in enumerate(v):
                    if vj and row[j]:
                        acc = gf.add(acc, gf.mul(row[j], gf.mul(ui, vj)))
        return acc

    def is_isotropic_point(self, v) -> bool:
        if self.kind == "alternating":
            return True
        return self.evaluate(v) == 0


# -- subspaces ----------------------------------------------------------------

def is_totally_isotropic(rows, form: Form) -> bool:
    """All basis vectors isotropic and all pairwise pairings vanish."""
    for i, r in enumerate(rows):
        if not form.is_isotropic_point(r):
            return False
        for s in rows[i:]:
            if form.pair(r, s) != 0:
                return False
    return True


def perp(rows, form: Form):
    """The polar subspace {v : pairing(r, v) = 0 for all rows r}, in RREF.

    For a nondegenerate pairing dim perp = n - dim - 1 projectively and
    perp is an inclusion-reversing involution; the parabolic quadric in
    characteristic two has a radical (its nucleus), where only the
    defining property holds.
    """
    gf = form.gf
    n = form.desc.nvars
    if not rows:
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    P = form.pairing_matrix
    sys_rows = []
    for r in rows:
        c = [0] * n
        for j in range(n):
            acc = 0
            for i in range(n):
                if r[i] and P[i][j]:
                    acc = gf.add(acc, gf.mul(r[i], P[i][j]))
            c[j] = acc
        if form.conjugate_second:
            c = [gf.conjugate(x) for x in c]
        sys_rows.append(tuple(c))
    return gf_nullspace(sys_rows, n, gf)


def all_projective_points(gf: GF, dim: int):
    """All points of PG(dim, q) as normalized tuples, in canonical order.

    Normalization puts the first nonzero coordinate equal to one (the
    one-row RREF); the order is lexicographic on the coordinate tuples.
    """
    n = dim + 1
    pts = []
    for lead in range(n):
        tail = n - lead - 1
        for enc in range(gf.q ** tail):
            rest = []
            v = enc
            for _ in range(tail):
                rest.append(v % gf.q)
                v //= gf.q
            pts.append(tuple([0] * lead + [1] + rest))
    pts.sort()
    return pts


def all_hyperplanes(gf: GF, dim: int):
    """Hyperplanes of PG(dim,q) as normalized functional vectors a (ax = 0)."""
    return all_projective_points(gf, dim)


# -- point counts and hyperplane sections -------------------------------------

def section_point_count(form: Form, a, isotropic_points) -> int:
    gf = form.gf
    cnt = 0
    for p in isotropic_points:
        acc = 0
        for ai, pi in zip(a, p):
            if ai and pi:
                acc = gf.add(acc, gf.mul(ai, pi))
        if acc == 0:
            cnt += 1
    return cnt


def section_counts(desc: PolarSpaceDescriptor) -> dict[str, int]:
    """Expected isotropic point counts of each hyperplane section type."""
    from .counting import gaussian_binomial, num_points
    q, d = desc.q, desc.rank
    gb = gaussian_binomial
    if desc.family == "Q":
        return {
            "hyperbolic": (q ** (d - 1) + 1) * (q ** d - 1) // (q - 1),
            "elliptic": (q ** (d - 1) - 1) * (q ** d + 1) // (q - 1),
            "tangent": 1 + q * num_points(d - 1, Fraction(1), q),
        }
    if desc.family == "Q-":
        return {
            "parabolic": num_points(d, Fraction(1), q),
            "tangent": 1 + q * num_points(d - 1, Fraction(2), q),
        }
    if desc.family == "H" and desc.dim % 2 == 0:
        return {
            "hermitian": num_points(d, Fraction(1, 2), q),
            "tangent": 1 + q * (num_points(d - 1, Fraction(3, 2), q) if d >= 2
                                else 0),
        }
    raise GeometryError(f"no hyperplane section classification for {desc.name()}")


def classify_hyperplane_section(form: Form, a, isotropic_points) -> str:
    """Classify a hyperplane by the exact point count of its section.

    One uniform method across all characteristics: the counts of the
    possible section types are pairwise distinct, so the count decides.
    """
    desc = form.desc
    if not any(a):
        raise GeometryError("degenerate hyperplane functional")
    counts = section_counts(desc)
    got = section_point_count(form, a, isotropic_points)
    for label, expected in counts.items():
        if got == expected:
            return label
    raise GeometryError(
        f"section of {desc.name()} with {got} points matches no known type {counts}")
