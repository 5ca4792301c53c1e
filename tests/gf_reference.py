"""GF(q) reduction against reduced echelon rows: the tests' independent
route to span membership, which the library itself no longer needs."""


def gf_reduce(v, rows, pivots, gf):
    """Reduce the vector v against RREF rows; the residual is returned."""
    v = list(v)
    for row, c in zip(rows, pivots):
        if v[c]:
            f = v[c]
            v = [gf.sub(x, gf.mul(f, y)) for x, y in zip(v, row)]
    return v


def gf_in_span(v, rows, pivots, gf) -> bool:
    return not any(gf_reduce(v, rows, pivots, gf))
