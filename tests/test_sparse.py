import pytest

from stencilc.symbolic import (Eq, FunctionDecl, Grid, evaluate, inject,
                               interpolate, num)
from stencilc.symbolic.grid import DeclarationError


def _setup_1d(coord):
    g = Grid((11,), extent=(10.0,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    q = FunctionDecl("q", "sparsetimefunction", g, npoint=1,
                     coordinates=[(coord,)])
    return g, u, q


def _eval_weights(eqs, q, env_extra=None):
    """Numerically evaluate each injection equation's weight factor by
    injecting expr=1 and reading the scale on the sparse value."""
    weights = []
    coord = q.coordinate_values[0][0]
    env = {"h_x": 1.0, "o_x": 0.0, "t": 0.0, "p_q": 0.0, "dt": 1.0}
    if env_extra:
        env.update(env_extra)

    def handler(acc):
        if acc.func.kind == "coordinates":
            return coord
        return 1.0

    for eq in eqs:
        weights.append(evaluate(eq.rhs, env, on_access=handler))
    return weights


def test_inject_on_grid_point():
    g, u, q = _setup_1d(4.0)
    eqs = inject(q, u.forward, num(1))
    assert len(eqs) == 2
    assert all(eq.is_increment for eq in eqs)
    assert _eval_weights(eqs, q) == pytest.approx([1.0, 0.0])


def test_inject_at_midpoint():
    g, u, q = _setup_1d(4.5)
    eqs = inject(q, u.forward, num(1))
    assert _eval_weights(eqs, q) == pytest.approx([0.5, 0.5])


def _nodes(e):
    from stencilc.symbolic.expr import children_of
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children_of(node))


def test_inject_structure_has_floor_terms():
    from stencilc.symbolic.expr import Call
    g, u, q = _setup_1d(4.5)
    eqs = inject(q, u.forward, num(1))
    # Each corner equation indexes u by a floor expression over the
    # coordinates table, matching the FLOAT/INT floor structure.
    for eq in eqs:
        floor_calls = [n for n in _nodes(eq.lhs.indices[1])
                       if isinstance(n, Call) and n.name == "floor"]
        assert floor_calls


def test_inject_rejects_out_of_extent_coordinates():
    g = Grid((11,), extent=(10.0,))
    with pytest.raises(DeclarationError):
        FunctionDecl("q", "sparsetimefunction", g, npoint=1,
                     coordinates=[(11.5,)])


def test_interpolate_constant_field_partition_of_unity():
    g = Grid((11, 11), extent=(10.0, 10.0))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    rec = FunctionDecl("rec", "sparsetimefunction", g, npoint=1,
                       coordinates=[(3.3, 7.1)])
    eqs = interpolate(rec, u.at)
    assert len(eqs) == 1
    env = {"h_x": 1.0, "h_y": 1.0, "o_x": 0.0, "o_y": 0.0, "t": 0.0,
           "p_rec": 0.0}

    def handler(acc):
        if acc.func.kind == "coordinates":
            d = int(float(acc.indices[1].value))
            return rec.coordinate_values[0][d]
        return 3.0  # constant field

    assert evaluate(eqs[0].rhs, env, on_access=handler) == pytest.approx(3.0)


def test_interpolate_at_grid_node_returns_node_value():
    g = Grid((11,), extent=(10.0,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    rec = FunctionDecl("rec", "sparsetimefunction", g, npoint=1,
                       coordinates=[(6.0,)])
    eqs = interpolate(rec, u.at)
    env = {"h_x": 1.0, "o_x": 0.0, "t": 0.0, "p_rec": 0.0}

    def handler(acc):
        if acc.func.kind == "coordinates":
            return 6.0
        # Value is the (numeric) space index itself: corner 6 -> 6.0
        return evaluate(acc.indices[1], env, on_access=lambda c: 6.0)

    assert evaluate(eqs[0].rhs, env, on_access=handler) == pytest.approx(6.0)


def test_interpolate_cell_center_average_of_corners():
    """2D sample at a cell center equals the average of the 4 corners,
    frozen from direct bilinear evaluation."""
    g = Grid((11, 11), extent=(10.0, 10.0))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    rec = FunctionDecl("rec", "sparsetimefunction", g, npoint=1,
                       coordinates=[(2.5, 5.5)])
    eqs = interpolate(rec, u.at)
    env = {"h_x": 1.0, "h_y": 1.0, "o_x": 0.0, "o_y": 0.0, "t": 0.0,
           "p_rec": 0.0}
    corner_vals = {(2, 5): 1.0, (3, 5): 2.0, (2, 6): 4.0, (3, 6): 9.0}

    def handler(acc):
        if acc.func.kind == "coordinates":
            d = int(float(acc.indices[1].value))
            return rec.coordinate_values[0][d]
        i = round(evaluate(acc.indices[1], env,
                           on_access=lambda c: rec.coordinate_values[0][0]))
        j = round(evaluate(acc.indices[2], env,
                           on_access=lambda c: rec.coordinate_values[0][1]))
        return corner_vals[(i, j)]

    # Direct bilinear formula at the center: plain average
    expected = sum(corner_vals.values()) / 4.0
    assert evaluate(eqs[0].rhs, env, on_access=handler) == pytest.approx(expected)
