"""Grids, dimensions, and function declarations.

A Grid owns the space dimensions (x, y, z), their spacing symbols, and a
single time dimension with step symbol ``dt``. Function declarations carry
discretization metadata (space/time order, halo) plus, for sparse
functions, the point count and a companion coordinates table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .expr import Access, Expr, Symbol, add, mul, num

SPACE_NAMES = ("x", "y", "z")


class DeclarationError(ValueError):
    """Raised on inconsistent grid or function declarations."""


@dataclass(frozen=True)
class Dimension:
    """An iteration axis. ``kind`` is one of space, time, stepping,
    conditional, sparse, block. Stepping dims wrap a parent time dim with
    modulo indexing; conditional dims subsample a parent by an integer
    factor; block dims step over tiles of a parent space dim."""

    name: str
    kind: str
    parent: Optional["Dimension"] = None
    factor: int = 1
    modulo: int = 0

    def __post_init__(self):
        if self.kind not in ("space", "time", "stepping", "conditional",
                             "sparse", "block"):
            raise DeclarationError("bad dimension kind %r" % self.kind)
        if self.kind == "conditional" and self.factor < 1:
            raise DeclarationError("conditional factor must be >= 1")

    @property
    def symbol(self) -> Symbol:
        return Symbol(self.name)

    @property
    def root(self) -> "Dimension":
        """The loop dimension this one iterates through (self, or the
        parent time dim for stepping/conditional dims)."""
        if self.kind in ("stepping", "conditional") and self.parent is not None:
            return self.parent.root
        return self

    @property
    def is_time(self) -> bool:
        return self.kind in ("time", "stepping", "conditional") or \
            (self.parent is not None and self.parent.is_time)

    def __repr__(self):
        return self.name


class Grid:
    """A structured grid over 1, 2 or 3 space dimensions."""

    def __init__(self, shape: Sequence[int], extent: Sequence[float] = None,
                 origin: Sequence[float] = None):
        shape = tuple(int(s) for s in shape)
        if not 1 <= len(shape) <= 3:
            raise DeclarationError("grid must have 1-3 dimensions")
        if any(s < 2 for s in shape):
            raise DeclarationError("grid shape entries must be >= 2")
        self.shape = shape
        self.extent = tuple(float(e) for e in extent) if extent is not None \
            else tuple(float(s - 1) for s in shape)
        if len(self.extent) != len(shape):
            raise DeclarationError("extent rank mismatch")
        self.origin = tuple(float(o) for o in origin) if origin is not None \
            else (0.0,) * len(shape)
        if len(self.origin) != len(shape):
            raise DeclarationError("origin rank mismatch")

        self.dimensions = tuple(Dimension(SPACE_NAMES[i], "space")
                                for i in range(len(shape)))
        self.time_dim = Dimension("t", "time")
        self.step_symbol = Symbol("dt")
        self.spacing_symbols = tuple(Symbol("h_" + d.name) for d in self.dimensions)
        self.origin_symbols = tuple(Symbol("o_" + d.name) for d in self.dimensions)
        self.spacing_values = {
            s.name: self.extent[i] / (shape[i] - 1)
            for i, s in enumerate(self.spacing_symbols)
        }
        if any(v <= 0 for v in self.spacing_values.values()):
            raise DeclarationError("grid spacing must be positive")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def spacing_of(self, dim: Dimension) -> Symbol:
        for d, s in zip(self.dimensions, self.spacing_symbols):
            if d == dim:
                return s
        raise DeclarationError("dimension %r not on grid" % dim.name)

    def origin_of(self, dim: Dimension) -> Symbol:
        for d, s in zip(self.dimensions, self.origin_symbols):
            if d == dim:
                return s
        raise DeclarationError("dimension %r not on grid" % dim.name)

    def symbol_values(self) -> dict:
        """Runtime bindings for spacing, origin and step symbols (dt must be
        supplied by the caller; it has no default)."""
        values = dict(self.spacing_values)
        for i, s in enumerate(self.origin_symbols):
            values[s.name] = self.origin[i]
        return values


class FunctionDecl:
    """A declared discrete function. Hashed by identity: every Access keeps
    a reference to its originating declaration."""

    KINDS = ("function", "timefunction", "sparsetimefunction", "coordinates",
             "temp")

    def __init__(self, name: str, kind: str, grid: Grid, space_order: int = 2,
                 time_order: int = 2, save: Optional[int] = None,
                 npoint: int = 0, coordinates=None,
                 time_dim: Optional[Dimension] = None,
                 dims: Optional[tuple] = None):
        if kind not in self.KINDS:
            raise DeclarationError("bad function kind %r" % kind)
        if kind in ("function", "timefunction"):
            if space_order < 2 or space_order % 2 != 0:
                raise DeclarationError(
                    "space_order must be even and >= 2, got %d" % space_order)
        self.name = name
        self.kind = kind
        self.grid = grid
        self.space_order = space_order
        self.time_order = time_order
        self.save = save
        self.npoint = npoint
        self.halo = space_order // 2 if kind in ("function", "timefunction") else 0
        self._dims = tuple(dims) if dims is not None else None
        if kind == "temp" and self._dims is None:
            raise DeclarationError("temp function needs explicit dims")
        #: Temporaries only: the points a producer computes past the
        #: consumer's upper bound, and the extent of each block-local
        #: dimension (both by dimension name); whether the value changes
        #: every timestep.
        self.span: Dict[str, int] = {}
        self.block_shape: Dict[str, int] = {}
        self.time_varying = False

        if kind == "timefunction":
            if time_dim is not None:
                self.time_dim = time_dim
                if time_dim.kind == "conditional" and save is None:
                    raise DeclarationError(
                        "conditional time dimension requires save=")
            elif save is None:
                # Shares the parent's symbol: the loop variable is always t,
                # the modulo wrap is storage metadata.
                self.time_dim = Dimension(grid.time_dim.name, "stepping",
                                          parent=grid.time_dim,
                                          modulo=time_order + 1)
            else:
                self.time_dim = grid.time_dim
        elif kind == "sparsetimefunction":
            self.time_dim = grid.time_dim
        else:
            self.time_dim = None

        if kind == "sparsetimefunction":
            if npoint < 1:
                raise DeclarationError("sparse function needs npoint >= 1")
            self.point_dim = Dimension("p_" + name, "sparse")
            self.coordinates = FunctionDecl(name + "_coords", "coordinates",
                                            grid, npoint=npoint)
            self.coordinates.point_dim = self.point_dim
            self.coordinate_values = None
            if coordinates is not None:
                self.set_coordinates(coordinates)
        else:
            self.point_dim = None
            self.coordinates = None
            self.coordinate_values = None

    def set_coordinates(self, coordinates):
        coords = [tuple(float(c) for c in pt) for pt in coordinates]
        if len(coords) != self.npoint:
            raise DeclarationError("expected %d coordinate rows" % self.npoint)
        for pt in coords:
            if len(pt) != self.grid.ndim:
                raise DeclarationError("coordinate rank mismatch")
            for c, o, e in zip(pt, self.grid.origin, self.grid.extent):
                if not (o <= c <= o + e):
                    raise DeclarationError(
                        "coordinate %r outside grid extent" % (pt,))
        self.coordinate_values = coords

    # -- Storage layout ------------------------------------------------------

    @property
    def dims(self) -> tuple:
        """Storage dimensions in index order."""
        if self.kind == "temp":
            return self._dims
        if self.kind == "function":
            return self.grid.dimensions
        if self.kind == "timefunction":
            return (self.time_dim,) + self.grid.dimensions
        if self.kind == "sparsetimefunction":
            return (self.time_dim, self.point_dim)
        if self.kind == "coordinates":
            return (self.point_dim, Dimension("d_" + self.name, "space"))
        raise DeclarationError("no storage dims for %r" % self.kind)

    @property
    def is_modulo_time(self) -> bool:
        return self.kind == "timefunction" and self.time_dim.kind == "stepping"

    def temp_extents(self) -> Tuple[Tuple[Optional[str], int], ...]:
        """A temporary's extent per dimension, as ``(bound, k)``: the runtime
        upper bound ``bound`` plus ``k``, or just ``k`` when ``bound`` is
        None (a block-local dimension)."""
        out = []
        for d in self.dims:
            k = self.span.get(d.name, 0)
            if d.name in self.block_shape:
                out.append((None, self.block_shape[d.name] + k))
            else:
                out.append((d.name + "_M", k + 1))
        return tuple(out)

    def storage_extents(self, nt: Optional[int] = None) -> tuple:
        """Allocated extent per storage dimension. ``nt`` bounds the time
        axis of sparse functions (number of timesteps)."""
        space = tuple(s + 2 * self.halo for s in self.grid.shape)
        if self.kind == "function":
            return space
        if self.kind == "timefunction":
            if self.is_modulo_time:
                return (self.time_order + 1,) + space
            return (self.save,) + space
        if self.kind == "sparsetimefunction":
            if nt is None:
                raise DeclarationError("sparse function needs a timestep count")
            return (nt, self.npoint)
        if self.kind == "coordinates":
            return (self.npoint, self.grid.ndim)
        raise DeclarationError("no storage for %r" % self.kind)

    # -- Symbolic access -----------------------------------------------------

    def default_indices(self) -> tuple:
        """The natural (dimension-symbol) indices of this function."""
        if self.kind == "function":
            return tuple(d.symbol for d in self.grid.dimensions)
        if self.kind == "timefunction":
            return (self.time_dim.symbol,) + tuple(
                d.symbol for d in self.grid.dimensions)
        if self.kind == "sparsetimefunction":
            return (self.grid.time_dim.symbol, self.point_dim.symbol)
        raise DeclarationError("no default indices for %r" % self.kind)

    def __call__(self, *indices) -> Access:
        expected = len(self.dims)
        if len(indices) != expected:
            raise DeclarationError(
                "%s expects %d indices, got %d" % (self.name, expected,
                                                   len(indices)))
        from .expr import _coerce
        return Access(self, tuple(_coerce(i) for i in indices))

    @property
    def at(self) -> Access:
        return Access(self, self.default_indices())

    @property
    def forward(self) -> Access:
        """Access shifted one step forward in time: u(t + dt, ...)."""
        return self._time_shifted(1)

    @property
    def backward(self) -> Access:
        return self._time_shifted(-1)

    def _time_shifted(self, k: int) -> Access:
        if self.kind != "timefunction":
            raise DeclarationError("%s has no time axis" % self.name)
        idx = list(self.default_indices())
        idx[0] = add(idx[0], mul(num(k), self.grid.step_symbol))
        return Access(self, tuple(idx))

    def __repr__(self):
        return "<%s %s>" % (self.kind, self.name)


@dataclass(frozen=True)
class Equation:
    """A user-level equation assigning ``rhs`` to the ``lhs`` access."""

    lhs: Access
    rhs: Expr
    region: str = "domain"
    is_increment: bool = False

    def __post_init__(self):
        if self.region not in ("domain", "interior"):
            raise DeclarationError("bad region %r" % self.region)
        if not isinstance(self.lhs, Access):
            raise DeclarationError("equation lhs must be a function access")


def Eq(lhs, rhs, region: str = "domain", is_increment: bool = False) -> Equation:
    if isinstance(lhs, FunctionDecl):
        lhs = lhs.at
    from .expr import _coerce
    return Equation(lhs, _coerce(rhs), region=region, is_increment=is_increment)
