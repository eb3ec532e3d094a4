"""Conforming triangular meshes on polygonal domains.

The mesh is stored in flat numpy arrays: vertex coordinates, triangle
vertex triples (counterclockwise), a region tag per triangle and a local
refinement-edge index per triangle used by newest-vertex bisection.
Edge topology (global edge list, per-triangle edge incidence with
orientation signs, edge/triangle adjacency, boundary flags, normals) is
derived once at construction time.

Global edges are oriented from the lower vertex id to the higher one and
numbered lexicographically by their vertex pair, so identical input data
always produces identical edge numbering.  For an interior edge the two
incident triangles are ordered by triangle id; the stored unit normal
points from the first (smaller id) into the second.

Meshes are immutable after construction: every refinement or re-tagging
operation returns a new ``Mesh``.

Each index array is stored in the narrowest fixed dtype that holds it:
vertex, edge and triangle ids, region tags and parent ids are int32;
orientation signs, local edge slots and refinement edges are int8.  So
a mesh holds fewer than 2**31 vertices and fewer than 2**31 / 3
triangles (its 3 T local edge slots are int32 too); the constructor
refuses a larger one, and any tag outside the int32 range, rather than
let a cast wrap it.  Only the edge sort keys of the constructor are
int64.
"""

from functools import cached_property

import numpy as np

# region tags for two-phase problems
OMEGA1 = 1
OMEGA2 = 2

# vertex-id triples of the local edges: edge k runs from vertex k to k+1
_LOCAL_EDGES = [(0, 1), (1, 2), (2, 0)]
# rotation that brings local refinement edge r into local position 1
_CANONICAL_ROT = np.array([(2, 0, 1), (0, 1, 2), (1, 2, 0)], dtype=np.int8)
# the four red children of a triangle, as columns of its corners (0-2)
# followed by the midpoints of its local edges (3-5)
_RED_CHILDREN = np.array([(0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5)])

# rows per block of the per-point kernels and of the triangles and edges of
# the sparse builders (``_blocks``); any size gives the same bytes, as
# every reduction is row-local and every builder keeps its triplets in row
# order (see ``edge_fem``)
_BLOCK = 2048


def _blocks(n):
    """Slices of at most ``_BLOCK`` consecutive rows that cover ``range(n)``,
    in order."""
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


def _integers(values, what, dtype=np.int32):
    """``values`` as a new array of ``dtype``, refused unless their dtype
    is an integer one (bool is not), as the cast would truncate 1.9 to 1
    and read True as 1, and unless every value lies in the range of
    ``dtype``, where the cast would wrap it."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        if values.ndim == 0:
            raise ValueError(f"{what} must be an integer, got {values.item()!r}")
        raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
    bounds = np.iinfo(dtype)
    low, high = (values.min(), values.max()) if values.size else (0, 0)
    if low < bounds.min or high > bounds.max:
        raise ValueError(f"{what} must lie in the {np.dtype(dtype)} range [{bounds.min}, "
                         f"{bounds.max}], got {low if low < bounds.min else high}")
    return values.astype(dtype)


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _rot90(a):
    """Counterclockwise quarter turn of 2-vectors."""
    return np.stack([-a[..., 1], a[..., 0]], axis=-1)


def _signed_areas(coords):
    """Signed areas of triangles with vertex coordinates (N, 3, 2)."""
    return 0.5 * _cross2(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])


def _gradients(coords, areas):
    """Barycentric gradients (N, 3, 2) of triangles with vertex coordinates
    (N, 3, 2) and areas (N,): grad(lam_i) is the counterclockwise quarter
    turn of the opposite edge from vertex i+1 to i+2, over twice the area."""
    opposite = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
    return _rot90(opposite) / (2.0 * areas)[:, None, None]


class Mesh:
    """Conforming triangle mesh with oriented edge topology.

    Parameters
    ----------
    vertices : array_like, shape (V, 2)
        Vertex coordinates.
    triangles : array_like, shape (T, 3)
        Vertex ids per triangle, counterclockwise.
    regions : array_like, shape (T,), optional
        Integer region tag per triangle; defaults to ``OMEGA1`` everywhere.
    refinement_edges : array_like, shape (T,), optional
        Local refinement-edge index (0..2) per triangle for
        newest-vertex bisection.  Defaults to the longest edge, ties
        broken by the smallest opposite-vertex id.
    parent_ids : array_like, shape (T,), optional
        Triangle id in the mesh this one was refined from; refinement
        operations fill this in, -1 marks root elements.

    Every array attribute is read-only.  ``vertices`` and the geometry
    are float64; ``triangles``, ``regions``, ``parent_ids``, ``edges``,
    ``tri_edges`` and ``edge_tris`` are int32; ``refinement_edges``,
    ``tri_edge_signs`` and ``edge_tri_local`` are int8, so V < 2**31 and
    3 T < 2**31 (module docstring).
    """

    def __init__(self, vertices, triangles, regions=None, refinement_edges=None,
                 parent_ids=None):
        vertices = np.array(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (V, 2)")
        triangles = np.asarray(triangles)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
        # vertex ids and the 3 T local edge slots are int32
        if len(vertices) >= 2 ** 31 or 3 * len(triangles) >= 2 ** 31:
            raise ValueError(f"a mesh holds fewer than 2**31 vertices and 2**31 / 3 "
                             f"triangles, got {len(vertices)} and {len(triangles)}")
        triangles = _integers(triangles, "triangle vertex ids")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle vertex id out of range")
        if ((triangles[:, 0] == triangles[:, 1]) | (triangles[:, 1] == triangles[:, 2])
                | (triangles[:, 0] == triangles[:, 2])).any():
            raise ValueError("triangle with repeated vertex ids")

        self.vertices = vertices
        self.triangles = triangles
        nt = len(triangles)

        if regions is None:
            regions = np.full(nt, OMEGA1, dtype=np.int32)
        self.regions = _integers(regions, "region tags")
        if self.regions.shape != (nt,):
            raise ValueError("regions must have one tag per triangle")

        if parent_ids is None:
            parent_ids = np.full(nt, -1, dtype=np.int32)
        self.parent_ids = _integers(parent_ids, "parent_ids")
        if self.parent_ids.shape != (nt,):
            raise ValueError("parent_ids must have one entry per triangle")

        area = _signed_areas(vertices[triangles])
        if (area <= 0).any():
            raise ValueError("triangles must be counterclockwise with positive area")
        self.areas = area

        self._build_edges()

        if refinement_edges is None:
            refinement_edges = self._longest_edge_init()
        self.refinement_edges = _integers(refinement_edges, "refinement_edges", np.int8)
        if self.refinement_edges.shape != (nt,):
            raise ValueError("refinement_edges must have one entry per triangle")
        if not np.isin(self.refinement_edges, (0, 1, 2)).all():
            raise ValueError("refinement_edges entries must be 0, 1 or 2")

        for arr in (self.vertices, self.triangles, self.regions, self.parent_ids,
                    self.refinement_edges, self.areas, self.edges, self.tri_edges,
                    self.tri_edge_signs, self.edge_tris, self.edge_tri_local,
                    self.is_boundary_edge, self.edge_lengths, self.edge_normals):
            arr.flags.writeable = False

    def _build_edges(self):
        # temporaries are deleted after their last use, so that none is
        # alive when the edge geometry is formed
        tris = self.triangles
        nt, nv = len(tris), len(self.vertices)
        head = tris[:, [1, 2, 0]]  # local edge k runs from tris[:, k] to head[:, k]
        # +1 where the local traversal k -> k+1 runs from low to high vertex id
        self.tri_edge_signs = np.where(tris < head, np.int8(1), np.int8(-1))
        # slot 3 t + k is local edge k of triangle t; its int64 key
        # lo * V + hi sorts like the vertex pair (lo, hi), so one sort of
        # the slot keys numbers the edges and groups the slots of each
        keys = np.minimum(tris, head).astype(np.int64).ravel()
        keys *= nv
        keys += np.maximum(tris, head).ravel()
        del head
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)  # the first slot of each edge
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(keys))
        if counts.max(initial=0) > 2:
            raise ValueError("non-manifold mesh: edge shared by more than two triangles")
        self.edges = np.empty((len(starts), 2), dtype=np.int32)
        self.edges[:, 0], self.edges[:, 1] = np.divmod(keys[starts], nv)
        del keys
        tri_edges = np.empty(3 * nt, dtype=np.int32)
        tri_edges[order] = np.cumsum(first, dtype=np.int32) - 1
        del first
        self.tri_edges = tri_edges.reshape(nt, 3)
        self.is_boundary_edge = counts == 1

        # the smaller slot of an interior edge belongs to the triangle with
        # the smaller id; slot1 is -1 on the boundary
        interior = counts == 2
        slot, next_slot = order[starts], order[np.minimum(starts + 1, len(order) - 1)]
        del order, starts, counts
        slot0 = np.where(interior, np.minimum(slot, next_slot), slot)
        slot1 = np.where(interior, np.maximum(slot, next_slot), -1)
        del slot, next_slot
        self.edge_tris = np.empty((len(slot0), 2), dtype=np.int32)
        self.edge_tri_local = np.empty((len(slot0), 2), dtype=np.int8)
        for side, s in enumerate((slot0, slot1)):
            self.edge_tris[:, side], self.edge_tri_local[:, side] = np.divmod(s, 3)
        self.edge_tri_local[~interior, 1] = -1  # -1 // 3 is -1, but -1 % 3 is 2

        # conformity: the two incident triangles traverse a shared edge in
        # opposite directions, i.e. their orientation signs cancel
        signs = self.tri_edge_signs.ravel()
        sign0 = signs[slot0]
        if (interior & (sign0 + signs[slot1] != 0)).any():
            raise ValueError("non-conforming mesh: inconsistent edge traversal")
        del slot0, slot1, interior

        lo, hi = self.edges.T
        tang = self.vertices[hi] - self.vertices[lo]
        # the same bits as np.linalg.norm(tang, axis=1), without its
        # generic reduction: 8x faster on 200k edges
        self.edge_lengths = np.sqrt(tang[:, 0] * tang[:, 0] + tang[:, 1] * tang[:, 1])
        if (self.edge_lengths <= 0).any():
            raise ValueError("zero-length edge")
        # traversal direction within the first incident triangle; its outward
        # normal (clockwise quarter turn) points into the second triangle or
        # out of the domain on the boundary
        tang *= sign0[:, None]
        self.edge_normals = -_rot90(tang) / self.edge_lengths[:, None]

    def _longest_edge_init(self):
        lengths = self.edge_lengths[self.tri_edges]  # (T,3)
        longest = lengths.max(axis=1, keepdims=True)
        opposite = self.triangles[:, [2, 0, 1]]  # vertex opposite local edge k
        # no vertex id reaches the fill V, and it fits the int32 of the ids
        candidate = np.where(lengths == longest, opposite, self.num_vertices)
        return candidate.argmin(axis=1).astype(np.int8)

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_interior_edges(self):
        return int((~self.is_boundary_edge).sum())

    def euler_characteristic(self):
        """V - E + F; equals 1 for a simply connected planar mesh."""
        return self.num_vertices - self.num_edges + self.num_triangles

    @cached_property
    def centroids(self):
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def diameters(self):
        """Element diameter = longest edge length."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    @cached_property
    def barycentric_gradients(self):
        """Gradients of the three barycentric coordinates, shape (T, 3, 2)."""
        g = _gradients(self.vertices[self.triangles], self.areas)
        g.flags.writeable = False
        return g

    def __repr__(self):
        return (f"Mesh({self.num_vertices} vertices, {self.num_edges} edges, "
                f"{self.num_triangles} triangles)")


def build_structured_unit_square(n):
    """n-by-n structured triangulation of the unit square.

    Each grid cell is split along the diagonal from its lower-left to its
    upper-right corner, giving 2*n**2 counterclockwise triangles.  All
    elements are tagged ``OMEGA1``.
    """
    if n < 1:
        raise ValueError("subdivision count must be at least 1")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)  # row j = constant y
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    a = j * (n + 1) + i  # lower-left corner of cell (i, j)
    b, c, d = a + 1, a + n + 2, a + n + 1
    return Mesh(vertices, np.column_stack([a, b, c, a, c, d]).reshape(-1, 3))


def red_refine(mesh):
    """Uniform refinement: split every triangle into four congruent children.

    Edge midpoints become new vertices (numbered after the existing ones,
    in global edge order); children inherit the parent's region tag and
    are similar to the parent with half its diameter.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    del midpoints
    corners = np.concatenate([mesh.triangles, nv + mesh.tri_edges], axis=1)
    children = np.empty((4 * nt, 3), dtype=np.int32)
    for k, child in enumerate(_RED_CHILDREN):
        children[k::4] = corners[:, child]  # child k of every parent
    del corners
    regions = np.repeat(mesh.regions, 4)
    parents = np.repeat(np.arange(nt, dtype=np.int32), 4)
    return Mesh(vertices, children, regions=regions, parent_ids=parents)


def bisect_refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles with conforming closure.

    The closure marks the refinement edge of every triangle that has a
    split edge; each pass that goes on splits a new edge, so it ends
    within ``num_edges`` passes.  With a triangle rotated to
    ``(w0, w1, w2)``, refinement edge ``(w1, w2)``, and ``m``, ``a``, ``b``
    the midpoints of ``(w1, w2)``, ``(w0, w1)``, ``(w2, w0)``, only input
    edges can be split, so its children fill at most four slots (vertex
    triple, then refinement-edge index)::

        slot 0: a split ? (m, w0, a) 0 : (w0, w1, m) 0
        slot 1: a split ? (m, a, w1) 2 : -
        slot 2: b split ? (m, w2, b) 0 : (w0, m, w2) 2
        slot 3: b split ? (m, b, w0) 2 : -

    A triangle with an unsplit refinement edge is kept as it is.  Children
    follow parent order, then slot order; midpoints are numbered after the
    existing vertices, in edge order.
    """
    marked = np.array(list(marked))
    if marked.size == 0:
        return mesh
    marked = np.unique(_integers(marked, "marked triangle ids"))
    if marked[0] < 0 or marked[-1] >= mesh.num_triangles:
        raise ValueError("marked triangle id out of range")
    vertices, children, child_ref, parents = _bisect(mesh, marked)
    regions = mesh.regions[parents]
    return Mesh(vertices, children, regions=regions, refinement_edges=child_ref,
                parent_ids=parents)


def _bisect(mesh, marked):
    """The vertices, children, child refinement edges and parent ids of
    :func:`bisect_refine`.  Each child is written once, into arrays of
    the stored dtypes sized by the children each parent keeps; every
    temporary dies with this call, before the child mesh is built."""
    tris, ref = mesh.triangles, mesh.refinement_edges
    rot = _CANONICAL_ROT[ref]
    # local edges (w0, w1), (w1, w2), (w2, w0) of the rotated triangles
    e_a, e_m, e_b = np.take_along_axis(mesh.tri_edges, rot, axis=1).T

    split = np.zeros(mesh.num_edges, dtype=bool)
    split[e_m[marked]] = True
    while True:
        need = split[mesh.tri_edges].any(axis=1) & ~split[e_m]
        if not need.any():
            break
        split[e_m[need]] = True

    tail, head = mesh.vertices[mesh.edges[split].T]
    vertices = np.vstack([mesh.vertices, (tail + head) / 2])
    # vertex id of each split edge's midpoint
    mid = np.cumsum(split, dtype=np.int32)
    mid += mesh.num_vertices - 1

    w0, w1, w2 = np.take_along_axis(tris, rot, axis=1).T
    m, a, b = mid[e_m], mid[e_a], mid[e_b]
    has_m, has_a, has_b = split[e_m], split[e_a], split[e_b]
    # slot 0 always, slots 1, 2 and 3 where a, m and b are split
    count = 1 + has_a.astype(np.int8) + has_m + has_b
    parents = np.repeat(np.arange(len(tris), dtype=np.int32), count)
    children = np.empty((len(parents), 3), dtype=np.int32)
    child_ref = np.empty(len(parents), dtype=np.int8)
    at0 = np.cumsum(count) - count  # row of each parent's first child
    at2 = at0 + 1 + has_a  # row of slot 2; slots 1 and 3 follow slots 0 and 2
    whole = ~has_m
    children[at0[whole]] = tris[whole]
    child_ref[at0[whole]] = ref[whole]
    for at, where, triple, r in ((at0, has_m & ~has_a, (w0, w1, m), 0),
                                 (at0, has_a, (m, w0, a), 0),
                                 (at0 + 1, has_a, (m, a, w1), 2),
                                 (at2, has_m & ~has_b, (w0, m, w2), 2),
                                 (at2, has_b, (m, w2, b), 0),
                                 (at2 + 1, has_b, (m, b, w0), 2)):
        rows = at[where]
        for k, vertex in enumerate(triple):
            children[rows, k] = vertex[where]
        child_ref[rows] = r
    return vertices, children, child_ref, parents


def tag_regions(mesh, classifier):
    """Return a copy of the mesh re-tagged by one call of ``classifier``,
    which maps the element centroids (T, 2) to integer region tags (T,)."""
    return Mesh(mesh.vertices, mesh.triangles, regions=classifier(mesh.centroids),
                refinement_edges=mesh.refinement_edges, parent_ids=mesh.parent_ids)


def _check_id(index, count, what):
    """Refuse an element or edge id that is not an integer in [0, count):
    numpy would wrap a negative one around to the end."""
    _integers(index, f"{what} id")
    if not 0 <= index < count:
        raise ValueError(f"{what} id {index} out of range [0, {count})")


def edge_geometry(mesh, edge_id):
    """Length, unit normal and adjacent triangles (T+, T-) of an edge.

    T+ is the incident triangle with the smaller id; the normal points
    from T+ into T- (outward on boundary edges, where T- is None).
    """
    _check_id(edge_id, mesh.num_edges, "edge")
    t_plus = int(mesh.edge_tris[edge_id, 0])
    t_minus = int(mesh.edge_tris[edge_id, 1])
    return (float(mesh.edge_lengths[edge_id]), mesh.edge_normals[edge_id],
            t_plus, None if t_minus < 0 else t_minus)


def save_mesh(mesh, path):
    """Write the mesh as plain text: a ``V E F`` header, one coordinate
    pair per vertex line, then one ``v0 v1 v2 region`` line per triangle."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (a, b, c), r in zip(mesh.triangles, mesh.regions):
            fh.write(f"{a} {b} {c} {r}\n")


def load_mesh(path):
    """Read a mesh written by :func:`save_mesh`; the edge count in the
    header is checked against the rebuilt topology."""
    with open(path) as fh:
        nv, ne, nt = _parse_fields(fh.readline(), 1, "V E F", (int,) * 3)
        if min(nv, ne, nt) < 1:
            raise ValueError(f"line 1: counts must be positive, got {nv} {ne} {nt}")
        vertices = [_parse_fields(fh.readline(), 2 + i, "x y", (float,) * 2)
                    for i in range(nv)]
        rows = [_parse_fields(fh.readline(), 2 + nv + i, "v0 v1 v2 region", (int,) * 4)
                for i in range(nt)]
        for lineno, line in enumerate(fh, 2 + nv + nt):
            if line.strip():
                raise ValueError(f"line {lineno}: text after the last triangle")
    rows = np.array(rows, dtype=np.int64)
    mesh = Mesh(np.array(vertices), rows[:, :3], regions=rows[:, 3])
    if mesh.num_edges != ne:
        raise ValueError(f"edge count mismatch: header says {ne}, "
                         f"topology gives {mesh.num_edges}")
    return mesh


def _parse_fields(line, lineno, layout, parsers, sep=None):
    """The fields of one line of a text file, split at ``sep`` (default:
    whitespace) and parsed one each by ``parsers``; a wrong field count or
    an unparsable field raises a ValueError that names the line and the
    expected ``layout``."""
    tok = line.split(sep)
    try:
        if len(tok) == len(parsers):
            return [parse(t) for parse, t in zip(parsers, tok)]
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: expected '{layout}', got {line.strip()!r}")
