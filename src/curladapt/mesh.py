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
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# region tags for two-phase problems
OMEGA1 = 1
OMEGA2 = 2

# vertex-id triples of the local edges: edge k runs from vertex k to k+1
_LOCAL_EDGES = [(0, 1), (1, 2), (2, 0)]
# rotation that brings local refinement edge r into local position 1
_CANONICAL_ROT = np.array([(2, 0, 1), (0, 1, 2), (1, 2, 0)])


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


@dataclass(frozen=True)
class Vertex:
    id: int
    x: np.ndarray


@dataclass(frozen=True)
class Triangle:
    id: int
    vertex_ids: tuple
    region: int
    refinement_edge: int


@dataclass(frozen=True)
class Edge:
    id: int
    vertex_ids: tuple
    adjacent_triangles: tuple
    is_boundary: bool
    normal: np.ndarray


class Mesh:
    """Conforming triangle mesh with oriented edge topology.

    Parameters
    ----------
    vertices : array_like, shape (V, 2)
        Vertex coordinates.
    triangles : array_like, shape (T, 3)
        Vertex ids per triangle, counterclockwise.
    regions : array_like, shape (T,), optional
        Region tag per triangle; defaults to ``OMEGA1`` everywhere.
    refinement_edges : array_like, shape (T,), optional
        Local refinement-edge index (0..2) per triangle for
        newest-vertex bisection.  Defaults to the longest edge, ties
        broken by the smallest opposite-vertex id.
    parent_ids : array_like, shape (T,), optional
        Triangle id in the mesh this one was refined from; refinement
        operations fill this in, -1 marks root elements.
    """

    def __init__(self, vertices, triangles, regions=None, refinement_edges=None,
                 parent_ids=None):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (V, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
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
            regions = np.full(nt, OMEGA1, dtype=np.int64)
        self.regions = np.array(regions, dtype=np.int64)
        if self.regions.shape != (nt,):
            raise ValueError("regions must have one tag per triangle")

        if parent_ids is None:
            parent_ids = np.full(nt, -1, dtype=np.int64)
        self.parent_ids = np.array(parent_ids, dtype=np.int64)
        if self.parent_ids.shape != (nt,):
            raise ValueError("parent_ids must have one entry per triangle")

        area = _signed_areas(vertices[triangles])
        if (area <= 0).any():
            raise ValueError("triangles must be counterclockwise with positive area")
        self._areas = area

        self._build_edges()

        if refinement_edges is None:
            refinement_edges = self._longest_edge_init()
        self.refinement_edges = np.array(refinement_edges, dtype=np.int64)
        if self.refinement_edges.shape != (nt,):
            raise ValueError("refinement_edges must have one entry per triangle")
        if not np.isin(self.refinement_edges, (0, 1, 2)).all():
            raise ValueError("refinement_edges entries must be 0, 1 or 2")

        for arr in (self.vertices, self.triangles, self.regions, self.parent_ids,
                    self.refinement_edges, self._areas, self.edges, self.tri_edges,
                    self.tri_edge_signs, self.edge_tris, self.edge_tri_local,
                    self.is_boundary_edge, self.edge_lengths, self.edge_normals):
            arr.flags.writeable = False

    def _build_edges(self):
        tris = self.triangles
        nt = len(tris)
        pairs = np.stack([tris[:, [i, j]] for i, j in _LOCAL_EDGES], axis=1)  # (T,3,2)
        # the integer key lo * V + hi sorts like the pair (lo, hi)
        lo, hi = np.sort(pairs.reshape(-1, 2), axis=1).T
        nv = len(self.vertices)
        keys, inverse = np.unique(lo * nv + hi, return_inverse=True)
        edges = np.stack([keys // nv, keys % nv], axis=1)
        self.edges = edges
        self.tri_edges = inverse.reshape(nt, 3).astype(np.int64)
        # +1 where the local traversal k -> k+1 runs from low to high vertex id
        self.tri_edge_signs = np.where(pairs[:, :, 0] < pairs[:, :, 1], 1, -1).astype(np.int64)

        ne = len(edges)
        counts = np.bincount(self.tri_edges.ravel(), minlength=ne)
        if counts.max(initial=0) > 2:
            raise ValueError("non-manifold mesh: edge shared by more than two triangles")
        self.is_boundary_edge = counts == 1

        order = np.argsort(self.tri_edges.ravel(), kind="stable")
        tri_of = (order // 3).astype(np.int64)
        loc_of = (order % 3).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_tri_local = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_tris[:, 0] = tri_of[starts]
        self.edge_tri_local[:, 0] = loc_of[starts]
        interior = counts == 2
        self.edge_tris[interior, 1] = tri_of[starts[interior] + 1]
        self.edge_tri_local[interior, 1] = loc_of[starts[interior] + 1]

        # conformity: the two incident triangles traverse a shared edge in
        # opposite directions, i.e. their orientation signs cancel
        s0 = self.tri_edge_signs[self.edge_tris[interior, 0], self.edge_tri_local[interior, 0]]
        s1 = self.tri_edge_signs[self.edge_tris[interior, 1], self.edge_tri_local[interior, 1]]
        if ((s0 + s1) != 0).any():
            raise ValueError("non-conforming mesh: inconsistent edge traversal")

        tang = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        self.edge_lengths = np.linalg.norm(tang, axis=1)
        if (self.edge_lengths <= 0).any():
            raise ValueError("zero-length edge")
        # traversal direction within the first incident triangle; its outward
        # normal (clockwise quarter turn) points into the second triangle or
        # out of the domain on the boundary
        sgn = self.tri_edge_signs[self.edge_tris[:, 0], self.edge_tri_local[:, 0]]
        d = tang * sgn[:, None]
        self.edge_normals = -_rot90(d) / self.edge_lengths[:, None]

    def _longest_edge_init(self):
        lengths = self.edge_lengths[self.tri_edges]  # (T,3)
        longest = lengths.max(axis=1, keepdims=True)
        opposite = self.triangles[:, [2, 0, 1]]  # vertex opposite local edge k
        candidate = np.where(lengths == longest, opposite, np.iinfo(np.int64).max)
        return candidate.argmin(axis=1).astype(np.int64)

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
    def areas(self):
        return self._areas

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

    def vertex(self, vertex_id):
        return Vertex(int(vertex_id), self.vertices[vertex_id])

    def triangle(self, tri_id):
        return Triangle(int(tri_id), tuple(self.triangles[tri_id]),
                        int(self.regions[tri_id]), int(self.refinement_edges[tri_id]))

    def edge(self, edge_id):
        adj = tuple(int(t) for t in self.edge_tris[edge_id] if t >= 0)
        return Edge(int(edge_id), tuple(self.edges[edge_id]), adj,
                    bool(self.is_boundary_edge[edge_id]), self.edge_normals[edge_id])

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
    nv = mesh.num_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    tris = mesh.triangles
    m01 = nv + mesh.tri_edges[:, 0]
    m12 = nv + mesh.tri_edges[:, 1]
    m20 = nv + mesh.tri_edges[:, 2]
    children = np.stack([
        np.stack([tris[:, 0], m01, m20], axis=1),
        np.stack([tris[:, 1], m12, m01], axis=1),
        np.stack([tris[:, 2], m20, m12], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ], axis=1).reshape(-1, 3)
    regions = np.repeat(mesh.regions, 4)
    parents = np.repeat(np.arange(mesh.num_triangles, dtype=np.int64), 4)
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
    marked = np.unique(np.fromiter(marked, np.int64))
    if marked.size == 0:
        return mesh
    if marked[0] < 0 or marked[-1] >= mesh.num_triangles:
        raise ValueError("marked triangle id out of range")

    ref = mesh.refinement_edges
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

    vertices = np.vstack([mesh.vertices, mesh.vertices[mesh.edges[split]].mean(axis=1)])
    # vertex id of each split edge's midpoint
    mid = mesh.num_vertices - 1 + np.cumsum(split)

    w0, w1, w2 = np.take_along_axis(mesh.triangles, rot, axis=1).T
    m, a, b = mid[e_m], mid[e_a], mid[e_b]
    has_m, has_a, has_b = split[e_m], split[e_a], split[e_b]
    children = np.stack([
        np.where(has_a[:, None], np.column_stack([m, w0, a]), np.column_stack([w0, w1, m])),
        np.column_stack([m, a, w1]),
        np.where(has_b[:, None], np.column_stack([m, w2, b]), np.column_stack([w0, m, w2])),
        np.column_stack([m, b, w0]),
    ], axis=1)
    child_ref = np.where(has_b[:, None], [0, 2, 0, 2], [0, 2, 2, 2])
    children[~has_m, 0] = mesh.triangles[~has_m]
    child_ref[~has_m, 0] = ref[~has_m]

    keep = np.column_stack([np.ones_like(has_m), has_a, has_m, has_b])
    parents = np.nonzero(keep)[0]
    return Mesh(vertices, children[keep], regions=mesh.regions[parents],
                refinement_edges=child_ref[keep], parent_ids=parents)


def tag_regions(mesh, classifier):
    """Return a copy of the mesh re-tagged by applying ``classifier`` to
    each element centroid."""
    regions = np.array([classifier(c) for c in mesh.centroids], dtype=np.int64)
    return Mesh(mesh.vertices, mesh.triangles, regions=regions,
                refinement_edges=mesh.refinement_edges, parent_ids=mesh.parent_ids)


def edge_geometry(mesh, edge_id):
    """Length, unit normal and adjacent triangles (T+, T-) of an edge.

    T+ is the incident triangle with the smaller id; the normal points
    from T+ into T- (outward on boundary edges, where T- is None).
    """
    if edge_id < 0 or edge_id >= mesh.num_edges:
        raise ValueError("edge id out of range")
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
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("malformed mesh header, expected 'V E F'")
        nv, ne, nt = (int(tok) for tok in header)
        vertices = [_read_fields(fh, 2 + i, float, "x y") for i in range(nv)]
        rows = [_read_fields(fh, 2 + nv + i, int, "v0 v1 v2 region") for i in range(nt)]
    rows = np.array(rows, dtype=np.int64)
    mesh = Mesh(np.array(vertices), rows[:, :3], regions=rows[:, 3])
    if mesh.num_edges != ne:
        raise ValueError(f"edge count mismatch: header says {ne}, "
                         f"topology gives {mesh.num_edges}")
    return mesh


def _read_fields(fh, lineno, parse, layout):
    """The fields of the next line of a mesh file, which must match the
    space-separated ``layout``."""
    line = fh.readline()
    tok = line.split()
    if len(tok) != len(layout.split()):
        raise ValueError(f"line {lineno}: expected '{layout}', got {line.strip()!r}")
    return [parse(t) for t in tok]
