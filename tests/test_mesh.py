import hashlib

import numpy as np
import pytest

from curladapt.mesh import (Mesh, bisect_refine, build_structured_unit_square,
                            edge_geometry, load_mesh, red_refine, save_mesh,
                            tag_regions)


def check_invariants(mesh):
    """Conformity, orientation, Euler characteristic and edge-sign
    consistency; used after every mesh operation."""
    assert (mesh.areas > 0).all()
    assert mesh.euler_characteristic() == 1
    counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.num_edges)
    assert set(np.unique(counts)) <= {1, 2}
    interior = ~mesh.is_boundary_edge
    s0 = mesh.tri_edge_signs[mesh.edge_tris[interior, 0], mesh.edge_tri_local[interior, 0]]
    s1 = mesh.tri_edge_signs[mesh.edge_tris[interior, 1], mesh.edge_tri_local[interior, 1]]
    assert (s0 + s1 == 0).all()
    norms = np.linalg.norm(mesh.edge_normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-14)
    tangents = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    assert np.abs((mesh.edge_normals * tangents).sum(1)).max() < 1e-12


def test_structured_counts_n4():
    mesh = build_structured_unit_square(4)
    assert mesh.num_triangles == 32
    assert mesh.num_vertices == 25
    assert mesh.num_edges == 56
    assert mesh.num_interior_edges == 40
    check_invariants(mesh)


def test_structured_counts_n1():
    mesh = build_structured_unit_square(1)
    assert (mesh.num_vertices, mesh.num_edges, mesh.num_triangles) == (4, 5, 2)
    assert mesh.euler_characteristic() == 1


def test_structured_rejects_zero():
    with pytest.raises(ValueError):
        build_structured_unit_square(0)


def test_structured_diagonal_direction():
    # each cell is split along the lower-left to upper-right diagonal
    mesh = build_structured_unit_square(2)
    diagonals = [tuple(mesh.vertices[v] for v in mesh.edges[e])
                 for e in range(mesh.num_edges)
                 if not np.isclose(mesh.edge_lengths[e], 0.5)]
    for a, b in diagonals:
        d = b - a
        assert d[0] * d[1] > 0  # slope +1, never -1


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 1]])  # repeated vertex
    with pytest.raises(ValueError):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])  # clockwise
    with pytest.raises(ValueError):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])  # id out of range


def test_constructor_rejects_bad_refinement_edges():
    v, t = [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    for bad in ([5, 0], [0, -1]):
        with pytest.raises(ValueError, match="refinement_edges"):
            Mesh(v, t, refinement_edges=bad)


def test_constructor_rejects_bad_parent_ids():
    v, t = [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(ValueError, match="parent_ids"):
        Mesh(v, t, parent_ids=[0, 0, 0, 0, 0])


def test_red_refine_counts_and_similarity():
    mesh = build_structured_unit_square(4)
    fine = red_refine(mesh)
    assert fine.num_triangles == 128
    check_invariants(fine)
    assert fine.diameters.max() == pytest.approx(np.sqrt(2) / 8, rel=0, abs=0)
    # every child has exactly half the parent diameter
    parent_diam = mesh.diameters[fine.parent_ids]
    assert np.array_equal(fine.diameters * 2, parent_diam)

    two = build_structured_unit_square(1)
    eight = red_refine(two)
    assert eight.num_triangles == 8
    assert np.array_equal(eight.diameters * 2, two.diameters[eight.parent_ids])


def test_red_refine_region_inheritance():
    mesh = build_structured_unit_square(4)
    mesh = tag_regions(mesh, lambda c: 1 if c[0] < 0.5 else 2)
    fine = red_refine(mesh)
    assert np.array_equal(fine.regions, mesh.regions[fine.parent_ids])
    assert (fine.regions == 1).sum() == 4 * (mesh.regions == 1).sum()


def test_bisect_empty_marking_is_identity():
    mesh = build_structured_unit_square(2)
    assert bisect_refine(mesh, set()) is mesh


def test_bisect_single_marked_on_two_triangle_square():
    mesh = build_structured_unit_square(1)
    fine = bisect_refine(mesh, {0})
    # both triangles share the diagonal refinement edge, so the closure
    # bisects both: four children
    assert fine.num_triangles in (3, 4)
    assert fine.num_triangles == 4
    check_invariants(fine)
    assert set(fine.parent_ids) == {0, 1}


def test_bisect_mark_all():
    mesh = build_structured_unit_square(2)
    fine = bisect_refine(mesh, set(range(mesh.num_triangles)))
    assert fine.num_triangles >= 2 * mesh.num_triangles
    check_invariants(fine)


def test_bisect_marked_elements_are_subdivided():
    mesh = build_structured_unit_square(4)
    marked = {0, 7, 21}
    fine = bisect_refine(mesh, marked)
    check_invariants(fine)
    for t in marked:
        assert (fine.parent_ids == t).sum() >= 2


def test_bisect_region_inheritance():
    mesh = tag_regions(build_structured_unit_square(4),
                       lambda c: 1 if c[0] < 0.5 else 2)
    fine = bisect_refine(mesh, {3, 11, 30})
    assert np.array_equal(fine.regions, mesh.regions[fine.parent_ids])


def test_bisect_rejects_bad_ids():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        bisect_refine(mesh, {99})


def test_bisect_chain_keeps_invariants():
    rng = np.random.default_rng(7)
    mesh = build_structured_unit_square(2)
    for _ in range(6):
        marked = set(rng.choice(mesh.num_triangles,
                                size=max(1, mesh.num_triangles // 4), replace=False))
        mesh = bisect_refine(mesh, marked)
        check_invariants(mesh)


def _mesh_digest(mesh):
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, mesh.refinement_edges,
                mesh.parent_ids, mesh.regions):
        h.update(arr.tobytes())
    return h.hexdigest()


def test_bisect_chain_is_frozen():
    # the seed-7 chain of test_bisect_chain_keeps_invariants, pinned bit for bit
    rng = np.random.default_rng(7)
    mesh = build_structured_unit_square(2)
    patterns = set()
    for _ in range(6):
        ids = rng.choice(mesh.num_triangles, size=max(1, mesh.num_triangles // 4),
                         replace=False)
        fine = bisect_refine(mesh, set(ids))
        for marked in (list(ids), np.asarray(ids, dtype=np.int64)):
            assert _mesh_digest(bisect_refine(mesh, marked)) == _mesh_digest(fine)
        # the children tile their parent
        tiled = np.bincount(fine.parent_ids, weights=fine.areas,
                            minlength=mesh.num_triangles)
        np.testing.assert_allclose(tiled, mesh.areas, rtol=1e-14, atol=0)
        # children of one parent are contiguous, in parent order
        assert (np.diff(fine.parent_ids) >= 0).all()
        for t in range(mesh.num_triangles):
            refs = tuple(fine.refinement_edges[fine.parent_ids == t])
            patterns.add("whole" if len(refs) == 1 else refs)
        mesh = fine
    assert patterns == {"whole", (0, 2), (0, 2, 2), (0, 0, 2), (0, 2, 0, 2)}
    assert mesh.num_triangles == 129
    assert _mesh_digest(mesh) == \
        "38f5460d2a7bee903efcba1ec567a74567e816cdfb4597a815dfff11669a1ae9"


def _bisect_reference(mesh, marked):
    """Per-triangle recursive newest-vertex bisection, the reference for
    the array emit of ``bisect_refine``."""
    tri_edges, ref = mesh.tri_edges, mesh.refinement_edges
    ref_edge_of = tri_edges[np.arange(mesh.num_triangles), ref]
    split = np.zeros(mesh.num_edges, dtype=bool)
    split[ref_edge_of[sorted(marked)]] = True
    while True:
        need = split[tri_edges].any(axis=1) & ~split[ref_edge_of]
        if not need.any():
            break
        split[ref_edge_of[need]] = True
    edge_id = {(int(a), int(b)): e for e, (a, b) in enumerate(mesh.edges)}
    mid = {int(e): mesh.num_vertices + k for k, e in enumerate(np.flatnonzero(split))}
    midpoints = [0.5 * (mesh.vertices[a] + mesh.vertices[b]) for a, b in mesh.edges[split]]
    out = []

    def emit(tri, r, parent):
        i, j = tri[r], tri[(r + 1) % 3]
        e = edge_id.get((min(i, j), max(i, j)))
        if e is None or not split[e]:
            out.append((tri, r, parent))
            return
        w0, w1, w2 = (tri[k] for k in ((2, 0, 1), (0, 1, 2), (1, 2, 0))[r])
        emit((w0, w1, mid[e]), 0, parent)
        emit((w0, mid[e], w2), 2, parent)

    for t in range(mesh.num_triangles):
        emit(tuple(int(v) for v in mesh.triangles[t]), int(ref[t]), t)
    tris, refs, parents = zip(*out)
    return Mesh(np.vstack([mesh.vertices] + midpoints), tris,
                regions=mesh.regions[list(parents)], refinement_edges=refs,
                parent_ids=parents)


@pytest.mark.parametrize("seed", range(8))
def test_bisect_matches_recursive_reference(seed):
    # tagged meshes with arbitrary refinement edges exercise every slot
    rng = np.random.default_rng(seed)
    mesh = tag_regions(build_structured_unit_square(3),
                       lambda c: 1 if c[0] + c[1] < 1 else 2)
    mesh = Mesh(mesh.vertices, mesh.triangles, regions=mesh.regions,
                refinement_edges=rng.integers(0, 3, mesh.num_triangles))
    for _ in range(4):
        marked = set(rng.choice(mesh.num_triangles,
                                size=max(1, mesh.num_triangles // 5), replace=False))
        fine = bisect_refine(mesh, marked)
        assert _mesh_digest(fine) == _mesh_digest(_bisect_reference(mesh, marked))
        mesh = fine


def test_edge_numbering_contract():
    # edges run low to high vertex id and are numbered in lexicographic
    # order of that pair, on a bisected two-region mesh
    mesh = tag_regions(build_structured_unit_square(4), lambda c: 1 if c[0] < 0.5 else 2)
    mesh = bisect_refine(mesh, {0, 5, 17, 30})
    mesh = bisect_refine(mesh, set(range(0, mesh.num_triangles, 3)))
    assert set(np.unique(mesh.regions)) == {1, 2}
    lo, hi = mesh.edges.T
    assert (lo < hi).all()
    assert ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all()

    pairs = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]]  # (T, 3, 2) local edges
    assert np.array_equal(np.sort(pairs, axis=-1), mesh.edges[mesh.tri_edges])

    edges, inverse = np.unique(np.sort(pairs.reshape(-1, 2), axis=1), axis=0,
                               return_inverse=True)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tri_edges, inverse.reshape(-1, 3))


def test_tag_regions():
    mesh = build_structured_unit_square(4)
    tagged = tag_regions(mesh, lambda c: 1)
    assert (tagged.regions == 1).all()
    split = tag_regions(mesh, lambda c: 1 if c[0] < 0.5 else 2)
    assert (split.regions == 1).sum() == 16
    assert (split.regions == 2).sum() == 16


def test_edge_geometry_lengths():
    mesh = build_structured_unit_square(4)
    lengths = sorted(set(np.round(mesh.edge_lengths, 12)))
    assert lengths == [0.25, pytest.approx(0.25 * np.sqrt(2))]
    axis_edge = int(np.nonzero(np.isclose(mesh.edge_lengths, 0.25))[0][0])
    h, n, t_plus, t_minus = edge_geometry(mesh, axis_edge)
    assert h == pytest.approx(0.25)


def test_edge_geometry_normal_convention():
    mesh = build_structured_unit_square(4)
    for edge_id in np.nonzero(~mesh.is_boundary_edge)[0][:10]:
        h, n, t_plus, t_minus = edge_geometry(mesh, int(edge_id))
        assert t_plus < t_minus
        direction = mesh.centroids[t_minus] - mesh.centroids[t_plus]
        assert n @ direction > 0  # points from T+ into T-
        tangent = mesh.vertices[mesh.edges[edge_id, 1]] - mesh.vertices[mesh.edges[edge_id, 0]]
        assert abs(n @ tangent) < 1e-14
        assert np.linalg.norm(n) == pytest.approx(1.0)


def test_edge_geometry_boundary():
    mesh = build_structured_unit_square(2)
    boundary = int(np.nonzero(mesh.is_boundary_edge)[0][0])
    h, n, t_plus, t_minus = edge_geometry(mesh, boundary)
    assert t_minus is None
    with pytest.raises(ValueError):
        edge_geometry(mesh, mesh.num_edges)


def test_refinement_edge_initialization_longest_edge():
    mesh = build_structured_unit_square(4)
    # all elements are right isosceles: the refinement edge is the diagonal
    ref_edge = mesh.tri_edges[np.arange(mesh.num_triangles), mesh.refinement_edges]
    assert np.allclose(mesh.edge_lengths[ref_edge], 0.25 * np.sqrt(2))


def test_mesh_views():
    mesh = build_structured_unit_square(2)
    tri = mesh.triangle(0)
    assert tri.id == 0 and len(tri.vertex_ids) == 3
    edge = mesh.edge(0)
    assert edge.id == 0 and len(edge.adjacent_triangles) in (1, 2)
    vert = mesh.vertex(3)
    assert vert.id == 3 and vert.x.shape == (2,)


def test_mesh_immutable():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_save_load_roundtrip(tmp_path):
    mesh = tag_regions(build_structured_unit_square(3),
                       lambda c: 1 if c[0] < 1 / 3 else 2)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    header = path.read_text().splitlines()[0].split()
    assert [int(t) for t in header] == [mesh.num_vertices, mesh.num_edges,
                                        mesh.num_triangles]
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert np.array_equal(loaded.regions, mesh.regions)


def test_load_rejects_inconsistent_header(tmp_path):
    mesh = build_structured_unit_square(2)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    lines[0] = f"{mesh.num_vertices} {mesh.num_edges + 3} {mesh.num_triangles}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_mesh(path)


@pytest.mark.parametrize("cut, message", [
    (lambda lines: lines[:-1] + [" ".join(lines[-1].split()[:3])],
     "line 18: expected 'v0 v1 v2 region'"),
    (lambda lines: lines[:-2], "line 17: expected 'v0 v1 v2 region', got ''"),
    (lambda lines: lines[:4], "line 5: expected 'x y', got ''"),
], ids=["triangle_without_region", "truncated_triangles", "truncated_vertices"])
def test_load_rejects_malformed_lines(tmp_path, cut, message):
    path = tmp_path / "mesh.txt"
    save_mesh(build_structured_unit_square(2), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 18  # header, 9 vertices, 8 triangles
    path.write_text("\n".join(cut(lines)) + "\n")
    with pytest.raises(ValueError, match=message):
        load_mesh(path)
