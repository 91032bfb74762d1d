// Mesh construction and connectivity invariants (2D and 3D structured grids).
#include <gtest/gtest.h>

#include <map>

#include "mesh/mesh.hpp"

using finch::mesh::Face;
using finch::mesh::Mesh;
using finch::mesh::Vec3;

TEST(MeshQuad, CountsAndGeometry) {
  Mesh m = Mesh::structured_quad(4, 3, 4.0, 3.0);
  EXPECT_EQ(m.dimension(), 2);
  EXPECT_EQ(m.num_cells(), 12);
  // faces: vertical (nx+1)*ny + horizontal nx*(ny+1)
  EXPECT_EQ(m.num_faces(), 5 * 3 + 4 * 4);
  for (int32_t c = 0; c < m.num_cells(); ++c) {
    EXPECT_DOUBLE_EQ(m.cell_volume(c), 1.0);
    EXPECT_EQ(m.cell_faces(c).size(), 4);
  }
}

TEST(MeshQuad, EveryCellHasFourFacesWithUnitNormals) {
  Mesh m = Mesh::structured_quad(5, 5, 1.0, 1.0);
  for (int32_t c = 0; c < m.num_cells(); ++c) {
    Vec3 sum{};
    for (int32_t f : m.cell_faces(c)) {
      Vec3 n = m.outward_normal(f, c);
      EXPECT_NEAR(n.norm(), 1.0, 1e-14);
      sum += n * m.face(f).area;
    }
    // Closed surface: sum of outward area vectors vanishes.
    EXPECT_NEAR(sum.norm(), 0.0, 1e-12);
  }
}

TEST(MeshQuad, BoundaryRegionTags) {
  Mesh m = Mesh::structured_quad(3, 2, 3.0, 2.0);
  std::map<int, int> region_count;
  for (int32_t f = 0; f < m.num_faces(); ++f) {
    const Face& fc = m.face(f);
    if (fc.is_boundary()) ++region_count[fc.boundary_region];
  }
  EXPECT_EQ(region_count[1], 3);  // ymin: nx faces
  EXPECT_EQ(region_count[2], 3);  // ymax
  EXPECT_EQ(region_count[3], 2);  // xmin: ny faces
  EXPECT_EQ(region_count[4], 2);  // xmax
}

TEST(MeshQuad, InteriorFaceOwnersAndNeighborsConsistent) {
  Mesh m = Mesh::structured_quad(4, 4, 1.0, 1.0);
  for (int32_t f = 0; f < m.num_faces(); ++f) {
    const Face& fc = m.face(f);
    if (fc.is_boundary()) {
      EXPECT_EQ(fc.boundary_region > 0, true);
      continue;
    }
    EXPECT_EQ(m.across(f, fc.owner), fc.neighbor);
    EXPECT_EQ(m.across(f, fc.neighbor), fc.owner);
    // Normal points from owner to neighbor.
    Vec3 d = m.cell_centroid(fc.neighbor) - m.cell_centroid(fc.owner);
    EXPECT_GT(d.dot(fc.normal), 0.0);
  }
}

TEST(MeshQuad, BoundaryCells) {
  Mesh m = Mesh::structured_quad(4, 4, 1.0, 1.0);
  auto bc = m.boundary_cells();
  EXPECT_EQ(bc.size(), 12u);  // 16 cells, 4 interior
}

TEST(MeshQuad, CellGraphDegrees) {
  Mesh m = Mesh::structured_quad(3, 3, 1.0, 1.0);
  auto g = m.cell_graph();
  // corner cells: 2 neighbors, edge: 3, center: 4
  int deg_sum = 0;
  for (int32_t c = 0; c < m.num_cells(); ++c) deg_sum += g.offset[static_cast<size_t>(c) + 1] - g.offset[static_cast<size_t>(c)];
  EXPECT_EQ(deg_sum, 2 * 12);  // 12 interior faces, each contributes 2
  EXPECT_EQ(g.offset[5] - g.offset[4], 4);  // center cell id 4
}

TEST(MeshHex, CountsAndClosure) {
  Mesh m = Mesh::structured_hex(3, 2, 2, 3.0, 2.0, 2.0);
  EXPECT_EQ(m.dimension(), 3);
  EXPECT_EQ(m.num_cells(), 12);
  for (int32_t c = 0; c < m.num_cells(); ++c) {
    EXPECT_EQ(m.cell_faces(c).size(), 6);
    EXPECT_DOUBLE_EQ(m.cell_volume(c), 1.0);
    Vec3 sum{};
    for (int32_t f : m.cell_faces(c)) sum += m.outward_normal(f, c) * m.face(f).area;
    EXPECT_NEAR(sum.norm(), 0.0, 1e-12);
  }
}

TEST(MeshHex, RegionTagsCoverSixSides) {
  Mesh m = Mesh::structured_hex(2, 2, 2, 1.0, 1.0, 1.0);
  std::map<int, int> regions;
  for (int32_t f = 0; f < m.num_faces(); ++f)
    if (m.face(f).is_boundary()) ++regions[m.face(f).boundary_region];
  EXPECT_EQ(regions.size(), 6u);
  for (const auto& [r, n] : regions) {
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 6);
    EXPECT_EQ(n, 4);
  }
}

TEST(MeshErrors, RejectsBadArguments) {
  EXPECT_THROW(Mesh::structured_quad(0, 3, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Mesh::structured_quad(3, 3, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Mesh::structured_hex(1, 1, 0, 1, 1, 1), std::invalid_argument);
}

// Paper-scale sanity: the 120x120 hot-spot mesh of §III.A.
TEST(MeshQuad, PaperHotSpotMesh) {
  Mesh m = Mesh::structured_quad(120, 120, 525e-6, 525e-6);
  EXPECT_EQ(m.num_cells(), 14400);
  const double h = 525e-6 / 120;
  EXPECT_NEAR(m.cell_volume(0), h * h, 1e-18);
}
