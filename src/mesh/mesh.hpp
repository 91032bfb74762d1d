#pragma once
// Finite-volume mesh representation.
//
// Face-based connectivity: every interior face has an owner and a neighbor
// cell; the stored normal points out of the owner. Boundary faces have
// neighbor == kNoCell and carry a boundary-region id, mirroring how the DSL's
// `boundary(I, region, FLUX, ...)` attaches conditions to regions.
//
// Builders cover the paper's meshes: uniform structured quadrilateral grids
// in 2D (the 120x120 hot-spot domain, the elongated Fig-10 domain) and
// structured hexahedral grids for the "very coarse-grained 3-D runs".

#include <cstdint>
#include <vector>

#include "geometry.hpp"

namespace finch::mesh {

inline constexpr int32_t kNoCell = -1;

struct Face {
  int32_t owner = kNoCell;
  int32_t neighbor = kNoCell;   // kNoCell for boundary faces
  Vec3 normal;                  // unit, outward from owner
  Vec3 centroid;
  double area = 0.0;            // length in 2D
  int32_t boundary_region = 0;  // 0 = interior, >0 = region id
  bool is_boundary() const { return neighbor == kNoCell; }
};

class Mesh {
 public:
  int dimension() const { return dim_; }
  int32_t num_cells() const { return static_cast<int32_t>(cell_volume_.size()); }
  int32_t num_faces() const { return static_cast<int32_t>(faces_.size()); }

  double cell_volume(int32_t c) const { return cell_volume_[c]; }
  const Vec3& cell_centroid(int32_t c) const { return cell_centroid_[c]; }
  const Face& face(int32_t f) const { return faces_[f]; }

  // Faces of a cell (CSR adjacency).
  struct FaceRange {
    const int32_t* begin_;
    const int32_t* end_;
    const int32_t* begin() const { return begin_; }
    const int32_t* end() const { return end_; }
    int32_t size() const { return static_cast<int32_t>(end_ - begin_); }
  };
  FaceRange cell_faces(int32_t c) const {
    return {cell_face_ids_.data() + cell_face_offset_[c], cell_face_ids_.data() + cell_face_offset_[c + 1]};
  }

  // Neighbor of `cell` across face `f`; kNoCell if f is a boundary face.
  int32_t across(int32_t f, int32_t cell) const {
    const Face& fc = faces_[f];
    return fc.owner == cell ? fc.neighbor : fc.owner;
  }

  // Outward (from `cell`) unit normal of face f.
  Vec3 outward_normal(int32_t f, int32_t cell) const {
    const Face& fc = faces_[f];
    return fc.owner == cell ? fc.normal : fc.normal * -1.0;
  }

  // Cells adjacent to at least one boundary face.
  std::vector<int32_t> boundary_cells() const;

  // Cell adjacency graph (interior faces only), CSR.
  struct Graph {
    std::vector<int32_t> offset;
    std::vector<int32_t> adjacency;
  };
  Graph cell_graph() const;

  // ---- construction --------------------------------------------------------
  // Region ids for structured builders: 1=y-min, 2=y-max, 3=x-min, 4=x-max
  // (and 5=z-min, 6=z-max in 3D), chosen so the paper's Fig-1 setup reads as
  // region 1 = cold wall (bottom), region 2 = hot wall (top), 3/4 = symmetry.
  static Mesh structured_quad(int nx, int ny, double lx, double ly);
  static Mesh structured_hex(int nx, int ny, int nz, double lx, double ly, double lz);
  // 1-D interval mesh: region 1 = x-min end, region 2 = x-max end.
  static Mesh structured_line(int n, double length);

 private:
  friend class MeshBuilder;
  int dim_ = 2;
  std::vector<double> cell_volume_;
  std::vector<Vec3> cell_centroid_;
  std::vector<Face> faces_;
  std::vector<int32_t> cell_face_offset_;  // size num_cells+1
  std::vector<int32_t> cell_face_ids_;
};

}  // namespace finch::mesh
