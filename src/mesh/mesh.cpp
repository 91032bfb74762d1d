#include "mesh.hpp"

#include <stdexcept>

namespace finch::mesh {

std::vector<int32_t> Mesh::boundary_cells() const {
  std::vector<char> flag(static_cast<size_t>(num_cells()), 0);
  for (const Face& f : faces_)
    if (f.is_boundary()) flag[static_cast<size_t>(f.owner)] = 1;
  std::vector<int32_t> out;
  for (int32_t c = 0; c < num_cells(); ++c)
    if (flag[static_cast<size_t>(c)]) out.push_back(c);
  return out;
}

Mesh::Graph Mesh::cell_graph() const {
  Graph g;
  const int32_t n = num_cells();
  std::vector<int32_t> degree(static_cast<size_t>(n), 0);
  for (const Face& f : faces_) {
    if (f.is_boundary()) continue;
    ++degree[static_cast<size_t>(f.owner)];
    ++degree[static_cast<size_t>(f.neighbor)];
  }
  g.offset.resize(static_cast<size_t>(n) + 1, 0);
  for (int32_t c = 0; c < n; ++c) g.offset[static_cast<size_t>(c) + 1] = g.offset[static_cast<size_t>(c)] + degree[static_cast<size_t>(c)];
  g.adjacency.resize(static_cast<size_t>(g.offset.back()));
  std::vector<int32_t> cursor(g.offset.begin(), g.offset.end() - 1);
  for (const Face& f : faces_) {
    if (f.is_boundary()) continue;
    g.adjacency[static_cast<size_t>(cursor[static_cast<size_t>(f.owner)]++)] = f.neighbor;
    g.adjacency[static_cast<size_t>(cursor[static_cast<size_t>(f.neighbor)]++)] = f.owner;
  }
  return g;
}

namespace {

void build_cell_face_csr(Mesh& m, std::vector<double>& volumes, std::vector<Vec3>& centroids,
                         std::vector<Face>& faces, std::vector<int32_t>& offset, std::vector<int32_t>& ids);

}  // namespace

Mesh Mesh::structured_quad(int nx, int ny, double lx, double ly) {
  if (nx < 1 || ny < 1 || lx <= 0 || ly <= 0) throw std::invalid_argument("structured_quad: bad arguments");
  Mesh m;
  m.dim_ = 2;
  const double hx = lx / nx, hy = ly / ny;
  const int32_t ncell = static_cast<int32_t>(nx) * ny;
  m.cell_volume_.assign(static_cast<size_t>(ncell), hx * hy);
  m.cell_centroid_.resize(static_cast<size_t>(ncell));
  auto cid = [nx](int i, int j) { return static_cast<int32_t>(j) * nx + i; };
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      m.cell_centroid_[static_cast<size_t>(cid(i, j))] = Vec3{(i + 0.5) * hx, (j + 0.5) * hy};

  // Vertical faces (normal +x): one per (i in 0..nx, j in 0..ny-1).
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i <= nx; ++i) {
      Face f;
      f.area = hy;
      f.centroid = Vec3{i * hx, (j + 0.5) * hy};
      if (i == 0) {
        f.owner = cid(0, j);
        f.normal = Vec3{-1, 0};
        f.boundary_region = 3;  // xmin
      } else if (i == nx) {
        f.owner = cid(nx - 1, j);
        f.normal = Vec3{1, 0};
        f.boundary_region = 4;  // xmax
      } else {
        f.owner = cid(i - 1, j);
        f.neighbor = cid(i, j);
        f.normal = Vec3{1, 0};
      }
      m.faces_.push_back(f);
    }
  }
  // Horizontal faces (normal +y).
  for (int j = 0; j <= ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      Face f;
      f.area = hx;
      f.centroid = Vec3{(i + 0.5) * hx, j * hy};
      if (j == 0) {
        f.owner = cid(i, 0);
        f.normal = Vec3{0, -1};
        f.boundary_region = 1;  // ymin
      } else if (j == ny) {
        f.owner = cid(i, ny - 1);
        f.normal = Vec3{0, 1};
        f.boundary_region = 2;  // ymax
      } else {
        f.owner = cid(i, j - 1);
        f.neighbor = cid(i, j);
        f.normal = Vec3{0, 1};
      }
      m.faces_.push_back(f);
    }
  }
  build_cell_face_csr(m, m.cell_volume_, m.cell_centroid_, m.faces_, m.cell_face_offset_, m.cell_face_ids_);
  return m;
}

Mesh Mesh::structured_hex(int nx, int ny, int nz, double lx, double ly, double lz) {
  if (nx < 1 || ny < 1 || nz < 1 || lx <= 0 || ly <= 0 || lz <= 0)
    throw std::invalid_argument("structured_hex: bad arguments");
  Mesh m;
  m.dim_ = 3;
  const double hx = lx / nx, hy = ly / ny, hz = lz / nz;
  const int32_t ncell = static_cast<int32_t>(nx) * ny * nz;
  m.cell_volume_.assign(static_cast<size_t>(ncell), hx * hy * hz);
  m.cell_centroid_.resize(static_cast<size_t>(ncell));
  auto cid = [nx, ny](int i, int j, int k) { return (static_cast<int32_t>(k) * ny + j) * nx + i; };
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        m.cell_centroid_[static_cast<size_t>(cid(i, j, k))] =
            Vec3{(i + 0.5) * hx, (j + 0.5) * hy, (k + 0.5) * hz};

  auto add_face = [&](Face f) { m.faces_.push_back(f); };
  // x-faces
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i <= nx; ++i) {
        Face f;
        f.area = hy * hz;
        f.centroid = Vec3{i * hx, (j + 0.5) * hy, (k + 0.5) * hz};
        if (i == 0) {
          f.owner = cid(0, j, k);
          f.normal = Vec3{-1, 0, 0};
          f.boundary_region = 3;
        } else if (i == nx) {
          f.owner = cid(nx - 1, j, k);
          f.normal = Vec3{1, 0, 0};
          f.boundary_region = 4;
        } else {
          f.owner = cid(i - 1, j, k);
          f.neighbor = cid(i, j, k);
          f.normal = Vec3{1, 0, 0};
        }
        add_face(f);
      }
  // y-faces
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j <= ny; ++j)
      for (int i = 0; i < nx; ++i) {
        Face f;
        f.area = hx * hz;
        f.centroid = Vec3{(i + 0.5) * hx, j * hy, (k + 0.5) * hz};
        if (j == 0) {
          f.owner = cid(i, 0, k);
          f.normal = Vec3{0, -1, 0};
          f.boundary_region = 1;
        } else if (j == ny) {
          f.owner = cid(i, ny - 1, k);
          f.normal = Vec3{0, 1, 0};
          f.boundary_region = 2;
        } else {
          f.owner = cid(i, j - 1, k);
          f.neighbor = cid(i, j, k);
          f.normal = Vec3{0, 1, 0};
        }
        add_face(f);
      }
  // z-faces
  for (int k = 0; k <= nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        Face f;
        f.area = hx * hy;
        f.centroid = Vec3{(i + 0.5) * hx, (j + 0.5) * hy, k * hz};
        if (k == 0) {
          f.owner = cid(i, j, 0);
          f.normal = Vec3{0, 0, -1};
          f.boundary_region = 5;
        } else if (k == nz) {
          f.owner = cid(i, j, nz - 1);
          f.normal = Vec3{0, 0, 1};
          f.boundary_region = 6;
        } else {
          f.owner = cid(i, j, k - 1);
          f.neighbor = cid(i, j, k);
          f.normal = Vec3{0, 0, 1};
        }
        add_face(f);
      }
  build_cell_face_csr(m, m.cell_volume_, m.cell_centroid_, m.faces_, m.cell_face_offset_, m.cell_face_ids_);
  return m;
}

Mesh Mesh::structured_line(int n, double length) {
  if (n < 1 || length <= 0) throw std::invalid_argument("structured_line: bad arguments");
  Mesh m;
  m.dim_ = 1;
  const double h = length / n;
  m.cell_volume_.assign(static_cast<size_t>(n), h);
  m.cell_centroid_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) m.cell_centroid_[static_cast<size_t>(i)] = Vec3{(i + 0.5) * h, 0.0};
  for (int i = 0; i <= n; ++i) {
    Face f;
    f.area = 1.0;  // unit cross-section
    f.centroid = Vec3{i * h, 0.0};
    if (i == 0) {
      f.owner = 0;
      f.normal = Vec3{-1, 0};
      f.boundary_region = 1;
    } else if (i == n) {
      f.owner = n - 1;
      f.normal = Vec3{1, 0};
      f.boundary_region = 2;
    } else {
      f.owner = i - 1;
      f.neighbor = i;
      f.normal = Vec3{1, 0};
    }
    m.faces_.push_back(f);
  }
  build_cell_face_csr(m, m.cell_volume_, m.cell_centroid_, m.faces_, m.cell_face_offset_, m.cell_face_ids_);
  return m;
}

namespace {

void build_cell_face_csr(Mesh& m, std::vector<double>& volumes, std::vector<Vec3>& centroids,
                         std::vector<Face>& faces, std::vector<int32_t>& offset, std::vector<int32_t>& ids) {
  (void)centroids;
  const int32_t n = static_cast<int32_t>(volumes.size());
  std::vector<int32_t> degree(static_cast<size_t>(n), 0);
  for (const Face& f : faces) {
    ++degree[static_cast<size_t>(f.owner)];
    if (!f.is_boundary()) ++degree[static_cast<size_t>(f.neighbor)];
  }
  offset.assign(static_cast<size_t>(n) + 1, 0);
  for (int32_t c = 0; c < n; ++c) offset[static_cast<size_t>(c) + 1] = offset[static_cast<size_t>(c)] + degree[static_cast<size_t>(c)];
  ids.resize(static_cast<size_t>(offset.back()));
  std::vector<int32_t> cursor(offset.begin(), offset.end() - 1);
  for (int32_t fi = 0; fi < static_cast<int32_t>(faces.size()); ++fi) {
    const Face& f = faces[static_cast<size_t>(fi)];
    ids[static_cast<size_t>(cursor[static_cast<size_t>(f.owner)]++)] = fi;
    if (!f.is_boundary()) ids[static_cast<size_t>(cursor[static_cast<size_t>(f.neighbor)]++)] = fi;
  }
  (void)m;
}

}  // namespace

}  // namespace finch::mesh
