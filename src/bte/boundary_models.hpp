#pragma once
// Wall fluxes for the BTE: per-face flux functions and the boundary-condition
// callback builders over them.
//
// The paper's demonstrations use isothermal and symmetry (specular) walls;
// real device studies also need diffuse (thermalizing-reflective) walls where
// incoming phonons are re-emitted isotropically with the energy of the
// outgoing flux. All three are provided here as the CPU callbacks the DSL's
// boundary(...) hook expects; BteProblem's built-in walls call the same
// per-face functions.

#include <memory>

#include "bte_problem.hpp"
#include "fvm/boundary.hpp"

namespace finch::bte {

// ---- per-face wall fluxes ---------------------------------------------------
//
// Each returns the physical outward flux integrand f = vg (s.n) I_face with
// the face value upwinded: outgoing directions take the cell value, incoming
// take the ghost (wall-equilibrium or reflected) value — Eq. (6). They are
// inline so a callback that calls one compiles to one flat body.

// Isothermal face at T_wall: incoming directions carry I0(band, T_wall).
inline double isothermal_flux(const BtePhysics& phys, const fvm::BoundaryContext& ctx,
                              double T_wall) {
  const mesh::Vec3& s = phys.directions.s[static_cast<size_t>(ctx.dir)];
  const double sdotn = s.dot(ctx.normal);
  const double vg = phys.bands[ctx.band].vg;
  if (sdotn > 0) return vg * sdotn * ctx.fields->get("I").at(ctx.cell, ctx.dof);
  return vg * sdotn * phys.table.I0(ctx.band, T_wall);
}

// The cell's intensity in the direction that mirrors ctx.dir about the face.
inline double reflected_intensity(const BtePhysics& phys, const fvm::BoundaryContext& ctx,
                                  const fvm::CellField& I) {
  const int r = phys.directions.reflect(ctx.dir, ctx.normal);
  return I.at(ctx.cell, r + phys.num_dirs() * ctx.band);
}

// Symmetry (specular) face: incoming directions mirror the outgoing ones.
inline double symmetric_flux(const BtePhysics& phys, const fvm::BoundaryContext& ctx) {
  const mesh::Vec3& s = phys.directions.s[static_cast<size_t>(ctx.dir)];
  const double sdotn = s.dot(ctx.normal);
  const double vg = phys.bands[ctx.band].vg;
  const auto& I = ctx.fields->get("I");
  if (sdotn > 0) return vg * sdotn * I.at(ctx.cell, ctx.dof);
  return vg * sdotn * reflected_intensity(phys, ctx, I);
}

// ---- callback builders -------------------------------------------------------

// Isothermal wall at fixed temperature: incoming directions carry the wall's
// equilibrium intensity (Eq. 6, first case).
fvm::BoundaryCallback make_isothermal_wall(std::shared_ptr<const BtePhysics> physics, double T_wall);

// Specular (symmetry) wall: incoming directions mirror the outgoing ones
// (Eq. 6, second case). Requires a direction set closed under reflection.
fvm::BoundaryCallback make_specular_wall(std::shared_ptr<const BtePhysics> physics);

// Diffuse wall with specularity p in [0,1]: fraction p reflects specularly,
// fraction (1-p) is re-emitted isotropically so that the net wall flux in
// each band vanishes (adiabatic diffuse wall). p = 1 reduces to specular.
fvm::BoundaryCallback make_diffuse_wall(std::shared_ptr<const BtePhysics> physics, double specularity);

}  // namespace finch::bte
