/// \file boundary_condition.hpp
/// \brief Ghost-cell handling beyond the physical boundary (paper §3.1).
///
/// After a halo exchange, ghost nodes that map to the *other side* of a
/// periodic axis hold the owner's coordinates and must be shifted by the
/// domain extent so stencils see a continuous surface. At free (non-
/// periodic) boundaries no neighbor exists; position and vorticity are
/// linearly extrapolated into the ghost band, matching the paper's
/// description ("extrapolates position and vorticity into boundary
/// cells").
///
/// Each fixup is one loop body (core/exec.hpp). With a queue it runs as
/// kernels over the field's device mirror, enqueued after the halo unpack
/// kernels and before the next stencil kernel; without one it runs over
/// the host storage.
#pragma once

#include "core/exec.hpp"
#include "core/surface_mesh.hpp"

namespace beatnik {

class BoundaryCondition {
public:
    explicit BoundaryCondition(const SurfaceMesh& mesh) : mesh_(&mesh) {}

    /// Fix up the position field's ghosts (call after every halo
    /// exchange of positions), on the mirror of \p q or on the host when
    /// \p q is null.
    void apply_position(par::device::Queue* q, grid::NodeField<double, 3>& z) const {
        with_exec(q, [&](auto ex) {
            if (mesh_->periodic()) {
                correct_periodic_positions(ex, ex.view(z));
            } else {
                extrapolate(ex, ex.view(z));
            }
        });
    }

    /// Fix up a non-position field's ghosts (vorticity, velocity,
    /// Bernoulli scalar): periodic ghosts are already correct copies; free
    /// boundaries extrapolate.
    template <int C>
    void apply_value(par::device::Queue* q, grid::NodeField<double, C>& f) const {
        if (mesh_->periodic()) return;
        with_exec(q, [&](auto ex) { extrapolate(ex, ex.view(f)); });
    }

private:
    /// Add +-L offsets to ghost copies that wrapped around an axis. The
    /// surface is periodic as z(i + N, j) = z(i, j) + (Lx, 0, 0) and
    /// z(i, j + M) = z(i, j) + (0, Ly, 0).
    template <class Exec, class View>
    void correct_periodic_positions(Exec ex, View v) const {
        const auto& local = mesh_->local();
        const auto& global = mesh_->global();
        const int w = local.halo_width();
        const int gi0 = local.global_offset(0);
        const int gj0 = local.global_offset(1);
        const int n0 = global.num_nodes(0);
        const int n1 = global.num_nodes(1);
        const double lx = global.extent(0);
        const double ly = global.extent(1);
        namespace dc = par::device::devcheck;
        // Footprint: in-place shift over the whole ghosted rectangle.
        ex.for_2d("BoundaryCondition::periodic_positions", {dc::read(v.raw()), dc::write(v.raw())},
                  -w, local.owned_extent(0) + w, -w, local.owned_extent(1) + w,
                  [=](int i, int j) {
                      const int gi = gi0 + i;
                      const int gj = gj0 + j;
                      if (gi < 0) v(i, j, 0) -= lx;
                      if (gi >= n0) v(i, j, 0) += lx;
                      if (gj < 0) v(i, j, 1) -= ly;
                      if (gj >= n1) v(i, j, 1) += ly;
                  });
    }

    /// Linear extrapolation into ghost bands that have no owning rank
    /// (physical free boundary only — interior block edges were filled by
    /// the halo exchange). One band per boundary, axis 0 first, then axis
    /// 1, which runs over the i-extended range and so fills the corners
    /// from the already-extrapolated axis-0 ghosts (on device the in-order
    /// queue provides that dependency). Within a band every ghost value
    /// depends only on values the band does not write.
    template <class Exec, class View>
    void extrapolate(Exec ex, View f) const {
        constexpr int C = View::components();
        const auto& local = mesh_->local();
        const auto& global = mesh_->global();
        const int w = local.halo_width();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const bool at_ilo = local.global_offset(0) == 0;
        const bool at_ihi = local.global_offset(0) + ni == global.num_nodes(0);
        const bool at_jlo = local.global_offset(1) == 0;
        const bool at_jhi = local.global_offset(1) + nj == global.num_nodes(1);

        auto band = [&](int n, const auto& body) {
            namespace dc = par::device::devcheck;
            // Footprint: each band reads owned values and writes its
            // ghost strip; the whole ghosted rectangle bounds both (the
            // in-order queue serializes the bands, so the coarse range
            // cannot manufacture a cross-band hazard).
            ex.for_band("BoundaryCondition::extrapolate band",
                        {dc::read(f.raw()), dc::write(f.raw())}, w, n, C, body);
        };
        if (at_ilo) {
            band(nj, [f](int k, int j, int c) {
                f(-k, j, c) = f(0, j, c) + k * (f(0, j, c) - f(1, j, c));
            });
        }
        if (at_ihi) {
            band(nj, [f, ni](int k, int j, int c) {
                f(ni - 1 + k, j, c) = f(ni - 1, j, c) + k * (f(ni - 1, j, c) - f(ni - 2, j, c));
            });
        }
        const int ilo = at_ilo ? -w : 0;
        const int ihi = at_ihi ? ni + w : ni;
        if (at_jlo) {
            band(ihi - ilo, [f, ilo](int k, int off, int c) {
                const int i = ilo + off;
                f(i, -k, c) = f(i, 0, c) + k * (f(i, 0, c) - f(i, 1, c));
            });
        }
        if (at_jhi) {
            band(ihi - ilo, [f, ilo, nj](int k, int off, int c) {
                const int i = ilo + off;
                f(i, nj - 1 + k, c) = f(i, nj - 1, c) + k * (f(i, nj - 1, c) - f(i, nj - 2, c));
            });
        }
    }

    const SurfaceMesh* mesh_;
};

} // namespace beatnik
