#include "fft/distributed_fft3d.hpp"

#include <cmath>

namespace beatnik::fft {

// --------------------------------------------------------------- Reshape3D

void Reshape3D::pack(const Layout3D& l, std::span<const cplx> in, const Box3D& b,
                     std::vector<cplx>& buf) {
    for (int i = b.i.begin; i < b.i.end; ++i) {
        for (int j = b.j.begin; j < b.j.end; ++j) {
            for (int k = b.k.begin; k < b.k.end; ++k) buf.push_back(in[l.offset(i, j, k)]);
        }
    }
}

void Reshape3D::pack_into(const Layout3D& l, std::span<const cplx> in, const Box3D& b,
                          cplx* out) {
    for (int i = b.i.begin; i < b.i.end; ++i) {
        for (int j = b.j.begin; j < b.j.end; ++j) {
            for (int k = b.k.begin; k < b.k.end; ++k) *out++ = in[l.offset(i, j, k)];
        }
    }
}

void Reshape3D::unpack(const Layout3D& l, std::vector<cplx>& out, const Box3D& b,
                       std::span<const cplx> buf) {
    std::size_t m = 0;
    for (int i = b.i.begin; i < b.i.end; ++i) {
        for (int j = b.j.begin; j < b.j.end; ++j) {
            for (int k = b.k.begin; k < b.k.end; ++k) out[l.offset(i, j, k)] = buf[m++];
        }
    }
}

void Reshape3D::execute(comm::Communicator& comm, const Layout3D& src, std::span<const cplx> in,
                        const Layout3D& dst, std::vector<cplx>& out, bool use_alltoall) const {
    BEATNIK_REQUIRE(in.size() == src.size(), "reshape3d: input size mismatch");
    // The recv boxes tile the destination exactly (checked below), so the
    // output needs no zero-fill pass — every element is overwritten.
    BEATNIK_ASSERT(recv_coverage_ == dst.size(),
                   "reshape3d: recv boxes do not cover the destination layout");
    out.resize(dst.size());
    if (use_alltoall) {
        const int p = comm.size();
        std::vector<std::size_t> sendcounts(static_cast<std::size_t>(p), 0);
        std::vector<cplx> packed;
        packed.reserve(src.size());
        for (const auto& t : sends_) {
            sendcounts[static_cast<std::size_t>(t.peer)] = t.box.size();
            pack(src, in, t.box, packed);
        }
        std::vector<std::size_t> recvcounts;
        auto received = comm.alltoallv(std::span<const cplx>(packed),
                                       std::span<const std::size_t>(sendcounts), recvcounts);
        std::size_t off = 0;
        for (const auto& t : recvs_) {
            BEATNIK_REQUIRE(recvcounts[static_cast<std::size_t>(t.peer)] == t.box.size(),
                            "reshape3d: unexpected block size");
            unpack(dst, out, t.box, std::span<const cplx>(received.data() + off, t.box.size()));
            off += t.box.size();
        }
        return;
    }
    // heFFTe's custom p2p path on persistent pre-matched channels (see
    // plan_cache.hpp).
    p2p_->execute(
        comm, sends_, recvs_, /*ncomp=*/1,
        [&](const Box3D& box, cplx* slot) { pack_into(src, in, box, slot); },
        [&](const Box3D& box, std::vector<cplx>& buf) { pack(src, in, box, buf); },
        [&](const Box3D& box, std::span<const cplx> data) { unpack(dst, out, box, data); },
        "reshape3d: unexpected p2p size");
}

// --------------------------------------------------------- DistributedFFT3D

namespace {

std::vector<Box3D> brick_boxes_3d(std::array<int, 3> g, std::array<int, 2> dims) {
    std::vector<Box3D> boxes;
    for (int ci = 0; ci < dims[0]; ++ci) {
        for (int cj = 0; cj < dims[1]; ++cj) {
            boxes.push_back({grid::block_partition(g[0], dims[0], ci),
                             grid::block_partition(g[1], dims[1], cj),
                             {0, g[2]}});
        }
    }
    return boxes;
}

/// j-pencils: full j, (i, k) partitioned by the rank grid.
std::vector<Box3D> j_pencil_boxes(std::array<int, 3> g, std::array<int, 2> dims) {
    std::vector<Box3D> boxes;
    for (int ci = 0; ci < dims[0]; ++ci) {
        for (int cj = 0; cj < dims[1]; ++cj) {
            boxes.push_back({grid::block_partition(g[0], dims[0], ci),
                             {0, g[1]},
                             grid::block_partition(g[2], dims[1], cj)});
        }
    }
    return boxes;
}

/// i-pencils: full i, (j, k) partitioned by the rank grid.
std::vector<Box3D> i_pencil_boxes(std::array<int, 3> g, std::array<int, 2> dims) {
    std::vector<Box3D> boxes;
    for (int ci = 0; ci < dims[0]; ++ci) {
        for (int cj = 0; cj < dims[1]; ++cj) {
            boxes.push_back({{0, g[0]},
                             grid::block_partition(g[1], dims[0], ci),
                             grid::block_partition(g[2], dims[1], cj)});
        }
    }
    return boxes;
}

/// k-slabs: full (i, j) planes, k partitioned over all P ranks.
std::vector<Box3D> k_slab_boxes(std::array<int, 3> g, int p) {
    std::vector<Box3D> boxes;
    for (int r = 0; r < p; ++r) {
        boxes.push_back({{0, g[0]}, {0, g[1]}, grid::block_partition(g[2], p, r)});
    }
    return boxes;
}

double fft_flops_est(int n) {
    double dn = static_cast<double>(n);
    return is_pow2(static_cast<std::size_t>(n)) ? 5.0 * dn * std::log2(dn > 1 ? dn : 2.0)
                                                : 15.0 * dn * std::log2(dn > 1 ? dn : 2.0);
}

} // namespace

DistributedFFT3D::StagePlan DistributedFFT3D::make_plan(std::array<int, 3> global,
                                                        std::array<int, 2> topo_dims,
                                                        FFTConfig config) {
    StagePlan plan;
    plan.bricks = brick_boxes_3d(global, topo_dims);
    if (config.use_pencils) {
        plan.stage_b = j_pencil_boxes(global, topo_dims);
        plan.stage_c = i_pencil_boxes(global, topo_dims);
    } else {
        plan.stage_b = k_slab_boxes(global, topo_dims[0] * topo_dims[1]);
    }
    return plan;
}

DistributedFFT3D::DistributedFFT3D(comm::Communicator& comm, std::array<int, 3> global,
                                   std::array<int, 2> topo_dims, FFTConfig config)
    : comm_(&comm), global_(global), config_(config) {
    BEATNIK_REQUIRE(comm.size() == topo_dims[0] * topo_dims[1],
                    "communicator size must match the topology");
    auto plan = make_plan(global, topo_dims, config);
    const auto r = static_cast<std::size_t>(comm.rank());
    brick_ = Layout3D{plan.bricks[r], 2}; // k-fastest mesh-native order
    if (config.use_pencils) {
        stage_b_ = Layout3D{plan.stage_b[r], config.use_reorder ? 1 : 2};
        stage_c_ = Layout3D{plan.stage_c[r], config.use_reorder ? 0 : 2};
        forward_path_.emplace_back(comm.rank(), plan.bricks, plan.stage_b);
        forward_path_.emplace_back(comm.rank(), plan.stage_b, plan.stage_c);
        forward_path_.emplace_back(comm.rank(), plan.stage_c, plan.bricks);
        inverse_path_.emplace_back(comm.rank(), plan.bricks, plan.stage_c);
        inverse_path_.emplace_back(comm.rank(), plan.stage_c, plan.stage_b);
        inverse_path_.emplace_back(comm.rank(), plan.stage_b, plan.bricks);
    } else {
        stage_b_ = Layout3D{plan.stage_b[r], config.use_reorder ? 1 : 2};
        forward_path_.emplace_back(comm.rank(), plan.bricks, plan.stage_b);
        forward_path_.emplace_back(comm.rank(), plan.stage_b, plan.bricks);
        inverse_path_ = forward_path_; // symmetric two-hop path
    }
}

void DistributedFFT3D::transform_axis(std::vector<cplx>& data, const Layout3D& layout, int axis,
                                      bool inverse) const {
    const Box3D& b = layout.box;
    const grid::Range line = axis == 0 ? b.i : (axis == 1 ? b.j : b.k);
    BEATNIK_REQUIRE(line.begin == 0 &&
                        line.end == global_[static_cast<std::size_t>(axis)],
                    "stage must own complete lines along its transform axis");
    const auto& plan = plan_for(static_cast<std::size_t>(line.extent()));
    const std::size_t stride = layout.stride(axis);
    const grid::Range a = axis == 0 ? b.j : b.i;
    const grid::Range c = axis == 2 ? b.j : b.k;
    for (int x = a.begin; x < a.end; ++x) {
        for (int y = c.begin; y < c.end; ++y) {
            std::size_t base;
            if (axis == 0) {
                base = layout.offset(0, x, y);
            } else if (axis == 1) {
                base = layout.offset(x, 0, y);
            } else {
                base = layout.offset(x, y, 0);
            }
            cplx* p = data.data() + base;
            inverse ? plan.inverse_strided(p, stride) : plan.forward_strided(p, stride);
        }
    }
}

void DistributedFFT3D::transform(std::vector<cplx>& data, bool inverse) {
    BEATNIK_REQUIRE(data.size() == brick_.size(), "fft3d: data/brick size mismatch");
    const bool a2a = config_.use_alltoall;
    if (config_.use_pencils) {
        if (!inverse) {
            transform_axis(data, brick_, 2, false);
            forward_path_[0].execute(*comm_, brick_, data, stage_b_, work_b_, a2a);
            transform_axis(work_b_, stage_b_, 1, false);
            forward_path_[1].execute(*comm_, stage_b_, work_b_, stage_c_, work_c_, a2a);
            transform_axis(work_c_, stage_c_, 0, false);
            forward_path_[2].execute(*comm_, stage_c_, work_c_, brick_, data, a2a);
        } else {
            inverse_path_[0].execute(*comm_, brick_, data, stage_c_, work_c_, a2a);
            transform_axis(work_c_, stage_c_, 0, true);
            inverse_path_[1].execute(*comm_, stage_c_, work_c_, stage_b_, work_b_, a2a);
            transform_axis(work_b_, stage_b_, 1, true);
            inverse_path_[2].execute(*comm_, stage_b_, work_b_, brick_, data, a2a);
            transform_axis(data, brick_, 2, true);
        }
        return;
    }
    // Slab path: k in the brick, then (i, j) planes in the slab.
    if (!inverse) {
        transform_axis(data, brick_, 2, false);
        forward_path_[0].execute(*comm_, brick_, data, stage_b_, work_b_, a2a);
        transform_axis(work_b_, stage_b_, 1, false);
        transform_axis(work_b_, stage_b_, 0, false);
        forward_path_[1].execute(*comm_, stage_b_, work_b_, brick_, data, a2a);
    } else {
        inverse_path_[0].execute(*comm_, brick_, data, stage_b_, work_b_, a2a);
        transform_axis(work_b_, stage_b_, 0, true);
        transform_axis(work_b_, stage_b_, 1, true);
        inverse_path_[1].execute(*comm_, stage_b_, work_b_, brick_, data, a2a);
        transform_axis(data, brick_, 2, true);
    }
}

std::vector<PlannedPhase> DistributedFFT3D::plan_schedule(std::array<int, 3> global,
                                                          std::array<int, 2> topo_dims,
                                                          FFTConfig config) {
    const int p = topo_dims[0] * topo_dims[1];
    auto plan = make_plan(global, topo_dims, config);

    auto phase_of = [&](const std::string& label, const std::vector<Box3D>& src,
                        const std::vector<Box3D>& dst, double flops_per_elem_after,
                        const std::vector<Box3D>& compute_boxes) {
        PlannedPhase phase;
        phase.label = label;
        phase.is_alltoall = config.use_alltoall;
        for (int r = 0; r < p; ++r) {
            Reshape3D rp(r, src, dst);
            for (const auto& t : rp.sends()) {
                if (t.peer == r) continue;
                phase.messages.push_back({r, t.peer, t.box.size() * sizeof(cplx)});
            }
        }
        phase.flops_per_rank.assign(static_cast<std::size_t>(p), 0.0);
        if (flops_per_elem_after > 0.0) {
            for (int r = 0; r < p; ++r) {
                phase.flops_per_rank[static_cast<std::size_t>(r)] =
                    flops_per_elem_after *
                    static_cast<double>(compute_boxes[static_cast<std::size_t>(r)].size());
            }
        }
        return phase;
    };

    std::vector<PlannedPhase> phases;
    // Leading brick-local axis-2 transform appears as a compute-only phase.
    PlannedPhase head;
    head.label = "brick k-transform";
    head.flops_per_rank.assign(static_cast<std::size_t>(p), 0.0);
    for (int r = 0; r < p; ++r) {
        const auto& b = plan.bricks[static_cast<std::size_t>(r)];
        head.flops_per_rank[static_cast<std::size_t>(r)] =
            fft_flops_est(global[2]) / global[2] * static_cast<double>(b.size());
    }
    phases.push_back(std::move(head));
    if (config.use_pencils) {
        phases.push_back(phase_of("brick->jpencil", plan.bricks, plan.stage_b,
                                  fft_flops_est(global[1]) / global[1], plan.stage_b));
        phases.push_back(phase_of("jpencil->ipencil", plan.stage_b, plan.stage_c,
                                  fft_flops_est(global[0]) / global[0], plan.stage_c));
        phases.push_back(phase_of("ipencil->brick", plan.stage_c, plan.bricks, 0.0, {}));
    } else {
        double planar = fft_flops_est(global[0]) / global[0] +
                        fft_flops_est(global[1]) / global[1];
        phases.push_back(
            phase_of("brick->kslab", plan.bricks, plan.stage_b, planar, plan.stage_b));
        phases.push_back(phase_of("kslab->brick", plan.stage_b, plan.bricks, 0.0, {}));
    }
    return phases;
}

} // namespace beatnik::fft
