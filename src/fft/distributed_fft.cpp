#include "fft/distributed_fft.hpp"

#include <algorithm>
#include <span>

#include "telemetry/telemetry.hpp"

namespace beatnik::fft {

DistributedFFT2D::StagePlan DistributedFFT2D::make_stage_plan(std::array<int, 2> global,
                                                              std::array<int, 2> topo_dims,
                                                              FFTConfig config) {
    const int p = topo_dims[0] * topo_dims[1];
    StagePlan plan;
    plan.bricks = brick_boxes(global, topo_dims);
    if (config.use_pencils) {
        plan.stage1 = pencil_boxes(global, p, /*long_axis=*/1);
        plan.stage2 = pencil_boxes(global, p, /*long_axis=*/0);
    } else {
        plan.stage1 = row_band_boxes(global, topo_dims);
        plan.stage2 = column_band_boxes(global, topo_dims);
    }
    plan.stage2_fast_axis = config.use_reorder ? 0 : 1;
    return plan;
}

DistributedFFT2D::DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global,
                                   std::array<int, 2> topo_dims, FFTConfig config)
    : DistributedFFT2D(comm, global, config, make_stage_plan(global, topo_dims, config)) {
    BEATNIK_REQUIRE(comm.size() == topo_dims[0] * topo_dims[1],
                    "communicator size must match the topology");
}

DistributedFFT2D::DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global,
                                   FFTConfig config, const StagePlan& plan)
    : comm_(&comm), global_(global), config_(config),
      brick_layout_{plan.bricks[static_cast<std::size_t>(comm.rank())], 1},
      // Stage 1 transforms axis 1; its mesh-native layout (j fastest) is
      // already unit-stride for that axis, so reorder only affects stage 2.
      stage1_{Layout2D{plan.stage1[static_cast<std::size_t>(comm.rank())], 1}, 1},
      stage2_{Layout2D{plan.stage2[static_cast<std::size_t>(comm.rank())],
                       plan.stage2_fast_axis},
              0},
      to_stage1_(comm.rank(), plan.bricks, plan.stage1),
      stage1_to_stage2_(comm.rank(), plan.stage1, plan.stage2),
      stage2_to_brick_(comm.rank(), plan.stage2, plan.bricks),
      to_stage2_(comm.rank(), plan.bricks, plan.stage2),
      stage2_to_stage1_(comm.rank(), plan.stage2, plan.stage1),
      stage1_to_brick_(comm.rank(), plan.stage1, plan.bricks) {}

void DistributedFFT2D::transform_stage(std::vector<cplx>& data, const Stage& stage, bool inverse,
                                       int components) const {
    const Box2D& box = stage.layout.box;
    const int axis = stage.axis;
    const int n = axis == 0 ? box.i.extent() : box.j.extent();
    BEATNIK_REQUIRE(n == global_[static_cast<std::size_t>(axis)],
                    "stage must own complete lines along its transform axis");
    const auto& plan = plan_for(static_cast<std::size_t>(n));
    const std::size_t stride = stage.layout.stride(axis);
    const grid::Range cross_range = axis == 0 ? box.j : box.i;
    for (int c = 0; c < components; ++c) {
        cplx* comp = data.data() + static_cast<std::size_t>(c) * stage.layout.size();
        for (int cross = cross_range.begin; cross < cross_range.end; ++cross) {
            cplx* line = comp + stage.layout.line_offset(axis, cross);
            if (inverse) {
                plan.inverse_strided(line, stride);
            } else {
                plan.forward_strided(line, stride);
            }
        }
    }
}

namespace {

/// Pin \p buf's whole allocation, dropping any earlier pin first.
void pin_allocation(std::vector<cplx>& buf, par::device::ScopedHostRegistration& pin) {
    pin.release();
    pin = par::device::ScopedHostRegistration(std::span<const cplx>(buf.data(), buf.capacity()));
}

} // namespace

void DistributedFFT2D::enable_device(par::device::Queue& q) {
    // Stage buffers are pinned over their whole allocation, so the
    // reshapes' resize() calls never move the registered range.
    work_.reserve(stage1_.layout.size());
    work2_.reserve(stage2_.layout.size());
    pin_allocation(work_, pinned_work_);
    pin_allocation(work2_, pinned_work2_);
    device_ = true;
    for (ReshapePlan* rp : {&to_stage1_, &stage1_to_stage2_, &stage2_to_brick_, &to_stage2_,
                            &stage2_to_stage1_, &stage1_to_brick_}) {
        rp->enable_device(q);
    }
}

void DistributedFFT2D::reserve_stage1(int components) {
    const std::size_t need = static_cast<std::size_t>(components) * stage1_.layout.size();
    if (!device_ || need <= work_.capacity()) return;
    // Only the reshapes' kernels touch work_, and each fences before
    // returning, so the queue is quiescent here.
    work_.reserve(need);
    pin_allocation(work_, pinned_work_);
}

void DistributedFFT2D::run_to_spectral(std::span<const cplx> in, std::vector<cplx>& out,
                                       int components) {
    const bool a2a = config_.use_alltoall;
    reserve_stage1(components);
    to_stage1_.execute(*comm_, brick_layout_, in, stage1_.layout, work_, a2a, components);
    transform_stage(work_, stage1_, /*inverse=*/false, components);
    stage1_to_stage2_.execute(*comm_, stage1_.layout, work_, stage2_.layout, out, a2a,
                              components);
    transform_stage(out, stage2_, /*inverse=*/false, components);
}

void DistributedFFT2D::run_from_spectral(std::vector<cplx>& in, std::vector<cplx>& out,
                                         int components) {
    const bool a2a = config_.use_alltoall;
    transform_stage(in, stage2_, /*inverse=*/true, components);
    reserve_stage1(components);
    stage2_to_stage1_.execute(*comm_, stage2_.layout, in, stage1_.layout, work_, a2a,
                              components);
    transform_stage(work_, stage1_, /*inverse=*/true, components);
    stage1_to_brick_.execute(*comm_, stage1_.layout, work_, brick_layout_, out, a2a,
                             components);
}

void DistributedFFT2D::forward(std::vector<cplx>& data) {
    telemetry::Scope span("fft.forward", data.size() * sizeof(cplx));
    BEATNIK_REQUIRE(data.size() == brick_layout_.size(), "forward: data/brick size mismatch");
    run_to_spectral(data, work2_, 1);
    stage2_to_brick_.execute(*comm_, stage2_.layout, work2_, brick_layout_, data,
                             config_.use_alltoall);
}

void DistributedFFT2D::inverse(std::vector<cplx>& data) {
    telemetry::Scope span("fft.inverse", data.size() * sizeof(cplx));
    BEATNIK_REQUIRE(data.size() == brick_layout_.size(), "inverse: data/brick size mismatch");
    to_stage2_.execute(*comm_, brick_layout_, data, stage2_.layout, work2_,
                       config_.use_alltoall);
    run_from_spectral(work2_, data, 1);
}

void DistributedFFT2D::to_spectral(std::vector<cplx>& data, int components) {
    // Same span names as forward()/inverse(): the self time of these spans
    // is the butterfly time, whichever entry point runs the stages.
    telemetry::Scope span("fft.forward", data.size() * sizeof(cplx),
                          static_cast<std::uint64_t>(components));
    BEATNIK_REQUIRE(components >= 1 && data.size() == static_cast<std::size_t>(components) *
                                                          brick_layout_.size(),
                    "to_spectral: data size is not components x brick size");
    run_to_spectral(data, data, components);
}

void DistributedFFT2D::from_spectral(std::vector<cplx>& data, int components) {
    telemetry::Scope span("fft.inverse", data.size() * sizeof(cplx),
                          static_cast<std::uint64_t>(components));
    BEATNIK_REQUIRE(components >= 1 && data.size() == static_cast<std::size_t>(components) *
                                                          stage2_.layout.size(),
                    "from_spectral: data size is not components x spectral size");
    run_from_spectral(data, data, components);
}

std::vector<PlannedPhase> DistributedFFT2D::plan_schedule(std::array<int, 2> global,
                                                          std::array<int, 2> topo_dims,
                                                          FFTConfig config, int components,
                                                          bool spectral_end) {
    BEATNIK_REQUIRE(components >= 1, "plan_schedule: component count must be positive");
    const int p = topo_dims[0] * topo_dims[1];
    const auto ncomp = static_cast<std::size_t>(components);
    auto plan = make_stage_plan(global, topo_dims, config);

    auto phase_of = [&](const std::string& label, const std::vector<Box2D>& src,
                        const std::vector<Box2D>& dst, int fft_axis_after) {
        PlannedPhase phase;
        phase.label = label;
        phase.is_alltoall = config.use_alltoall;
        for (int r = 0; r < p; ++r) {
            ReshapePlan rp(r, src, dst);
            for (const auto& t : rp.sends()) {
                if (t.peer == r) continue; // self copies cost no network
                phase.messages.push_back({r, t.peer, ncomp * t.box.size() * sizeof(cplx)});
            }
        }
        phase.flops_per_rank.assign(static_cast<std::size_t>(p), 0.0);
        if (fft_axis_after >= 0) {
            const auto& boxes = fft_axis_after == 1 ? plan.stage1 : plan.stage2;
            for (int r = 0; r < p; ++r) {
                const Box2D& b = boxes[static_cast<std::size_t>(r)];
                int n = fft_axis_after == 0 ? b.i.extent() : b.j.extent();
                int lines = fft_axis_after == 0 ? b.j.extent() : b.i.extent();
                // flop model mirrors SerialFFT1D::flops without a plan.
                double dn = static_cast<double>(n);
                double fl = is_pow2(static_cast<std::size_t>(n))
                                ? 5.0 * dn * std::log2(dn > 1 ? dn : 2.0)
                                : 15.0 * dn * std::log2(dn > 1 ? dn : 2.0);
                // Strided second stage pays a gather/scatter penalty.
                if (fft_axis_after == 0 && !config.use_reorder) fl *= 1.6;
                phase.flops_per_rank[static_cast<std::size_t>(r)] =
                    fl * lines * static_cast<double>(components);
            }
        }
        return phase;
    };

    std::vector<PlannedPhase> phases;
    phases.push_back(phase_of("brick->stage1", plan.bricks, plan.stage1, 1));
    phases.push_back(phase_of("stage1->stage2", plan.stage1, plan.stage2, 0));
    if (!spectral_end) phases.push_back(phase_of("stage2->brick", plan.stage2, plan.bricks, -1));
    return phases;
}

} // namespace beatnik::fft
