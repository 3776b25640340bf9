/// \file distributed_fft.hpp
/// \brief Distributed 2D complex FFT over a brick-decomposed array — the
/// heFFTe stand-in, including its three tuning knobs (paper Table 1):
///
///   * AllToAll — reshapes run through the alltoallv collective (true) or
///     an explicit point-to-point message list (false);
///   * Pencils  — intermediate stages are generic 1D pencil partitions
///     over all P ranks (true) or brick-aligned band partitions whose
///     first/last reshapes stay inside row/column subgroups (false);
///   * Reorder  — intermediate buffers are laid out with the transform
///     axis unit-stride (true) or kept mesh-ordered, making the second
///     transform stage strided (false).
///
/// All eight knob combinations compute identical transforms (tested) but
/// generate different message schedules and memory behavior — which is
/// exactly the property Fig. 9 of the paper measures.
///
/// Data contract: forward()/inverse() operate in place on the rank's
/// brick in mesh-native layout (j fastest), matching the surface mesh's
/// owned block. Transforms are unnormalized forward, 1/(N0*N1) inverse.
///
/// Spectral-space consumers that only apply a per-mode operator (a
/// Fourier multiplier) need not return to the brick between the forward
/// and the inverse transform. to_spectral() runs the forward stages and
/// stops in the stage-2 layout — spectral_layout(), a box of complete
/// axis-0 lines whose size in general differs from the brick's —
/// and from_spectral() runs the inverse stages from there back to the
/// brick. Both take a component count: the array then holds that many
/// components back to back, each in the layout of the current stage
/// (component-major), and every reshape moves all components of a
/// transfer rectangle as one message. A batch of k components costs the
/// messages of one transform, and a to/from-spectral round trip costs 4
/// reshapes instead of the 6 of forward() + inverse(). forward() is
/// to_spectral() plus the stage2->brick reshape, and inverse() is the
/// brick->stage2 reshape plus from_spectral(): there is one stage
/// sequence, and the per-line butterflies — hence the results — are
/// bitwise identical whichever entry point runs them.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/partition.hpp"
#include "fft/reshape.hpp"

namespace beatnik::fft {

/// heFFTe-style algorithm configuration (paper Table 1).
struct FFTConfig {
    bool use_alltoall = true;
    bool use_pencils = true;
    bool use_reorder = true;

    /// Table-1 numbering: configs 0..7 in the paper's order
    /// (AllToAll, Pencils, Reorder) with False < True.
    [[nodiscard]] int table1_index() const {
        return (use_alltoall ? 4 : 0) + (use_pencils ? 2 : 0) + (use_reorder ? 1 : 0);
    }
    [[nodiscard]] static FFTConfig from_table1_index(int idx) {
        return {(idx & 4) != 0, (idx & 2) != 0, (idx & 1) != 0};
    }
};

/// One point-to-point transfer in a planned schedule (world ranks).
struct PlannedMsg {
    int src = 0;
    int dst = 0;
    std::size_t bytes = 0;
};

/// A communication phase of the transform plus the per-rank compute that
/// follows it. Consumed by the netsim performance model.
struct PlannedPhase {
    std::string label;
    bool is_alltoall = false;          ///< collective (true) vs p2p list
    std::vector<PlannedMsg> messages;  ///< every rank's transfers
    std::vector<double> flops_per_rank; ///< local FFT work after this phase
};

class DistributedFFT2D {
public:
    /// Plan a transform of the \p global array distributed as bricks over
    /// a topo_dims[0] x topo_dims[1] rank grid (row-major rank order,
    /// matching CartTopology2D).
    DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global,
                     std::array<int, 2> topo_dims, FFTConfig config);

    [[nodiscard]] const Box2D& local_box() const { return brick_layout_.box; }
    [[nodiscard]] const FFTConfig& config() const { return config_; }
    [[nodiscard]] std::array<int, 2> global_dims() const { return global_; }

    /// Layout of the spectral stage (complete axis-0 lines) that
    /// to_spectral() ends in and from_spectral() starts from. Values are
    /// addressed by global mode index through Layout2D::offset().
    [[nodiscard]] const Layout2D& spectral_layout() const { return stage2_.layout; }

    /// In-place forward transform of this rank's brick (j-fastest order).
    void forward(std::vector<cplx>& data);
    /// In-place inverse transform (scaled so inverse(forward(x)) == x).
    void inverse(std::vector<cplx>& data);

    /// Forward-transform \p components bricks stored back to back in
    /// \p data, leaving them in place in the spectral layout: \p data is
    /// resized from components * local_box().size() to components *
    /// spectral_layout().size() elements.
    void to_spectral(std::vector<cplx>& data, int components);
    /// Inverse of to_spectral(): \p components spectral-layout arrays back
    /// to back in \p data become bricks in place (scaled so
    /// from_spectral(to_spectral(x)) == x).
    void from_spectral(std::vector<cplx>& data, int components);

    /// Route the reshape staging through the device: the persistent stage
    /// buffers are pinned over their whole allocation, and the
    /// p2p reshapes pack/unpack with device kernels straight into the
    /// pinned plan transport buffers (ReshapePlan::enable_device). The
    /// caller's transform arrays must be pinned too. The butterflies stay
    /// host compute over the pinned lines — the cuFFT seam on real
    /// hardware. The alltoall configurations keep host staging. For
    /// to_spectral()/from_spectral() the caller's array changes size
    /// between the layouts, so its capacity must cover both before it is
    /// pinned (resizing within capacity keeps the pinned range in place).
    void enable_device(par::device::Queue& q);

    /// Signed integer mode for index m of an N-point axis
    /// (0, 1, ..., N/2, -(N/2-1), ..., -1).
    [[nodiscard]] static int signed_mode(int m, int n) { return m <= n / 2 ? m : m - n; }

    /// Build the full communication/computation schedule of one forward
    /// transform of \p components stacked arrays for any rank count,
    /// without a communicator or data. This is how the scaling benchmarks
    /// obtain P=1024 schedules. With \p spectral_end the schedule is the
    /// to_spectral() leg (2 phases, ending in the spectral layout) instead
    /// of the full brick->brick forward() (3 phases); the from_spectral()
    /// leg is its mirror image with the same cost structure.
    [[nodiscard]] static std::vector<PlannedPhase> plan_schedule(std::array<int, 2> global,
                                                                 std::array<int, 2> topo_dims,
                                                                 FFTConfig config,
                                                                 int components = 1,
                                                                 bool spectral_end = false);

private:
    struct Stage {
        Layout2D layout;   ///< data layout while transforming
        int axis = 0;      ///< axis transformed in this stage
    };

    /// Box lists / layouts for both intermediate stages, shared by the
    /// executing constructor and the static planner.
    struct StagePlan {
        std::vector<Box2D> bricks;
        std::vector<Box2D> stage1; ///< full j lines
        std::vector<Box2D> stage2; ///< full i lines
        int stage2_fast_axis = 0;
    };
    static StagePlan make_stage_plan(std::array<int, 2> global, std::array<int, 2> topo_dims,
                                     FFTConfig config);

    /// Delegation target that builds the stage plan exactly once.
    DistributedFFT2D(comm::Communicator& comm, std::array<int, 2> global, FFTConfig config,
                     const StagePlan& plan);

    /// Butterflies along the stage's axis over every line of each of the
    /// \p components arrays stacked in \p data.
    void transform_stage(std::vector<cplx>& data, const Stage& stage, bool inverse,
                         int components) const;
    /// The one forward stage sequence: brick (\p in) -> stage 1 (work_)
    /// -> stage 2 (\p out), transforming axis 1 then axis 0.
    void run_to_spectral(std::span<const cplx> in, std::vector<cplx>& out, int components);
    /// The one inverse stage sequence: stage 2 (\p in, transformed in
    /// place) -> stage 1 (work_) -> brick (\p out).
    void run_from_spectral(std::vector<cplx>& in, std::vector<cplx>& out, int components);
    /// Under enable_device, grow the stage-1 buffer's pinned allocation to
    /// hold \p components arrays before a reshape writes it.
    void reserve_stage1(int components);

    comm::Communicator* comm_;
    std::array<int, 2> global_;
    FFTConfig config_;
    Layout2D brick_layout_;
    Stage stage1_;
    Stage stage2_;
    // Forward-path reshapes.
    ReshapePlan to_stage1_;
    ReshapePlan stage1_to_stage2_;
    ReshapePlan stage2_to_brick_;
    // Inverse-path reshapes (the reverse route).
    ReshapePlan to_stage2_;
    ReshapePlan stage2_to_stage1_;
    ReshapePlan stage1_to_brick_;
    // Persistent stage buffers: sized on the first transform, reused by
    // every subsequent one (reshape outputs resize() into them without a
    // zero-fill pass). work_ always holds stage-1 data (components x
    // stage-1 size); work2_ holds forward()/inverse()'s stage-2 data.
    // Under enable_device each buffer's whole allocation is pinned, so
    // resizes within capacity never move the registered range; a larger
    // component count regrows and re-pins work_ (reserve_stage1).
    std::vector<cplx> work_;
    std::vector<cplx> work2_;
    par::device::ScopedHostRegistration pinned_work_;
    par::device::ScopedHostRegistration pinned_work2_;
    bool device_ = false;
};

} // namespace beatnik::fft
