/// \file zmodel.hpp
/// \brief Z-Model derivative computation (paper §2/§3.1, ZModel module).
///
/// Evolution equations as implemented (derivation in DESIGN.md §1):
///   dz/dt  = W                       (interface moves with the fluid)
///   dw_i/dt = d/dalpha_i( -2*A*g*z3 - A*|Wb|^2 ) + mu * lap(w_i)
/// where W is the Birkhoff–Rott velocity of the sheet and Wb is the
/// velocity used inside the Bernoulli term. The order tag selects how
/// each velocity is obtained:
///   * low:    W and Wb from the flat-sheet Fourier multiplier
///             What(k) = i (k x gamma_hat) / (2|k|)    — one batched FFT
///             round trip of the 3 gamma components: 4 reshapes
///   * medium: W from a BR solver, Wb from the FFT     — both comm patterns
///   * high:   W = Wb from a BR solver                 — no FFTs
/// The ZModel performs no direct communication itself; it invokes the FFT
/// library, the BR solver, and the ProblemManager's halo exchanges —
/// exactly the role the paper assigns it.
///
/// The three gamma components share one contiguous spectral buffer
/// (component-major). They go to spectral space together
/// (DistributedFFT2D::to_spectral, 2 reshapes that each move all three
/// components of a rectangle as one message), the multiplier is applied
/// by global mode index in the spectral layout, and they come back
/// together (from_spectral, 2 more reshapes) — never visiting the brick
/// layout in between.
///
/// Scratch fields (gamma, velocities, Bernoulli scalar) and the spectral
/// staging buffer are persistent members, so a steady-state derivative
/// evaluation allocates nothing. The pipeline is written once, as loop
/// bodies over field views (core/exec.hpp): gamma, the Bernoulli scalar,
/// the derivative outputs and the FFT field<->spectral marshalling. On a
/// host-resident ProblemManager they run over the host fields. On a
/// device-resident one they are device kernels over the field mirrors,
/// the spectral buffer is a pinned (registered) host range, and the
/// distributed FFT's reshape staging packs/unpacks on device straight
/// into the pinned plan buffers (DistributedFFT2D::enable_device). Host
/// code touches only the pinned spectral lines (the butterflies and the
/// multiplier), never the field mirrors.
#pragma once

#include <numbers>
#include <optional>

#include "core/br_solver.hpp"
#include "core/exec.hpp"
#include "core/operators.hpp"
#include "fft/distributed_fft.hpp"
#include "par/par.hpp"
#include "telemetry/metrics.hpp"

namespace beatnik {

class ZModel {
public:
    /// \p br may be null for Order::low; \p fft_config is used by
    /// low/medium order (ignored for high).
    ZModel(comm::Communicator& comm, const SurfaceMesh& mesh, const Params& params,
           BRSolverBase* br)
        : comm_(&comm), mesh_(&mesh), order_(params.order), br_(br),
          atwood_(params.atwood), gravity_(params.gravity),
          mu_eff_(mesh.effective_mu(params.mu)), gamma_(mesh.local()), w_fft_(mesh.local()),
          w_br_(mesh.local()), phi_(mesh.local()), zdot_dev_(mesh.local()),
          wdot_dev_(mesh.local()) {
        BEATNIK_REQUIRE(order_ == Order::low || br_ != nullptr,
                        "medium/high order require a BR solver");
        if (order_ != Order::high) {
            fft_.emplace(comm, std::array<int, 2>{mesh.global().num_nodes(0),
                                                  mesh.global().num_nodes(1)},
                         mesh.topology().dims(), params.fft);
        }
    }

    /// Drain in-flight kernels before the scratch mirrors and pinned
    /// spectral buffers die.
    ~ZModel() {
        if (queue_ != nullptr) queue_->fence(); // devcheck: fenced — teardown drain
    }
    ZModel(const ZModel&) = delete;
    ZModel& operator=(const ZModel&) = delete;

    /// Compute (zdot, wdot) at owned nodes from the state in \p pm.
    /// Precondition: pm halos are current (the integrator guarantees it).
    /// Collective: every rank must call with the same state generation.
    ///
    /// A device-resident state always runs the device pipeline — the
    /// scratch-field mirrors are the authoritative copies there, and a
    /// host sweep over them would silently read stale data. Callers with
    /// plain host derivative fields (direct API use, tests) get the
    /// results downloaded into their fields' owned nodes; mirrored
    /// caller fields (the integrator's) are written in place on device.
    /// A host-resident state takes the pure host path.
    void derivatives(ProblemManager& pm, grid::NodeField<double, 3>& zdot,
                     grid::NodeField<double, 2>& wdot) {
        static const telemetry::Phase ph{"step/derivatives"};
        telemetry::PhaseScope scope(ph);
        if (!pm.device_resident()) {
            evaluate(HostExec{}, pm, zdot, wdot);
            return;
        }
        // Half-mirrored caller fields would leave the mirrored one's
        // device copy silently stale after the download path — refuse.
        BEATNIK_REQUIRE(zdot.device_mirrored() == wdot.device_mirrored(),
                        "derivative fields must be both mirrored or both host-resident");
        ensure_device(pm);
        if (zdot.device_mirrored()) {
            evaluate(DeviceExec{queue_}, pm, zdot, wdot);
            return;
        }
        evaluate(DeviceExec{queue_}, pm, zdot_dev_, wdot_dev_);
        zdot_dev_.sync_to_host(*queue_);
        wdot_dev_.sync_to_host(*queue_);
        queue_->fence(); // devcheck: fenced — host loop downloads the mirrors
        const auto& local = mesh_->local();
        grid::for_each(local.own_space(), [&](int i, int j) {
            for (int c = 0; c < 3; ++c) zdot(i, j, c) = zdot_dev_(i, j, c);
            for (int c = 0; c < 2; ++c) wdot(i, j, c) = wdot_dev_(i, j, c);
        });
    }

    [[nodiscard]] Order order() const { return order_; }
    [[nodiscard]] BRSolverBase* br_solver() const { return br_; }

private:
    // Shared by both instantiations of the pipeline (and, for br, two
    // call sites), so the interned Phase lives here rather than per call
    // site.
    static const telemetry::Phase& br_phase() {
        static const telemetry::Phase ph{"step/br"};
        return ph;
    }
    static const telemetry::Phase& fft_phase() {
        static const telemetry::Phase ph{"step/fft"};
        return ph;
    }

    /// The pipeline, on host fields or on device mirrors. On device every
    /// stage is enqueued on the state's queue, so stages order by stream
    /// semantics; host synchronization happens only inside the FFT
    /// (butterflies on the pinned spectral lines) and the BR solvers'
    /// communication.
    template <class Exec>
    void evaluate(Exec ex, ProblemManager& pm, grid::NodeField<double, 3>& zdot,
                  grid::NodeField<double, 2>& wdot) {
        pm.ensure_device_current();
        const auto& local = mesh_->local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const double dx = mesh_->global().spacing(0);
        const double dy = mesh_->global().spacing(1);
        auto z = ex.view(std::as_const(pm.position_raw()));
        auto w = ex.view(std::as_const(pm.vorticity_raw()));
        namespace dc = par::device::devcheck;

        // Biot–Savart source gamma at owned nodes (width-2 stencils).
        {
            auto g = ex.view(gamma_);
            ex.for_2d("zmodel gamma", {dc::read(z.raw()), dc::read(w.raw()), dc::write(g.raw())},
                      0, ni, 0, nj, [=](int i, int j) {
                          Vec3 gv = operators::gamma_vector(z, w, i, j, dx, dy);
                          g(i, j, 0) = gv.x;
                          g(i, j, 1) = gv.y;
                          g(i, j, 2) = gv.z;
                      });
        }

        // Interface velocity W (zdot) and the Bernoulli velocity Wb. The
        // BR solver's begin hook starts its gamma-dependent staging (the
        // cutoff solver's pack/canonicalize kernel on a device-resident
        // state) on a side queue, chained behind the gamma kernel by an
        // event — it overlaps the FFT below. For medium order the whole
        // Bernoulli chain (phi, its halo, wdot) depends only on the FFT
        // velocity, so it is issued *before* the BR solve: under the
        // overlapped device schedule those main-queue kernels run
        // concurrently with the cutoff solver's spatial pipeline on its
        // own queues. Each output's stage order is unchanged, so the
        // results do not depend on the issue order.
        if (order_ != Order::low) br_->begin_velocity(pm, gamma_);
        if (order_ != Order::high) fft_velocity(ex);
        grid::NodeField<double, 3>* w_for_z = &w_fft_;
        grid::NodeField<double, 3>* w_for_bernoulli = &w_fft_;
        if (order_ == Order::high) {
            telemetry::PhaseScope br_scope(br_phase());
            br_->compute_velocity(pm, gamma_, w_br_);
            w_for_z = &w_br_;
            w_for_bernoulli = &w_br_;
        }
        auto issue_zdot = [&] {
            auto src = ex.view(std::as_const(*w_for_z));
            auto dst = ex.view(zdot);
            ex.for_2d("zmodel zdot copy", {dc::read(src.raw()), dc::write(dst.raw())}, 0, ni, 0,
                      nj, [=](int i, int j) {
                          for (int c = 0; c < 3; ++c) dst(i, j, c) = src(i, j, c);
                      });
        };
        // Bernoulli scalar phi = -2*A*g*z3 - A*|Wb|^2, haloed so its
        // surface gradient exists at owned nodes.
        auto issue_bernoulli = [&] {
            {
                auto wb = ex.view(std::as_const(*w_for_bernoulli));
                auto phi = ex.view(phi_);
                const double atwood = atwood_;
                const double gravity = gravity_;
                ex.for_2d("zmodel bernoulli phi",
                          {dc::read(wb.raw()), dc::read(z.raw()), dc::write(phi.raw())}, 0, ni, 0,
                          nj, [=](int i, int j) {
                              double speed2 = wb(i, j, 0) * wb(i, j, 0) +
                                              wb(i, j, 1) * wb(i, j, 1) + wb(i, j, 2) * wb(i, j, 2);
                              phi(i, j, 0) = -2.0 * atwood * gravity * z(i, j, 2) - atwood * speed2;
                          });
            }
            pm.gather_scratch_halo(phi_);
            {
                auto phi = ex.view(std::as_const(phi_));
                auto dst = ex.view(wdot);
                const double mu_eff = mu_eff_;
                ex.for_2d("zmodel wdot",
                          {dc::read(phi.raw()), dc::read(w.raw()), dc::write(dst.raw())}, 0, ni, 0,
                          nj, [=](int i, int j) {
                              dst(i, j, 0) = operators::d1(phi, i, j, 0, dx) +
                                             mu_eff * operators::laplacian(w, i, j, 0, dx, dy);
                              dst(i, j, 1) = operators::d2(phi, i, j, 0, dy) +
                                             mu_eff * operators::laplacian(w, i, j, 1, dx, dy);
                          });
            }
        };
        if (order_ == Order::medium) {
            issue_bernoulli();
            {
                telemetry::PhaseScope br_scope(br_phase());
                br_->compute_velocity(pm, gamma_, w_br_);
            }
            w_for_z = &w_br_;
            issue_zdot();
        } else {
            issue_zdot();
            issue_bernoulli();
        }
    }

    /// One-time device setup: mirror the scratch fields, pin the spectral
    /// staging buffers, and switch the FFT's reshape staging to device
    /// pack/unpack through the pinned plan buffers.
    void ensure_device(ProblemManager& pm) {
        if (queue_ != nullptr) return;
        queue_ = &pm.device_queue();
        gamma_.enable_device_mirror();
        w_fft_.enable_device_mirror();
        w_br_.enable_device_mirror();
        phi_.enable_device_mirror();
        zdot_dev_.enable_device_mirror();
        wdot_dev_.enable_device_mirror();
        // The derivative-download scratch is read back wholesale; seed
        // the mirrors from the zero-filled host storage so the ghost
        // bytes are defined.
        zdot_dev_.sync_to_device(*queue_);
        wdot_dev_.sync_to_device(*queue_);
        queue_->fence(); // devcheck: fenced — one-time mirror seed
        if (fft_) {
            // to_spectral/from_spectral resize the buffer between the
            // brick and spectral layouts; reserving both keeps the pinned
            // range in place.
            spectral_.reserve(3 * std::max(fft_->local_box().size(),
                                           fft_->spectral_layout().size()));
            pinned_ = par::device::ScopedHostRegistration(
                std::span<const fft::cplx>(spectral_.data(), spectral_.capacity()));
            fft_->enable_device(*queue_);
        }
    }

    /// Low-order interface velocity: transform the three gamma components
    /// to spectral space as one batch, apply What = i (k x gamma_hat) /
    /// (2|k|), transform back — the all-to-all load of the low-order
    /// benchmarks (paper §4). The gamma -> spectral lines and spectral ->
    /// velocity marshalling are loops of the execution space; the
    /// distributed transforms and the multiplier run on the host over
    /// spectral_ (pinned on device).
    template <class Exec>
    void fft_velocity(Exec ex) {
        telemetry::PhaseScope scope(fft_phase());
        const auto& box = fft_->local_box();
        const int nib = box.i.extent();
        const int njb = box.j.extent();
        const auto snj = static_cast<std::size_t>(njb);
        namespace dc = par::device::devcheck;
        const std::size_t nbox = box.size();
        spectral_.resize(3 * nbox);
        {
            fft::cplx* sp = spectral_.data();
            auto g = ex.view(std::as_const(gamma_));
            ex.for_2d("zmodel gamma -> spectral",
                      {dc::read(g.raw()), dc::write(sp, 3 * nbox * sizeof(fft::cplx))}, 0, nib, 0,
                      njb, [=](int i, int j) {
                          const std::size_t k = static_cast<std::size_t>(i) * snj + j;
                          for (int c = 0; c < 3; ++c) {
                              sp[static_cast<std::size_t>(c) * nbox + k] = {g(i, j, c), 0.0};
                          }
                      });
        }
        // The transforms read the spectral lines from host code (the
        // butterflies); the reshapes inside enqueue their own kernels on
        // the same queue and fence before host compute.
        ex.fence(); // devcheck: fenced — host butterflies read the spectral lines
        spectral_velocity();
        {
            const fft::cplx* sp = spectral_.data();
            auto v = ex.view(w_fft_);
            ex.for_2d("zmodel spectral -> velocity",
                      {dc::read(sp, 3 * nbox * sizeof(fft::cplx)), dc::write(v.raw())}, 0, nib, 0,
                      njb, [=](int i, int j) {
                          const std::size_t k = static_cast<std::size_t>(i) * snj + j;
                          for (int c = 0; c < 3; ++c) {
                              v(i, j, c) = sp[static_cast<std::size_t>(c) * nbox + k].real();
                          }
                      });
        }
    }

    /// The spectral round trip shared by both pipelines: spectral_ holds
    /// the three gamma components as bricks on entry and the three
    /// velocity components as bricks on exit. In between they sit in the
    /// FFT's spectral layout, where the flat-sheet multiplier is applied
    /// in place by global mode index (host compute on the spectral lines).
    void spectral_velocity() {
        fft_->to_spectral(spectral_, 3);
        const fft::Layout2D& layout = fft_->spectral_layout();
        const std::size_t ns = layout.size();
        fft::cplx* sx = spectral_.data();
        fft::cplx* sy = sx + ns;
        fft::cplx* sz = sy + ns;
        const int n0 = mesh_->global().num_nodes(0);
        const int n1 = mesh_->global().num_nodes(1);
        const double lx = mesh_->global().extent(0);
        const double ly = mesh_->global().extent(1);
        constexpr double tau = 2.0 * std::numbers::pi;
        for (int gi = layout.box.i.begin; gi < layout.box.i.end; ++gi) {
            for (int gj = layout.box.j.begin; gj < layout.box.j.end; ++gj) {
                const std::size_t k = layout.offset(gi, gj);
                double kx = tau * fft::DistributedFFT2D::signed_mode(gi, n0) / lx;
                double ky = tau * fft::DistributedFFT2D::signed_mode(gj, n1) / ly;
                double kn = std::sqrt(kx * kx + ky * ky);
                if (kn == 0.0) {
                    sx[k] = sy[k] = sz[k] = {0.0, 0.0};
                    continue;
                }
                fft::cplx gx = sx[k], gy = sy[k], gz = sz[k];
                // i * (k x gamma_hat) / (2|k|), k = (kx, ky, 0).
                const fft::cplx iunit{0.0, 1.0};
                const double inv = 1.0 / (2.0 * kn);
                sx[k] = iunit * (ky * gz) * inv;
                sy[k] = iunit * (-kx * gz) * inv;
                sz[k] = iunit * (kx * gy - ky * gx) * inv;
            }
        }
        fft_->from_spectral(spectral_, 3);
    }

    comm::Communicator* comm_;
    const SurfaceMesh* mesh_;
    Order order_;
    BRSolverBase* br_;
    double atwood_;
    double gravity_;
    double mu_eff_;
    std::optional<fft::DistributedFFT2D> fft_;
    // Persistent scratch: one derivative evaluation allocates nothing in
    // the steady state. Only owned nodes are read back (phi additionally
    // through its own halo refresh), so stale ghosts are harmless.
    grid::NodeField<double, 3> gamma_;
    grid::NodeField<double, 3> w_fft_;
    grid::NodeField<double, 3> w_br_;
    grid::NodeField<double, 1> phi_;
    /// Landing pads for host-field callers on a device-resident state:
    /// the device pipeline writes these mirrors, then the owned nodes are
    /// downloaded into the caller's fields.
    grid::NodeField<double, 3> zdot_dev_;
    grid::NodeField<double, 2> wdot_dev_;
    /// The three gamma/velocity components back to back, in the brick or
    /// the FFT's spectral layout (see spectral_velocity()).
    std::vector<fft::cplx> spectral_;
    // Device mode: the rank-thread's queue (null until the device
    // pipeline first runs), plus the pin for the spectral buffer (kernels
    // write it directly).
    par::device::Queue* queue_ = nullptr;
    par::device::ScopedHostRegistration pinned_;
};

} // namespace beatnik
