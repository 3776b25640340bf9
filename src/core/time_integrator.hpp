/// \file time_integrator.hpp
/// \brief Third-order SSP Runge–Kutta time integration (paper §3.1,
/// TimeIntegrator module: "three derivatives, hence invokes the ZModel
/// object three times per timestep").
///
/// The stage save and the axpy state updates are one loop body each
/// (core/exec.hpp). On a device-resident ProblemManager they run as device
/// kernels over the state mirrors — the step never touches the host
/// copies, which is what keeps a steady-state step free of host<->device
/// traffic.
#pragma once

#include <utility>

#include "core/zmodel.hpp"
#include "telemetry/metrics.hpp"

namespace beatnik {

class TimeIntegrator {
public:
    TimeIntegrator(const SurfaceMesh& mesh, ZModel& model)
        : mesh_(&mesh), model_(&model), z0_(mesh.local()), w0_(mesh.local()),
          zdot_(mesh.local()), wdot_(mesh.local()) {}

    /// Drain in-flight kernels before the stage mirrors die.
    ~TimeIntegrator() {
        if (queue_ != nullptr) queue_->fence(); // devcheck: fenced — teardown drain
    }
    TimeIntegrator(const TimeIntegrator&) = delete;
    TimeIntegrator& operator=(const TimeIntegrator&) = delete;

    /// Advance (z, w) by one SSP-RK3 step of size \p dt. Halos are
    /// refreshed before each of the three derivative evaluations.
    void step(ProblemManager& pm, double dt) {
        static const telemetry::Phase ph1{"step/rk3_stage1"};
        static const telemetry::Phase ph2{"step/rk3_stage2"};
        static const telemetry::Phase ph3{"step/rk3_stage3"};
        if (pm.device_resident()) ensure_device(pm);
        with_exec(queue_, [&](auto ex) {
            save_state(ex, pm);
            {
                // Stage 1: u1 = u + dt f(u)
                telemetry::PhaseScope scope(ph1);
                model_->derivatives(pm, zdot_, wdot_);
                axpy_state(ex, pm, 1.0, 0.0, dt);
                pm.gather_halos();
            }
            {
                // Stage 2: u2 = 3/4 u + 1/4 (u1 + dt f(u1))
                telemetry::PhaseScope scope(ph2);
                model_->derivatives(pm, zdot_, wdot_);
                axpy_state(ex, pm, 0.25, 0.75, 0.25 * dt);
                pm.gather_halos();
            }
            {
                // Stage 3: u = 1/3 u + 2/3 (u2 + dt f(u2))
                telemetry::PhaseScope scope(ph3);
                model_->derivatives(pm, zdot_, wdot_);
                axpy_state(ex, pm, 2.0 / 3.0, 1.0 / 3.0, (2.0 / 3.0) * dt);
                pm.gather_halos();
            }
        });
    }

private:
    /// Mirror the integrator's stage fields once so the device step can
    /// keep every intermediate on the device. They are pure scratch —
    /// written before read each step — so no upload is needed.
    void ensure_device(ProblemManager& pm) {
        if (queue_ != nullptr) return;
        queue_ = &pm.device_queue();
        z0_.enable_device_mirror();
        w0_.enable_device_mirror();
        zdot_.enable_device_mirror();
        wdot_.enable_device_mirror();
    }

    template <class Exec>
    void save_state(Exec ex, ProblemManager& pm) {
        pm.ensure_device_current();
        auto z = ex.view(std::as_const(pm.position_raw()));
        auto w = ex.view(std::as_const(pm.vorticity_raw()));
        auto z0 = ex.view(z0_);
        auto w0 = ex.view(w0_);
        namespace dc = par::device::devcheck;
        ex.for_2d("rk3 stage save",
                  {dc::read(z.raw()), dc::read(w.raw()), dc::write(z0.raw()), dc::write(w0.raw())},
                  0, own_extent(0), 0, own_extent(1), [=](int i, int j) {
                      for (int c = 0; c < 3; ++c) z0(i, j, c) = z(i, j, c);
                      for (int c = 0; c < 2; ++c) w0(i, j, c) = w(i, j, c);
                  });
    }

    /// u = b*u0 + a*u + a_dt*f, evaluated pointwise on owned nodes, where
    /// u is the current state, u0 the step-start state, and f the freshly
    /// computed derivative.
    template <class Exec>
    void axpy_state(Exec ex, ProblemManager& pm, double a, double b, double a_dt) {
        auto z = ex.view(pm.position_raw());
        auto w = ex.view(pm.vorticity_raw());
        auto z0 = ex.view(std::as_const(z0_));
        auto w0 = ex.view(std::as_const(w0_));
        auto zd = ex.view(std::as_const(zdot_));
        auto wd = ex.view(std::as_const(wdot_));
        namespace dc = par::device::devcheck;
        ex.for_2d("rk3 axpy",
                  {dc::read(z0.raw()), dc::read(w0.raw()), dc::read(zd.raw()), dc::read(wd.raw()),
                   dc::write(z.raw()), dc::write(w.raw())},
                  0, own_extent(0), 0, own_extent(1), [=](int i, int j) {
                      for (int c = 0; c < 3; ++c) {
                          z(i, j, c) = b * z0(i, j, c) + a * z(i, j, c) + a_dt * zd(i, j, c);
                      }
                      for (int c = 0; c < 2; ++c) {
                          w(i, j, c) = b * w0(i, j, c) + a * w(i, j, c) + a_dt * wd(i, j, c);
                      }
                  });
        pm.mark_host_stale();
    }

    [[nodiscard]] int own_extent(int d) const { return mesh_->local().owned_extent(d); }

    const SurfaceMesh* mesh_;
    ZModel* model_;
    grid::NodeField<double, 3> z0_;
    grid::NodeField<double, 2> w0_;
    grid::NodeField<double, 3> zdot_;
    grid::NodeField<double, 2> wdot_;
    par::device::Queue* queue_ = nullptr; ///< set once the stage fields are mirrored
};

} // namespace beatnik
