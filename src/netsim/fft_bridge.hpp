/// \file fft_bridge.hpp
/// \brief Converts minifft schedule plans into netsim phases.
///
/// The scaling benchmarks (Figs. 3, 4, 9) build *real* reshape plans for
/// any rank count with DistributedFFT2D::plan_schedule and replay them
/// here — the simulator never sees synthetic traffic, only the message
/// lists the library would actually send.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "fft/distributed_fft.hpp"
#include "netsim/simulator.hpp"

namespace beatnik::netsim {

/// Convert persistent-plan send schedules (comm::Plan::send_schedule,
/// grid::HaloPlan::send_schedule, one entry per rank's plan, concatenated)
/// into a single simulator phase. This is the executable-plan twin of the
/// static fft::plan_schedule path: a pattern that runs through a comm::Plan
/// exports exactly the message list it would send, and the machine model
/// replays it.
[[nodiscard]] inline Phase phase_from_plans(std::span<const comm::PlanMsg> msgs,
                                            std::string label,
                                            PhaseKind kind = PhaseKind::p2p) {
    Phase ph;
    ph.label = std::move(label);
    ph.kind = kind;
    ph.messages.reserve(msgs.size());
    for (const auto& m : msgs) {
        if (m.src_world == m.dst_world) continue;   // self copies cost no network
        ph.messages.push_back({m.src_world, m.dst_world, m.bytes});
    }
    return ph;
}

/// Convert one planned FFT transform (its reshape phases + per-rank FFT
/// flops) to simulator phases. \p transforms repeats the whole transform
/// (e.g. 2 for the low-order solver's batched to-spectral leg plus its
/// from-spectral leg per derivative evaluation; forward and inverse
/// schedules are mirror images with identical cost structure).
[[nodiscard]] inline std::vector<Phase> fft_phases(const std::vector<fft::PlannedPhase>& planned,
                                                   const MachineModel& machine, int nranks,
                                                   int transforms = 1) {
    // plan_schedule attaches FFT flops to the phase whose communication
    // *precedes* the compute; the simulator runs compute *before* a
    // phase's messages. Shift the compute one phase later accordingly.
    std::vector<Phase> phases;
    phases.reserve(planned.size() * static_cast<std::size_t>(transforms) + 1);
    std::vector<double> pending_compute(static_cast<std::size_t>(nranks), 0.0);
    for (int t = 0; t < transforms; ++t) {
        for (const auto& pp : planned) {
            Phase ph;
            ph.label = pp.label;
            ph.kind = pp.is_alltoall ? PhaseKind::builtin_alltoall : PhaseKind::p2p;
            ph.messages.reserve(pp.messages.size());
            for (const auto& m : pp.messages) ph.messages.push_back({m.src, m.dst, m.bytes});
            ph.compute_seconds = pending_compute;
            for (int r = 0; r < nranks; ++r) {
                pending_compute[static_cast<std::size_t>(r)] =
                    pp.flops_per_rank[static_cast<std::size_t>(r)] / machine.flops_rate;
            }
            phases.push_back(std::move(ph));
        }
    }
    // Trailing compute (zero for a full brick->brick transform, nonzero if
    // the last planned phase carried work).
    Phase tail;
    tail.label = "tail-compute";
    tail.compute_seconds = std::move(pending_compute);
    phases.push_back(std::move(tail));
    return phases;
}

} // namespace beatnik::netsim
