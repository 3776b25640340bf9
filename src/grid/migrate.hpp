/// \file migrate.hpp
/// \brief Particle migration between arbitrary decompositions.
///
/// The Cabana `migrate` analogue and the communication core of the
/// paper's CutoffBRSolver: every derivative evaluation moves each surface
/// node from its 2D mesh-index owner to its 3D position-based owner and
/// back (paper §3.2). The pattern is an all-to-all keyed by a per-particle
/// destination rank.
///
/// MigratePlan is the one migrate path: built once per recurring
/// migration (one persistent channel per peer pair), execute() packs
/// particles straight into the transport buffers and receives counts
/// implicitly from the arriving message sizes — no count pre-exchange, no
/// staging copy, and steady-state zero allocation on the communication
/// path (channel buffers grow once to the high-water mark; only
/// execute()'s result vector is allocated per call, and execute_into()
/// avoids even that). A ghost distribution that sends one particle to
/// several ranks lists the particle once per destination.
#pragma once

#include <span>
#include <vector>

#include "comm/plan.hpp"
#include "par/device/device.hpp"

namespace beatnik::grid {

/// Persistent migration plan over all peers of a communicator.
///
/// Build collectively (every rank constructs the plan in the same order —
/// the tag is drawn from the communicator's plan sequence). One plan
/// serves any particle type P and any per-call destination distribution;
/// reuse it for the same recurring pattern rather than rebuilding.
template <class P>
class MigratePlan {
public:
    static_assert(std::is_trivially_copyable_v<P>,
                  "migrated particles must be trivially copyable");
    static_assert(alignof(P) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "channel buffers only guarantee default new alignment");

    explicit MigratePlan(comm::Communicator& comm) : comm_(&comm) {
        const int p = comm.size();
        const int tag = comm.new_plan_tag();
        auto b = comm::Plan::builder(comm);
        slots_.resize(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            if (r == comm.rank()) continue;
            // Initial capacity 0: channels grow to the high-water mark of
            // actual traffic on first use and stay there.
            slots_[static_cast<std::size_t>(r)].send = b.add_send(r, tag, 0);
            slots_[static_cast<std::size_t>(r)].recv = b.add_recv(r, tag, 0);
            recv_peer_.push_back(r);
        }
        if (p > 1) plan_ = b.build();
        sendcounts_.resize(static_cast<std::size_t>(p));
        cursors_.resize(static_cast<std::size_t>(p));
    }

    /// Exchange particles so each lands on its destination rank. Returns
    /// the particles received by this rank, grouped by source rank in
    /// ascending order (self-owned particles included). Allocates the
    /// result vector each call — steady-state loops that keep persistent
    /// receive staging should use execute_into().
    [[nodiscard]] std::vector<P> execute(std::span<const P> particles,
                                         std::span<const int> destinations) {
        std::vector<P> result;
        execute_into(particles, destinations, [&result](std::size_t total) {
            result.resize(total);
            return result.data();
        });
        return result;
    }

    /// Allocation-free variant of execute(): once the received total is
    /// known, \p get_out(total) must return a P* with room for \p total
    /// elements (callers hand out persistent grow-only staging, e.g. a
    /// PinnedStore the device pipeline's kernels then read in place).
    /// Returns the received count; layout is identical to execute().
    template <class GetOut>
    std::size_t execute_into(std::span<const P> particles, std::span<const int> destinations,
                             GetOut&& get_out) {
        BEATNIK_REQUIRE(particles.size() == destinations.size(),
                        "migrate: one destination per particle required");
        const int p = comm_->size();
        const int rank = comm_->rank();
        if (p == 1) {
            P* out = get_out(particles.size());
            std::copy(particles.begin(), particles.end(), out);
            return particles.size();
        }

        std::fill(sendcounts_.begin(), sendcounts_.end(), std::size_t{0});
        for (int dst : destinations) {
            BEATNIK_REQUIRE(dst >= 0 && dst < p, "migrate: destination rank out of range");
            ++sendcounts_[static_cast<std::size_t>(dst)];
        }

        // Acquire every transport buffer, then pack all particles in one
        // pass, writing each straight into its destination slot.
        namespace dc = par::device::devcheck;
        plan_.start();
        self_buf_.clear();
        self_buf_.reserve(sendcounts_[static_cast<std::size_t>(rank)]);
        chan_keys_.assign(static_cast<std::size_t>(p), nullptr);
        for (int r = 0; r < p; ++r) {
            if (r == rank) continue;
            auto buf = plan_.send_buffer(slots_[static_cast<std::size_t>(r)].send,
                                         sendcounts_[static_cast<std::size_t>(r)] * sizeof(P));
            chan_keys_[static_cast<std::size_t>(r)] = buf.data();
            dc::channel_send_acquire(buf.data());
            cursors_[static_cast<std::size_t>(r)] = reinterpret_cast<P*>(buf.data());
        }
        for (std::size_t k = 0; k < particles.size(); ++k) {
            const int dst = destinations[k];
            if (dst == rank) {
                self_buf_.push_back(particles[k]);
            } else {
                *cursors_[static_cast<std::size_t>(dst)]++ = particles[k];
            }
        }
        for (int r = 0; r < p; ++r) {
            if (r == rank) continue;
            dc::channel_publish(chan_keys_[static_cast<std::size_t>(r)],
                                "MigratePlan host publish");
            plan_.publish(slots_[static_cast<std::size_t>(r)].send);
        }

        // Drain every arrival (sizes are implicit in the messages), then
        // assemble grouped by source rank ascending.
        plan_.wait();
        std::size_t total = self_buf_.size();
        for (int r : recv_peer_) {
            total += plan_.recv_view(slots_[static_cast<std::size_t>(r)].recv).size() / sizeof(P);
        }
        P* out = get_out(total);
        for (int r = 0; r < p; ++r) {
            if (r == rank) {
                out = std::copy(self_buf_.begin(), self_buf_.end(), out);
            } else {
                auto in = plan_.recv_view_as<P>(slots_[static_cast<std::size_t>(r)].recv);
                dc::channel_recv_acquire(in.data(), "MigratePlan host recv");
                out = std::copy(in.begin(), in.end(), out);
                dc::channel_release(in.data(), "MigratePlan host release");
                plan_.release_recv(slots_[static_cast<std::size_t>(r)].recv);
            }
        }
        return total;
    }

    /// Device-resident variant: \p particles live on the device; a device
    /// kernel scatters them straight into the plan's transport buffers
    /// (registered for the iteration — migration buffers grow to the
    /// high-water mark, so they are pinned per call, unlike the fixed
    /// halo buffers), and arrivals are unpacked by device kernels into
    /// \p out, grouped by source rank ascending with byte-identical
    /// layout to the host execute(). Destination ranks stay on the host
    /// (they are computed from host-side ownership logic); the particle
    /// payload itself never takes a host round-trip. Returns the received
    /// particle count; \p out grows as needed (grow-only).
    std::size_t execute_device(par::device::Queue& q,
                               par::device::DeviceView<const P> particles,
                               std::span<const int> destinations,
                               par::device::DeviceBuffer<P>& out) {
        BEATNIK_REQUIRE(particles.size() == destinations.size(),
                        "migrate: one destination per particle required");
        const int p = comm_->size();
        const int rank = comm_->rank();
        if (p == 1) {
            if (out.size() < particles.size()) out = par::device::DeviceBuffer<P>(particles.size());
            par::device::deep_copy(q, out.view().subview(0, particles.size()), particles);
            q.fence(); // devcheck: fenced — single-rank result is consumed immediately
            return particles.size();
        }

        // Host pass: counts and a deterministic slot per particle (its
        // rank within its destination block, in input order) so the
        // scatter kernel needs no atomics and reproduces the host pack's
        // byte layout exactly.
        std::fill(sendcounts_.begin(), sendcounts_.end(), std::size_t{0});
        slot_of_.resize(destinations.size());
        for (std::size_t k = 0; k < destinations.size(); ++k) {
            const int dst = destinations[k];
            BEATNIK_REQUIRE(dst >= 0 && dst < p, "migrate: destination rank out of range");
            slot_of_[k] = sendcounts_[static_cast<std::size_t>(dst)]++;
        }

        namespace dc = par::device::devcheck;
        plan_.start();
        pinned_.clear();
        std::fill(cursors_.begin(), cursors_.end(), nullptr);
        chan_keys_.assign(static_cast<std::size_t>(p), nullptr);
        dc_regions_.clear();
        dc_regions_.push_back(dc::read(particles.data(), particles.size() * sizeof(P)));
        for (int r = 0; r < p; ++r) {
            if (r == rank) continue;
            auto buf = plan_.send_buffer(slots_[static_cast<std::size_t>(r)].send,
                                         sendcounts_[static_cast<std::size_t>(r)] * sizeof(P));
            chan_keys_[static_cast<std::size_t>(r)] = buf.data();
            dc::channel_send_acquire(buf.data());
            pinned_.emplace_back(std::span<const std::byte>(buf.data(), buf.size()));
            cursors_[static_cast<std::size_t>(r)] = reinterpret_cast<P*>(buf.data());
            dc_regions_.push_back(dc::write(buf.data(), buf.size()));
        }
        {
            const P* src = particles.data();
            const int* dest = destinations.data();
            const std::size_t* slot = slot_of_.data();
            P* const* cur = cursors_.data();
            dc::declare(q, "MigratePlan scatter", dc_regions_);
            q.parallel_for(particles.size(), [src, dest, slot, cur, rank](std::size_t k) {
                const int dst = dest[k];
                if (dst != rank) cur[dst][slot[k]] = src[k];
            });
        }
        q.fence(); // devcheck: fenced — scatter must land before publish
        for (int r = 0; r < p; ++r) {
            if (r == rank) continue;
            dc::channel_publish(chan_keys_[static_cast<std::size_t>(r)],
                                "MigratePlan device publish");
            plan_.publish(slots_[static_cast<std::size_t>(r)].send);
        }

        // Drain arrivals, size the output, then unpack with device
        // kernels: peers' blocks stream from the pinned recv buffers,
        // the self block gathers device -> device through its slot map.
        plan_.wait();
        const std::size_t self_count = sendcounts_[static_cast<std::size_t>(rank)];
        std::size_t total = self_count;
        for (int r : recv_peer_) {
            total += plan_.recv_view(slots_[static_cast<std::size_t>(r)].recv).size() / sizeof(P);
        }
        if (out.size() < total) out = par::device::DeviceBuffer<P>(total);
        std::size_t off = 0;
        for (int r = 0; r < p; ++r) {
            if (r == rank) {
                const P* src = particles.data();
                const int* dest = destinations.data();
                const std::size_t* slot = slot_of_.data();
                P* dst = out.view().data() + off;
                dc::declare(q, "MigratePlan self-gather",
                            {dc::read(src, particles.size() * sizeof(P)),
                             dc::write(dst, self_count * sizeof(P))});
                q.parallel_for(particles.size(), [src, dest, slot, dst, rank](std::size_t k) {
                    if (dest[k] == rank) dst[slot[k]] = src[k];
                });
                off += self_count;
            } else {
                auto in = plan_.recv_view_as<P>(slots_[static_cast<std::size_t>(r)].recv);
                chan_keys_[static_cast<std::size_t>(r)] = in.data();
                dc::channel_recv_acquire(in.data(), "MigratePlan device recv");
                pinned_.emplace_back(std::span<const std::byte>(
                    reinterpret_cast<const std::byte*>(in.data()), in.size_bytes()));
                q.copy_bytes(out.view().data() + off, in.data(), in.size_bytes());
                off += in.size();
            }
        }
        q.fence(); // devcheck: fenced — unpack copies must retire before unpin
        // Unregister before releasing the slots: a released peer may
        // immediately re-pin the same (reused) channel buffer with a
        // different message size, which the registry rejects while our
        // old registration is still live.
        pinned_.clear();
        for (int r : recv_peer_) {
            dc::channel_release(chan_keys_[static_cast<std::size_t>(r)],
                                "MigratePlan device release");
            plan_.release_recv(slots_[static_cast<std::size_t>(r)].recv);
        }
        return total;
    }

private:
    struct PeerSlots {
        int send = -1;
        int recv = -1;
    };

    comm::Communicator* comm_;
    comm::Plan plan_;
    std::vector<PeerSlots> slots_;
    std::vector<int> recv_peer_;
    std::vector<std::size_t> sendcounts_;
    std::vector<P*> cursors_;
    std::vector<P> self_buf_;
    std::vector<std::size_t> slot_of_;                       ///< device path scratch
    std::vector<par::device::ScopedHostRegistration> pinned_;
    /// devcheck scratch (capacity reused): per-rank channel keys captured
    /// at acquire time, and the scatter kernel's per-peer footprint.
    std::vector<const void*> chan_keys_;
    std::vector<par::device::devcheck::Region> dc_regions_;
};

} // namespace beatnik::grid
