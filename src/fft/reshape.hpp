/// \file reshape.hpp
/// \brief Repartitioning of a distributed array between two box lists.
///
/// This is the heart of the heFFTe substitute: like heFFTe, a reshape is
/// planned by intersecting every source box with every destination box,
/// producing per-pair transfer rectangles. Execution runs on persistent
/// comm::Plan channels (fft/plan_cache.hpp) for both values of the
/// AllToAll knob: the p2p path (`AllToAll=false`, heFFTe's custom path)
/// exchanges with overlapping peers only, the alltoall path
/// (`AllToAll=true`) with every peer, empty blocks included, in pairwise
/// order. Rectangles pack straight into the pre-registered channel
/// buffers and unpack in completion order — no per-sweep staging
/// allocation, no collective and real send/recv overlap. A reshape can
/// carry several stacked component arrays at once: each transfer
/// rectangle then moves all components as one message (component-major
/// wire order), so a batch pays the message count of a single array.
///
/// DistributedFFT2D holds four of these: brick -> stage 1 -> stage 2 for
/// to_spectral() and the reverse route for from_spectral(), run as the
/// four slot sets of one shared plan. They are the transform's only
/// communication. A standalone execute() runs on a one-set plan of the
/// reshape's own.
///
/// The plan itself is communication-free and can be built for any rank
/// count — the scaling benchmarks build P=1024 plans and feed their
/// message schedules straight into the netsim performance model.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "fft/layout.hpp"
#include "fft/plan_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik::fft {

/// A planned repartition from layout list A to layout list B over P ranks.
class ReshapePlan {
public:
    /// Plan the reshape for one rank. Box lists must tile the same global
    /// space (checked in debug builds via total element count).
    ReshapePlan(int rank, const std::vector<Box2D>& src_boxes,
                const std::vector<Box2D>& dst_boxes) {
        const int p = static_cast<int>(src_boxes.size());
        BEATNIK_REQUIRE(dst_boxes.size() == src_boxes.size(),
                        "reshape: box lists must have one box per rank");
        BEATNIK_REQUIRE(rank >= 0 && rank < p, "reshape: rank out of range");
        const Box2D& mine_src = src_boxes[static_cast<std::size_t>(rank)];
        const Box2D& mine_dst = dst_boxes[static_cast<std::size_t>(rank)];
        for (int r = 0; r < p; ++r) {
            Box2D out = mine_src.intersect(dst_boxes[static_cast<std::size_t>(r)]);
            if (!out.empty()) sends_.push_back({r, out});
            Box2D in = mine_dst.intersect(src_boxes[static_cast<std::size_t>(r)]);
            if (!in.empty()) {
                recv_coverage_ += in.size();
                recvs_.push_back({r, in});
            }
        }
    }

    [[nodiscard]] const std::vector<Transfer>& sends() const { return sends_; }
    [[nodiscard]] const std::vector<Transfer>& recvs() const { return recvs_; }

    /// Switch this reshape's standalone execute() to device staging: the
    /// plan's transport buffers are pinned at bind, rectangle
    /// packs/unpacks run as kernels on \p q (so `in`/`out` must be
    /// device-accessible — pinned host ranges in practice), and each send
    /// publishes on its own pack-completion event, overlapping pack with
    /// communication. Safe to call after host sweeps already bound the
    /// plan: the existing binding is pinned in place.
    void enable_device(par::device::Queue& q) { own().enable_device(q); }

    [[nodiscard]] bool device_enabled() const { return own_ != nullptr && own_->queue != nullptr; }

    /// Execute the reshape of \p components stacked arrays at once. \p in
    /// holds the components back to back, each in \p src layout; \p out
    /// is resized and filled the same way in \p dst layout. Every
    /// transfer rectangle moves all components as one message, in
    /// component-major wire order (component 0's rectangle in canonical
    /// i-major order, then component 1's, ...), so a batched reshape costs
    /// the message count of a single one. \p use_alltoall selects the
    /// alltoall semantics (every peer, pairwise) vs the p2p ones
    /// (overlapping peers). Runs on a one-set plan of this reshape's own.
    void execute(comm::Communicator& comm, const Layout2D& src, std::span<const cplx> in,
                 const Layout2D& dst, std::vector<cplx>& out, bool use_alltoall,
                 int components = 1) const {
        execute(own(), 0, comm, src, in, dst, out, use_alltoall, components);
    }

    /// Execute as slot set \p set of \p channels, which registered this
    /// reshape's transfer lists under that index (ReshapeChannels::add).
    void execute(detail::ReshapeChannels& channels, int set, comm::Communicator& comm,
                 const Layout2D& src, std::span<const cplx> in, const Layout2D& dst,
                 std::vector<cplx>& out, bool use_alltoall, int components) const {
        telemetry::Scope span("fft.reshape", in.size_bytes(), use_alltoall ? 1 : 0);
        BEATNIK_REQUIRE(components >= 1, "reshape: component count must be positive");
        const auto n = static_cast<std::size_t>(components);
        BEATNIK_REQUIRE(in.size() == n * src.size(), "reshape: input size mismatch");
        // Every element of the output is written exactly once by a recv
        // rectangle (the recv boxes are disjoint and cover the destination
        // box — checked below), so no zero-fill pass is needed: resize
        // without assign, and reused buffers skip even the one-time fill.
        BEATNIK_ASSERT(recv_coverage_ == dst.size(),
                       "reshape: recv boxes do not cover the destination layout");
        out.resize(n * dst.size());
        channels.bind(comm, n, use_alltoall);
        sweep(channels, set, comm.rank(), src, in.data(), dst, out.data(), n);
    }

private:
    /// A rectangle in a transport slot: each component's rectangle in
    /// canonical (i-major) order, component after component — the
    /// j-fastest layout of the rectangle itself.
    static Layout2D wire(const Box2D& box) { return {box, 1}; }

    /// Copy \p box of each of the \p n components stacked in layout
    /// \p fl at \p from to layout \p tl at \p to. Packs (to a wire()
    /// layout), unpacks (from one) and the self rectangle are all this
    /// copy; between j-fastest layouts each box row moves as one block.
    static void copy_box(const Layout2D& fl, const cplx* from, const Layout2D& tl, cplx* to,
                         const Box2D& box, std::size_t n) {
        const auto row = static_cast<std::size_t>(box.j.extent());
        for (std::size_t c = 0; c < n; ++c, from += fl.size(), to += tl.size()) {
            for (int i = box.i.begin; i < box.i.end; ++i) {
                if (fl.fast_axis == 1 && tl.fast_axis == 1) {
                    std::copy_n(from + fl.offset(i, box.j.begin), row,
                                to + tl.offset(i, box.j.begin));
                    continue;
                }
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    to[tl.offset(i, j)] = from[fl.offset(i, j)];
                }
            }
        }
    }

    /// devcheck footprint of \p box across \p n components of layout
    /// \p l stacked at \p base: the bounding byte range (offset() is
    /// monotone in both indices).
    static par::device::devcheck::Region box_region(const Layout2D& l, const cplx* base,
                                                    const Box2D& box, std::size_t n,
                                                    bool is_write) {
        if (box.size() == 0) return {nullptr, 0, is_write};
        const std::size_t first = l.offset(box.i.begin, box.j.begin);
        const std::size_t last = (n - 1) * l.size() + l.offset(box.i.end - 1, box.j.end - 1);
        return {base + first, (last - first + 1) * sizeof(cplx), is_write};
    }

    /// copy_box() on the host, or as one kernel on \p q (one work item
    /// per component and box row) when device staging is on.
    static void copy(par::device::Queue* q, const Layout2D& fl, const cplx* from,
                     const Layout2D& tl, cplx* to, const Box2D& box, std::size_t n) {
        if (q == nullptr) {
            copy_box(fl, from, tl, to, box, n);
            return;
        }
        par::device::devcheck::declare(
            *q, "ReshapePlan copy",
            {box_region(fl, from, box, n, false), box_region(tl, to, box, n, true)});
        const auto rows = static_cast<std::size_t>(box.i.extent());
        q->parallel_for(n * rows, [=](std::size_t r) {
            const Box2D line{{box.i.begin + static_cast<int>(r % rows),
                              box.i.begin + static_cast<int>(r % rows) + 1},
                             box.j};
            copy_box(fl, from + (r / rows) * fl.size(), tl, to + (r / rows) * tl.size(), line,
                     1);
        });
    }

    /// One sweep of slot set \p set: pack each off-rank rectangle straight
    /// into its slot and publish it (an empty block publishes zero bytes),
    /// copy the self rectangle directly, then unpack arrivals in
    /// completion order, releasing each slot as soon as it is consumed.
    /// Under device staging the copies are kernels: each send publishes
    /// on its own pack-completion event, each arrival releases on its own
    /// unpack event, and the closing fence makes `out` host-readable (the
    /// caller runs FFT butterflies on it next).
    void sweep(detail::ReshapeChannels& c, int set, int rank, const Layout2D& src,
               const cplx* in, const Layout2D& dst, cplx* out, std::size_t n) const {
        namespace dc = par::device::devcheck;
        par::device::Queue* q = c.queue;
        if (q != nullptr) {   // the runtime exists only under device staging
            auto& rt = par::device::Runtime::instance();
            BEATNIK_REQUIRE(rt.device_accessible(in, n * src.size() * sizeof(cplx)),
                            "device reshape: source array is not pinned — pin it first");
            BEATNIK_REQUIRE(rt.device_accessible(out, n * dst.size() * sizeof(cplx)),
                            "device reshape: output array is not pinned — pin it first");
        }
        const auto k = static_cast<std::size_t>(set);
        c.plan->start(set);
        for (const auto& [slot, t] : c.send_order[k]) {
            const auto i = static_cast<std::size_t>(slot);
            const Box2D* box = t < 0 ? nullptr : &sends_[static_cast<std::size_t>(t)].box;
            const std::size_t elems = box == nullptr ? 0 : n * box->size();
            auto buf = c.plan->send_buffer(slot, elems * sizeof(cplx));
            if (box != nullptr) {
                c.send_keys[i] = buf.data();
                dc::channel_send_acquire(buf.data());
                copy(q, src, in, wire(*box), reinterpret_cast<cplx*>(buf.data()), *box, n);
                if (q != nullptr) {
                    q->record_event_into(c.send_events[i]);
                    continue;
                }
                dc::channel_publish(buf.data(), "ReshapePlan publish");
            }
            if (q == nullptr) c.plan->publish(slot);
        }
        if (q != nullptr) {
            for (const auto& [slot, t] : c.send_order[k]) {
                const auto i = static_cast<std::size_t>(slot);
                if (t >= 0) {
                    c.send_events[i].wait();
                    dc::channel_publish(c.send_keys[i], "ReshapePlan publish");
                }
                c.plan->publish(slot);
            }
        }
        // The self rectangle never leaves the rank.
        for (const auto& t : recvs_) {
            if (t.peer == rank) copy(q, src, in, dst, out, t.box, n);
        }
        c.arrived.clear();
        for (int s; (s = c.plan->wait_any_recv()) != -1;) {
            const auto i = static_cast<std::size_t>(s);
            auto incoming = c.plan->recv_view_as<cplx>(s);
            const int t = c.recv_transfer[k][i];
            const Box2D* box = t < 0 ? nullptr : &recvs_[static_cast<std::size_t>(t)].box;
            BEATNIK_REQUIRE(incoming.size() == (box == nullptr ? 0 : n * box->size()),
                            "reshape: unexpected block size from peer");
            if (box != nullptr) {
                c.recv_keys[i] = incoming.data();
                dc::channel_recv_acquire(incoming.data(), "ReshapePlan recv");
                copy(q, wire(*box), incoming.data(), dst, out, *box, n);
                if (q != nullptr) {
                    q->record_event_into(c.recv_events[i]);
                    c.arrived.push_back(s);
                    continue;
                }
                dc::channel_release(incoming.data(), "ReshapePlan release");
            }
            c.plan->release_recv(s);
        }
        if (q == nullptr) return;
        for (int s : c.arrived) {
            c.recv_events[static_cast<std::size_t>(s)].wait();
            dc::channel_release(c.recv_keys[static_cast<std::size_t>(s)], "ReshapePlan release");
            c.plan->release_recv(s);
        }
        q->fence(); // devcheck: fenced — caller's host FFT reads `out` next
    }

    /// The one-set channels of a standalone execute(), made on first use.
    detail::ReshapeChannels& own() const {
        if (own_ == nullptr) {
            own_ = std::make_unique<detail::ReshapeChannels>();
            own_->add(sends_, recvs_);
        }
        return *own_;
    }

    std::vector<Transfer> sends_;
    std::vector<Transfer> recvs_;
    std::size_t recv_coverage_ = 0;   ///< sum of recv rectangle sizes
    mutable std::unique_ptr<detail::ReshapeChannels> own_;
};

} // namespace beatnik::fft
