/// \file reshape.hpp
/// \brief Repartitioning of a distributed array between two box lists.
///
/// This is the heart of the heFFTe substitute: like heFFTe, a reshape is
/// planned by intersecting every source box with every destination box,
/// producing per-pair transfer rectangles. Execution either goes through
/// the alltoallv collective (the `AllToAll=true` configuration, which
/// inherits the communicator's zero-copy rendezvous path for large
/// blocks) or through a persistent comm::Plan touching only overlapping
/// peers (`AllToAll=false`, heFFTe's custom p2p path): the plan is bound
/// on first execution, packs rectangles straight into pre-registered
/// channel buffers, and unpacks arrivals in completion order — no
/// per-sweep staging allocation and real send/recv overlap. A reshape can
/// carry several stacked component arrays at once: each transfer
/// rectangle then moves all components as one message (component-major
/// wire order), so a batch pays the message count of a single array.
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

/// One planned transfer rectangle between a pair of ranks.
struct Transfer {
    int peer = 0;   ///< The other rank.
    Box2D box;      ///< Global index rectangle carried by this transfer.
};

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

    /// Switch the p2p path to device staging: the persistent plan's
    /// transport buffers are pinned at bind, rectangle packs/unpacks run
    /// as kernels on \p q (so `in`/`out` must be device-accessible —
    /// pinned host ranges in practice), and each send publishes on its
    /// own pack-completion event, overlapping pack with communication.
    /// The alltoall path is unaffected (host code reads the pinned
    /// buffers directly). Safe to call after host sweeps already bound
    /// the plan: the existing binding is pinned in place.
    void enable_device(par::device::Queue& q) {
        p2p_->queue = &q;
        if (p2p_->plan.has_value()) p2p_->setup_device();
    }

    [[nodiscard]] bool device_enabled() const { return p2p_->queue != nullptr; }

    /// Execute the reshape of \p components stacked arrays at once. \p in
    /// holds the components back to back, each in \p src layout; \p out
    /// is resized and filled the same way in \p dst layout. Every
    /// transfer rectangle moves all components as one message, in
    /// component-major wire order (component 0's rectangle in canonical
    /// i-major order, then component 1's, ...), so a batched reshape costs
    /// the message count of a single one. \p use_alltoall selects the
    /// collective path vs the persistent-plan p2p path.
    void execute(comm::Communicator& comm, const Layout2D& src, std::span<const cplx> in,
                 const Layout2D& dst, std::vector<cplx>& out, bool use_alltoall,
                 int components = 1) const {
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
        if (use_alltoall) {
            execute_alltoall(comm, src, in, dst, out, n);
        } else {
            execute_p2p(comm, src, in, dst, out, n);
        }
    }

private:
    /// Append a transfer rectangle of each of the \p n components of
    /// \p in to \p buf, component-major, each in canonical (i-major)
    /// order.
    static void pack(const Layout2D& src, std::span<const cplx> in, const Box2D& box,
                     std::size_t n, std::vector<cplx>& buf) {
        for (std::size_t c = 0; c < n; ++c) {
            const cplx* comp = in.data() + c * src.size();
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    buf.push_back(comp[src.offset(i, j)]);
                }
            }
        }
    }

    /// Pack directly into caller-provided storage (the plan's transport
    /// buffer) — no staging vector. In the common j-fastest layout the
    /// wire order matches memory order, so each box row moves as one
    /// block copy.
    static void pack_into(const Layout2D& src, std::span<const cplx> in, const Box2D& box,
                          std::size_t n, cplx* out) {
        const std::size_t row = static_cast<std::size_t>(box.j.extent());
        for (std::size_t c = 0; c < n; ++c) {
            const cplx* comp = in.data() + c * src.size();
            if (src.fast_axis == 1) {
                for (int i = box.i.begin; i < box.i.end; ++i, out += row) {
                    std::copy_n(comp + src.offset(i, box.j.begin), row, out);
                }
                continue;
            }
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) *out++ = comp[src.offset(i, j)];
            }
        }
    }

    /// Inverse of pack_into: \p n components of wire-order \p buf into
    /// layout \p dst of \p out.
    static void unpack(const Layout2D& dst, std::vector<cplx>& out, const Box2D& box,
                       std::size_t n, std::span<const cplx> buf) {
        const std::size_t row = static_cast<std::size_t>(box.j.extent());
        const cplx* wire = buf.data();
        for (std::size_t c = 0; c < n; ++c) {
            cplx* comp = out.data() + c * dst.size();
            if (dst.fast_axis == 1) {
                for (int i = box.i.begin; i < box.i.end; ++i, wire += row) {
                    std::copy_n(wire, row, comp + dst.offset(i, box.j.begin));
                }
                continue;
            }
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) comp[dst.offset(i, j)] = *wire++;
            }
        }
    }

    /// The collective path: one packed send buffer, and each received
    /// block (the self block included) unpacked straight out of the
    /// transport as alltoallv_each() hands it over — no receive buffer.
    void execute_alltoall(comm::Communicator& comm, const Layout2D& src, std::span<const cplx> in,
                          const Layout2D& dst, std::vector<cplx>& out, std::size_t n) const {
        const int p = comm.size();
        std::vector<std::size_t> sendcounts(static_cast<std::size_t>(p), 0);
        std::vector<cplx> packed;
        packed.reserve(in.size());
        // sends_ is ordered by peer, matching alltoallv's block order.
        for (const auto& t : sends_) {
            sendcounts[static_cast<std::size_t>(t.peer)] = n * t.box.size();
            pack(src, in, t.box, n, packed);
        }
        std::vector<std::size_t> recvcounts;
        std::size_t consumed = 0;
        comm.alltoallv_each(
            std::span<const cplx>(packed), std::span<const std::size_t>(sendcounts), recvcounts,
            [&](int from, std::span<const cplx> block) {
                if (block.empty()) return;
                // recvs_ is ordered by peer too.
                auto t = std::lower_bound(
                    recvs_.begin(), recvs_.end(), from,
                    [](const Transfer& tr, int peer) { return tr.peer < peer; });
                BEATNIK_REQUIRE(t != recvs_.end() && t->peer == from &&
                                    block.size() == n * t->box.size(),
                                "reshape: unexpected block size from peer");
                unpack(dst, out, t->box, n, block);
                consumed += block.size();
            });
        BEATNIK_REQUIRE(consumed == out.size(), "reshape: received data not fully consumed");
    }

    void execute_p2p(comm::Communicator& comm, const Layout2D& src, std::span<const cplx> in,
                     const Layout2D& dst, std::vector<cplx>& out, std::size_t n) const {
        if (p2p_->queue != nullptr) {
            execute_p2p_device(comm, src, in, dst, out, n);
            return;
        }
        // heFFTe's custom path: only overlapping peers exchange messages,
        // through persistent pre-matched channels (see plan_cache.hpp).
        p2p_->execute(
            comm, sends_, recvs_, n,
            [&](const Box2D& box, cplx* slot) { pack_into(src, in, box, n, slot); },
            [&](const Box2D& box, std::vector<cplx>& buf) { pack(src, in, box, n, buf); },
            [&](const Box2D& box, std::span<const cplx> data) { unpack(dst, out, box, n, data); },
            "reshape: unexpected p2p block size");
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

    /// Device-kernel copy of a box of \p n components from layout \p src
    /// in \p in to the component-major wire order at \p slot: one kernel,
    /// one work item per (component, box row).
    static void device_pack_box(par::device::Queue& q, const Layout2D& src, const cplx* in,
                                const Box2D& box, std::size_t n, cplx* slot) {
        const int ib = box.i.begin;
        const int jb = box.j.begin;
        const int rowlen = box.j.extent();
        const auto rows = static_cast<std::size_t>(box.i.extent());
        const Layout2D layout = src;
        namespace dc = par::device::devcheck;
        dc::declare(q, "ReshapePlan device pack",
                    {box_region(src, in, box, n, false),
                     dc::write(slot, n * box.size() * sizeof(cplx))});
        q.parallel_for(n * rows, [=](std::size_t r) {
            const cplx* comp = in + (r / rows) * layout.size();
            const int i = ib + static_cast<int>(r % rows);
            cplx* dst = slot + r * static_cast<std::size_t>(rowlen);
            for (int j = jb; j < jb + rowlen; ++j) dst[j - jb] = comp[layout.offset(i, j)];
        });
    }

    /// Device-kernel inverse: wire order at \p data into layout \p dst.
    static void device_unpack_box(par::device::Queue& q, const Layout2D& dst, cplx* out,
                                  const Box2D& box, std::size_t n, const cplx* data) {
        const int ib = box.i.begin;
        const int jb = box.j.begin;
        const int rowlen = box.j.extent();
        const auto rows = static_cast<std::size_t>(box.i.extent());
        const Layout2D layout = dst;
        namespace dc = par::device::devcheck;
        dc::declare(q, "ReshapePlan device unpack",
                    {dc::read(data, n * box.size() * sizeof(cplx)),
                     box_region(dst, out, box, n, true)});
        q.parallel_for(n * rows, [=](std::size_t r) {
            cplx* comp = out + (r / rows) * layout.size();
            const int i = ib + static_cast<int>(r % rows);
            const cplx* s = data + r * static_cast<std::size_t>(rowlen);
            for (int j = jb; j < jb + rowlen; ++j) comp[layout.offset(i, j)] = s[j - jb];
        });
    }

    /// The device sweep: packs go straight from the (pinned) source array
    /// into the pinned plan buffers as kernels, each send publishing on
    /// its own completion event; the self rectangle is one direct
    /// in->out kernel; arrivals unpack as kernels and release on their
    /// own events. Each kernel covers all components of its rectangle.
    /// The closing fence makes `out` host-readable (the caller runs FFT
    /// butterflies on it next).
    void execute_p2p_device(comm::Communicator& comm, const Layout2D& src,
                            std::span<const cplx> in, const Layout2D& dst,
                            std::vector<cplx>& out, std::size_t n) const {
        auto& c = *p2p_;
        c.bind(comm, sends_, recvs_, n);
        par::device::Queue& q = *c.queue;
        auto& rt = par::device::Runtime::instance();
        BEATNIK_REQUIRE(rt.device_accessible(in.data(), in.size_bytes()),
                        "device reshape: source array is not device-accessible — pin it first");
        BEATNIK_REQUIRE(rt.device_accessible(out.data(), out.size() * sizeof(cplx)),
                        "device reshape: output array is not device-accessible — pin it first");
        namespace dc = par::device::devcheck;
        c.plan->start();
        c.send_keys.assign(c.send_slots.size(), nullptr);
        c.recv_keys.assign(c.recv_slots.size(), nullptr);
        for (std::size_t s = 0; s < c.send_slots.size(); ++s) {
            const auto& [slot, t] = c.send_slots[s];
            const Box2D& box = sends_[t].box;
            auto buf = c.plan->send_buffer(slot, n * box.size() * sizeof(cplx));
            c.send_keys[s] = buf.data();
            dc::channel_send_acquire(buf.data());
            device_pack_box(q, src, in.data(), box, n, reinterpret_cast<cplx*>(buf.data()));
            q.record_event_into(c.send_events[s]);
        }
        for (std::size_t s = 0; s < c.send_slots.size(); ++s) {
            c.send_events[s].wait();
            dc::channel_publish(c.send_keys[s], "ReshapePlan device publish");
            c.plan->publish(c.send_slots[s].first);
        }
        // Self rectangle: one direct device copy, no staging.
        for (const auto& t : recvs_) {
            if (t.peer != comm.rank()) continue;
            const Box2D& box = t.box;
            const int ib = box.i.begin;
            const int jb = box.j.begin;
            const int rowlen = box.j.extent();
            const auto rows = static_cast<std::size_t>(box.i.extent());
            const Layout2D lsrc = src;
            const Layout2D ldst = dst;
            const cplx* ip = in.data();
            cplx* op = out.data();
            dc::declare(q, "ReshapePlan self rectangle",
                        {box_region(lsrc, ip, box, n, false), box_region(ldst, op, box, n, true)});
            q.parallel_for(n * rows, [=](std::size_t r) {
                const std::size_t comp = r / rows;
                const cplx* from = ip + comp * lsrc.size();
                cplx* to = op + comp * ldst.size();
                const int i = ib + static_cast<int>(r % rows);
                for (int j = jb; j < jb + rowlen; ++j) {
                    to[ldst.offset(i, j)] = from[lsrc.offset(i, j)];
                }
            });
        }
        c.arrived.clear();
        for (std::size_t done = 0; done < c.recv_slots.size(); ++done) {
            int s = c.plan->wait_any_recv();
            BEATNIK_ASSERT(s >= 0);
            const Box2D& box = recvs_[c.recv_slots[static_cast<std::size_t>(s)].second].box;
            auto incoming = c.plan->recv_view_as<cplx>(s);
            BEATNIK_REQUIRE(incoming.size() == n * box.size(),
                            "reshape: unexpected p2p block size");
            c.recv_keys[static_cast<std::size_t>(s)] = incoming.data();
            dc::channel_recv_acquire(incoming.data(), "ReshapePlan device recv");
            device_unpack_box(q, dst, out.data(), box, n, incoming.data());
            q.record_event_into(c.recv_events[static_cast<std::size_t>(s)]);
            c.arrived.push_back(s);
        }
        for (int s : c.arrived) {
            c.recv_events[static_cast<std::size_t>(s)].wait();
            dc::channel_release(c.recv_keys[static_cast<std::size_t>(s)],
                                "ReshapePlan device release");
            c.plan->release_recv(s);
        }
        q.fence(); // devcheck: fenced — caller's host FFT reads `out` next
    }

    std::vector<Transfer> sends_;
    std::vector<Transfer> recvs_;
    std::size_t recv_coverage_ = 0;   ///< sum of recv rectangle sizes
    /// Execution-time p2p binding, shared by copies and touched only from
    /// the owning rank-thread (see fft/plan_cache.hpp).
    std::shared_ptr<detail::P2PPlanCache> p2p_ = std::make_shared<detail::P2PPlanCache>();
};

} // namespace beatnik::fft
