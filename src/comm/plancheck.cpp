/// \file plancheck.cpp
/// \brief Static schedule matching and wait-for-graph knot detection for
/// the plan verifier (see plancheck.hpp for the model).
#include "comm/plancheck.hpp"

#include <cstdlib>
#include <limits>

#include "comm/types.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik::comm::plancheck {

namespace detail_pc {

int init_from_env() noexcept {
    const char* e = std::getenv("BEATNIK_PLANCHECK");
    const int on = (e != nullptr && e[0] == '1' && e[1] == '\0') ? 1 : 0;
    int expected = -1;
    // First caller wins; a racing arm()/disarm() already stored a value.
    g_state.compare_exchange_strong(expected, on, std::memory_order_relaxed);
    return g_state.load(std::memory_order_relaxed);
}

} // namespace detail_pc

namespace {

[[nodiscard]] const char* band_name(int tag) {
    if (tag < tags::user_limit) return "unused";
    if (tag >= tags::halo_base && tag < tags::halo_limit) return "plan-halo";
    if (tag >= tags::plan_seq_base && tag < tags::plan_limit) return "plan-seq";
    return "collective";
}

[[nodiscard]] std::string channel_str(const ChannelKey& key) {
    return "comm " + std::to_string(key.comm_id) + ", world " +
           std::to_string(key.src_world) + " -> world " + std::to_string(key.dst_world) +
           ", tag " + std::to_string(key.tag) + " (" + band_name(key.tag) + " band)";
}

[[nodiscard]] std::string slot_str(const SlotDecl& s, bool is_send, int self_world) {
    const int src = is_send ? self_world : s.peer_world;
    const int dst = is_send ? s.peer_world : self_world;
    return std::string(is_send ? "send" : "recv") + " slot world " + std::to_string(src) +
           " -> world " + std::to_string(dst) + ", tag " + std::to_string(s.tag) + " (" +
           band_name(s.tag) + " band), max " + std::to_string(s.max_bytes) + " bytes";
}

[[nodiscard]] const char* kind_str(WaitKind k) {
    switch (k) {
    case WaitKind::recv: return "plan recv";
    case WaitKind::send: return "publish rendezvous";
    case WaitKind::barrier: return "barrier round";
    }
    return "wait";
}

} // namespace

ContextState::ContextState(int world_size) : active_(enabled()) {
    blocked_.resize(static_cast<std::size_t>(world_size < 1 ? 1 : world_size));
    knot_.reserve(blocked_.size());
    // block() copies a wait's edges into the rank's reused vector. Size it
    // now (one edge per peer covers barriers and one-slot-per-peer plans)
    // so the first blocked wait of a steady-state loop does not allocate.
    if (active_) {
        for (Blocked& b : blocked_) b.edges.reserve(blocked_.size());
    }
}

void ContextState::report_locked(const std::string& msg) {
    detail_pc::g_hazards.fetch_add(1, std::memory_order_relaxed);
    throw CommError("plancheck: " + msg);
}

void ContextState::register_plan(PlanDecl decl, std::uint64_t& out_id) {
    std::lock_guard lock(mutex_);
    if (!active_) return;

    // A plan's OR-wait registers one edge per idle recv slot, and a plan
    // can hold more slots than there are ranks (a periodic halo's eight
    // directions on four ranks): grow the reserve at build, not in a wait.
    if (decl.self_world >= 0 && static_cast<std::size_t>(decl.self_world) < blocked_.size()) {
        blocked_[static_cast<std::size_t>(decl.self_world)].edges.reserve(decl.recvs.size());
    }

    // Immediate per-slot checks first — they need no other rank's plan.
    auto check_slot = [&](const SlotDecl& s, bool is_send) {
        if (s.max_bytes > s.capacity) {
            report_locked(
                slot_str(s, is_send, decl.self_world) + " declared by comm rank " +
                std::to_string(decl.comm_rank) + " (built at " + decl.site +
                ") exceeds the " + std::to_string(s.capacity) +
                "-byte capacity the '" + s.transport +
                "' transport bound the channel at — cross-process buffers cannot grow "
                "under a peer's feet; register every endpoint of the channel with the "
                "same (largest) max_bytes");
        }
        if (s.tag >= tags::plan_seq_base && s.tag < tags::plan_limit &&
            s.tag - tags::plan_seq_base >= decl.seq_tags_used) {
            report_locked(
                slot_str(s, is_send, decl.self_world) + " declared by comm rank " +
                std::to_string(decl.comm_rank) + " (built at " + decl.site +
                ") uses a sequence-band tag this communicator never allocated — plan "
                "tags must come from new_plan_tag() so every rank draws them in "
                "lockstep");
        }
    };
    for (const auto& s : decl.sends) check_slot(s, true);
    for (const auto& s : decl.recvs) check_slot(s, false);

    // Duplicate (comm, src, dst, tag) collisions across live plans: the
    // channels are single-slot, so two live plans driving the same key
    // corrupt each other's rendezvous.
    auto check_dup = [&](const std::map<ChannelKey, LiveRef>& live, const ChannelKey& key,
                         const SlotDecl& s, bool is_send) {
        auto it = live.find(key);
        if (it == live.end()) return;
        const PlanRec& other = plans_.at(it->second.plan);
        report_locked(
            slot_str(s, is_send, decl.self_world) + " declared by comm rank " +
            std::to_string(decl.comm_rank) + " (built at " + decl.site +
            ") collides with slot " + std::to_string(it->second.slot) +
            " of the live plan built at " + other.decl.site + " by comm rank " +
            std::to_string(other.decl.comm_rank) +
            " — single-slot channels admit one live plan per endpoint; destroy the "
            "previous plan first or draw a fresh tag");
    };
    for (std::size_t i = 0; i < decl.sends.size(); ++i) {
        const auto& s = decl.sends[i];
        check_dup(live_sends_, {decl.comm_id, decl.self_world, s.peer_world, s.tag}, s, true);
    }
    for (std::size_t i = 0; i < decl.recvs.size(); ++i) {
        const auto& s = decl.recvs[i];
        check_dup(live_recvs_, {decl.comm_id, s.peer_world, decl.self_world, s.tag}, s, false);
    }

    const std::uint64_t id = next_id_++;
    const std::uint64_t index = build_counts_[{decl.comm_id, decl.comm_rank}]++;
    const int comm_id = decl.comm_id;
    const int comm_size = decl.comm_size;
    const int self_world = decl.self_world;
    auto& rec = plans_.emplace(id, PlanRec{std::move(decl), true}).first->second;
    for (std::size_t i = 0; i < rec.decl.sends.size(); ++i) {
        const auto& s = rec.decl.sends[i];
        live_sends_[{comm_id, self_world, s.peer_world, s.tag}] = {id, static_cast<int>(i)};
    }
    for (std::size_t i = 0; i < rec.decl.recvs.size(); ++i) {
        const auto& s = rec.decl.recvs[i];
        live_recvs_[{comm_id, s.peer_world, self_world, s.tag}] = {id, static_cast<int>(i)};
    }
    out_id = id;   // set before group verification: a throw below must stay unregisterable

    Group& g = groups_[{comm_id, index}];
    g.by_rank[rec.decl.comm_rank] = id;
    // Plans are built collectively in a uniform order per communicator
    // (the same contract new_plan_tag's lockstep draw relies on), so the
    // k-th build of every rank describes one logical schedule. Ranks
    // hosted in other processes never register here — their groups stay
    // incomplete and are (correctly) never matched.
    if (static_cast<int>(g.by_rank.size()) == comm_size && !g.verified) {
        g.verified = true;
        verify_group_locked(g);
    }
}

void ContextState::verify_group_locked(const Group& g) {
    // Global slot matching over the completed build group: every send key
    // must pair with exactly one recv key and vice versa.
    struct Side {
        const PlanRec* rec = nullptr;
        const SlotDecl* slot = nullptr;
        int sends = 0;
        int recvs = 0;
    };
    std::map<ChannelKey, Side> chans;
    for (const auto& [rank, id] : g.by_rank) {
        const PlanRec& rec = plans_.at(id);
        for (const auto& s : rec.decl.sends) {
            auto& side = chans[{rec.decl.comm_id, rec.decl.self_world, s.peer_world, s.tag}];
            ++side.sends;
            side.rec = &rec;
            side.slot = &s;
        }
        for (const auto& s : rec.decl.recvs) {
            auto& side = chans[{rec.decl.comm_id, s.peer_world, rec.decl.self_world, s.tag}];
            ++side.recvs;
            if (side.rec == nullptr) {
                side.rec = &rec;
                side.slot = &s;
            }
        }
    }
    for (const auto& [key, side] : chans) {
        if (side.sends == side.recvs) continue;
        const bool orphan_send = side.sends > side.recvs;
        report_locked(
            std::string("orphan ") + (orphan_send ? "send" : "recv") + " slot: " +
            channel_str(key) + " is declared by the plan built at " + side.rec->decl.site +
            " by comm rank " + std::to_string(side.rec->decl.comm_rank) + ", but no rank's "
            "plan in this build group declares the matching " +
            (orphan_send ? "recv" : "send") + " slot (" + std::to_string(side.sends) +
            " send(s) vs " + std::to_string(side.recvs) + " recv(s)) — the " +
            (orphan_send ? "publish" : "wait") + " could only end at the recv timeout");
    }
}

void ContextState::unregister_plan(std::uint64_t id) noexcept {
    try {
        std::lock_guard lock(mutex_);
        auto it = plans_.find(id);
        if (it == plans_.end()) return;
        PlanRec& rec = it->second;
        rec.live = false;
        const auto& d = rec.decl;
        for (std::size_t i = 0; i < d.sends.size(); ++i) {
            const ChannelKey key{d.comm_id, d.self_world, d.sends[i].peer_world, d.sends[i].tag};
            auto lit = live_sends_.find(key);
            if (lit != live_sends_.end() && lit->second.plan == id) live_sends_.erase(lit);
        }
        for (std::size_t i = 0; i < d.recvs.size(); ++i) {
            const ChannelKey key{d.comm_id, d.recvs[i].peer_world, d.self_world, d.recvs[i].tag};
            auto lit = live_recvs_.find(key);
            if (lit != live_recvs_.end() && lit->second.plan == id) live_recvs_.erase(lit);
        }
    } catch (...) {
        // Unregistration runs on noexcept teardown paths; losing the
        // bookkeeping under OOM is strictly better than terminating.
    }
}

void ContextState::note_published(const ChannelKey& key) {
    std::lock_guard lock(mutex_);
    if (!active_) return;
    Flow& f = flows_[key];
    // A slot can only be legally re-published after the receiver released
    // the previous message (acquire_send blocks on EMPTY). The counters
    // are complete exactly when a live local recv slot is attached, so the
    // check is scoped to that case — remote (cross-process) receivers
    // release without a local note.
    auto lit = live_recvs_.find(key);
    if (lit != live_recvs_.end() && f.published > f.released) {
        const PlanRec& rec = plans_.at(lit->second.plan);
        report_locked(
            "double publish on " + channel_str(key) + ": the previous message has not "
            "been released by recv slot " + std::to_string(lit->second.slot) +
            " of the plan built at " + rec.decl.site + " — publish() without a fresh "
            "send_buffer() acquire would overwrite an in-flight message");
    }
    ++f.published;
}

void ContextState::note_consumed(const ChannelKey& key) noexcept {
    try {
        std::lock_guard lock(mutex_);
        if (!active_) return;
        ++flows_[key].consumed;
    } catch (...) {
    }
}

void ContextState::note_released(const ChannelKey& key) noexcept {
    try {
        std::lock_guard lock(mutex_);
        if (!active_) return;
        ++flows_[key].released;
    } catch (...) {
    }
}

bool ContextState::satisfied_locked(const Await& e) const {
    auto it = flows_.find(e.key);
    if (it == flows_.end()) {
        // No flow record: nothing published yet (or counters not tracked
        // for this key). A send edge with no traffic is EMPTY == satisfied.
        return e.kind == WaitKind::send;
    }
    const Flow& f = it->second;
    if (e.kind == WaitKind::send) return f.published == f.released;
    return f.published > f.consumed;
}

void ContextState::block(int world, std::span<const Await> edges) {
    std::lock_guard lock(mutex_);
    if (!active_) return;
    if (world < 0 || static_cast<std::size_t>(world) >= blocked_.size()) return;
    Blocked& b = blocked_[static_cast<std::size_t>(world)];
    b.edges.assign(edges.begin(), edges.end());
    b.active = true;
    try {
        detect_locked(world);
    } catch (...) {
        b.active = false;   // the throwing waiter unwinds; don't leave it registered
        throw;
    }
}

void ContextState::unblock(int world) noexcept {
    try {
        std::lock_guard lock(mutex_);
        if (world < 0 || static_cast<std::size_t>(world) >= blocked_.size()) return;
        blocked_[static_cast<std::size_t>(world)].active = false;
    } catch (...) {
    }
}

void ContextState::detect_locked(int registrant) {
    // OR-wait knot: start from every currently blocked rank and repeatedly
    // remove any rank that could still be woken — an edge whose message is
    // already in flight, or an edge awaiting a rank that is *running*
    // (outside the set) and might yet publish. What remains is a set of
    // ranks none of which can ever proceed. Counters are updated under
    // this mutex before the corresponding wait registers, so a satisfied
    // edge is never missed — no false positives; a rank blocked in an
    // uninstrumented wait simply breaks the knot (missed detection falls
    // back to the timeout, never the reverse).
    knot_.assign(blocked_.size(), 0);
    for (std::size_t r = 0; r < blocked_.size(); ++r) {
        knot_[r] = blocked_[r].active ? 1 : 0;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t r = 0; r < blocked_.size(); ++r) {
            if (knot_[r] == 0) continue;
            bool stuck = !blocked_[r].edges.empty();
            for (const Await& e : blocked_[r].edges) {
                const bool awaited_in =
                    e.awaited_world >= 0 &&
                    static_cast<std::size_t>(e.awaited_world) < knot_.size() &&
                    knot_[static_cast<std::size_t>(e.awaited_world)] != 0;
                if (!awaited_in || satisfied_locked(e)) {
                    stuck = false;
                    break;
                }
            }
            if (!stuck) {
                knot_[r] = 0;
                changed = true;
            }
        }
    }
    if (registrant < 0 || static_cast<std::size_t>(registrant) >= knot_.size() ||
        knot_[static_cast<std::size_t>(registrant)] == 0) {
        return;
    }

    // Real deadlock: every rank in the knot, with every edge it is
    // blocked on — the in-flight picture at the moment the cycle closed.
    std::string msg = "deadlock: the wait-for graph contains a cycle no in-flight "
                      "message can break —";
    std::size_t nranks = 0;
    for (std::size_t r = 0; r < knot_.size(); ++r) {
        if (knot_[r] == 0) continue;
        ++nranks;
        msg += "\n  world rank " + std::to_string(r) + " blocked in ";
        const Blocked& b = blocked_[r];
        for (std::size_t i = 0; i < b.edges.size(); ++i) {
            const Await& e = b.edges[i];
            if (i > 0) msg += "; also ";
            msg += std::string(kind_str(e.kind)) + " awaiting world rank " +
                   std::to_string(e.awaited_world);
            if (e.slot >= 0) msg += " (slot " + std::to_string(e.slot) + ")";
            msg += " on " + channel_str(e.key);
        }
    }
    msg += "\n  (every listed wait is registered and unsatisfiable; the schedule "
           "orders these plans differently across ranks)";
    if (telemetry::enabled()) {
        // Drop an instant on this rank's track so the exported timeline
        // pins the moment the cycle closed against the in-flight spans.
        telemetry::thread_track().instant("plancheck.deadlock",
                                          static_cast<std::uint64_t>(nranks));
    }
    report_locked(msg);
}

} // namespace beatnik::comm::plancheck
