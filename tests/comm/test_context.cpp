// Context-level tests for the minimpi substrate: a failing rank or a
// deadlocked wait unwinds every rank with an error, and the optional
// context trace records each message a collective sends.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "comm/plan.hpp"

namespace bc = beatnik::comm;

namespace {

TEST(ContextFailure, RankExceptionPropagatesWithoutDeadlock) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 20.0;
    EXPECT_THROW(bc::Context::run(4,
                                  [](bc::Communicator& comm) {
                                      if (comm.rank() == 2) {
                                          throw std::runtime_error("rank 2 exploded");
                                      }
                                      // Rank 2 never joins the barrier; the
                                      // abort must wake the other ranks.
                                      comm.barrier();
                                  },
                                  cfg),
                 beatnik::Error);
}

/// The report names the rank whose failure started the abort, not the
/// lowest-numbered rank that the abort then unwound.
TEST(ContextFailure, ReportsTheFirstFailingRank) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 20.0;
    try {
        bc::Context::run(2,
                         [](bc::Communicator& comm) {
                             if (comm.rank() == 1) throw std::runtime_error("rank 1 exploded");
                             // Rank 0 blocks here until rank 1's abort
                             // unwinds it with an error of its own.
                             comm.barrier();
                         },
                         cfg);
        FAIL() << "a rank exception must propagate";
    } catch (const beatnik::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank 1 failed: rank 1 exploded"), std::string::npos) << what;
    }
}

TEST(ContextFailure, RecvTimeoutThrowsCommError) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 0.2;
    try {
        bc::Context::run(2,
                         [](bc::Communicator& comm) {
                             // Rank 1 declares the matching send but never
                             // publishes, so only rank 0 fails.
                             auto b = bc::Plan::builder(comm);
                             const int tag = comm.new_plan_tag();
                             if (comm.rank() == 0) {
                                 (void)b.add_recv(1, tag, 8);
                             } else {
                                 (void)b.add_send(0, tag, 8);
                             }
                             auto plan = b.build();
                             if (comm.rank() == 0) {
                                 plan.start();
                                 (void)plan.wait_any_recv();
                             }
                         },
                         cfg);
        FAIL() << "a wait nobody satisfies must time out";
    } catch (const beatnik::Error& e) {
        // Context::run reports the rank's CommError as a rank failure.
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
    }
}

TEST(ContextTrace, RecordsEveryTransferWithSizes) {
    bc::ContextConfig cfg;
    cfg.enable_trace = true;
    cfg.recv_timeout_seconds = 20.0;
    // Context::run owns the context; replicate its wiring here to inspect
    // the trace afterward.
    bc::Context ctx(2, cfg);
    std::vector<int> identity{0, 1};
    auto rank = [&](int r) {
        bc::Communicator c(ctx, 0, r, identity);
        std::vector<double> xs(10, 1.5 + r);
        (void)c.allgather(std::span<const double>(xs));
    };
    std::thread t0(rank, 0);
    std::thread t1(rank, 1);
    t0.join();
    t1.join();
    // A two-rank ring allgather is one block each way.
    auto records = ctx.trace()->snapshot();
    ASSERT_EQ(records.size(), 2u);
    std::sort(records.begin(), records.end(),
              [](const auto& a, const auto& b) { return a.src_world < b.src_world; });
    for (int r = 0; r < 2; ++r) {
        const auto& rec = records[static_cast<std::size_t>(r)];
        EXPECT_EQ(rec.src_world, r);
        EXPECT_EQ(rec.dst_world, 1 - r);
        EXPECT_EQ(rec.bytes, 10 * sizeof(double));
    }
}

} // namespace
