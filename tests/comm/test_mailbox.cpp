// Unit tests for the indexed mailbox and the shared-payload buffer that
// back the zero-copy message path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "comm/mailbox.hpp"

namespace bc = beatnik::comm;

namespace {

std::vector<std::byte> make_bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (int v : values) out.push_back(static_cast<std::byte>(v));
    return out;
}

bc::Envelope make_env(int comm_id, int src, int tag, std::initializer_list<int> values = {}) {
    bc::Envelope env;
    env.comm_id = comm_id;
    env.src = src;
    env.tag = tag;
    auto bytes = make_bytes(values);
    env.payload = bc::Payload::copy_of(std::span<const std::byte>(bytes));
    return env;
}

// ------------------------------------------------------------------ Payload

TEST(Payload, DefaultIsEmpty) {
    bc::Payload p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_TRUE(p.bytes().empty());
}

TEST(Payload, CopyOfDetachesFromSource) {
    std::vector<double> src{1.0, 2.0, 3.0};
    auto p = bc::Payload::copy_of(std::as_bytes(std::span<const double>(src)));
    src.assign(src.size(), -1.0); // mutate the original after publishing
    auto v = p.view<double>();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
    EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(Payload, CopyIsARefcountBumpNotAByteCopy) {
    std::vector<std::uint64_t> src{7, 8, 9};
    auto a = bc::Payload::copy_of(std::as_bytes(std::span<const std::uint64_t>(src)));
    bc::Payload b = a; // share, don't copy
    EXPECT_EQ(a.bytes().data(), b.bytes().data());
    EXPECT_EQ(a.size(), b.size());
}

TEST(Payload, AliasOfPointsAtCallerMemory) {
    std::vector<int> src{4, 5, 6};
    auto p = bc::Payload::alias_of(std::as_bytes(std::span<const int>(src)));
    EXPECT_EQ(static_cast<const void*>(p.bytes().data()),
              static_cast<const void*>(src.data()));
    src[1] = 50; // aliased, so the payload observes the change
    EXPECT_EQ(p.view<int>()[1], 50);
}

TEST(Payload, ViewRejectsPartialElements) {
    auto bytes = make_bytes({1, 2, 3});
    auto p = bc::Payload::copy_of(std::span<const std::byte>(bytes));
    EXPECT_THROW((void)p.view<std::uint16_t>(), beatnik::Error);
}

// ------------------------------------------------------------------ Mailbox

class MailboxTest : public ::testing::Test {
protected:
    std::atomic<bool> abort_{false};
    bc::Mailbox box_{abort_, /*timeout_seconds=*/5.0};
};

TEST_F(MailboxTest, ExactMatchIsFifoPerSourceAndTag) {
    box_.deliver(make_env(0, 1, 7, {10}));
    box_.deliver(make_env(0, 1, 7, {20}));
    auto first = box_.receive(0, 1, 7);
    auto second = box_.receive(0, 1, 7);
    EXPECT_EQ(static_cast<int>(first.payload.bytes()[0]), 10);
    EXPECT_EQ(static_cast<int>(second.payload.bytes()[0]), 20);
}

TEST_F(MailboxTest, ExactMatchSkipsOtherKeys) {
    box_.deliver(make_env(0, 1, 1, {1}));
    box_.deliver(make_env(0, 2, 2, {2}));
    // Match the later-arrived (src=2, tag=2) first.
    auto env = box_.receive(0, 2, 2);
    EXPECT_EQ(env.src, 2);
    EXPECT_EQ(env.tag, 2);
    EXPECT_EQ(box_.pending(), 1u);
}

TEST_F(MailboxTest, AnySourceTakesEarliestArrivalAcrossSources) {
    box_.deliver(make_env(0, 1, 8, {0}));   // earliest, but another tag
    box_.deliver(make_env(0, 5, 9, {1}));
    box_.deliver(make_env(0, 2, 9, {2}));
    box_.deliver(make_env(0, 5, 9, {3}));
    EXPECT_EQ(box_.receive(0, bc::any_source, 9).src, 5);
    EXPECT_EQ(box_.receive(0, bc::any_source, 9).src, 2);
    EXPECT_EQ(box_.receive(0, bc::any_source, 9).src, 5);
    EXPECT_EQ(box_.pending(), 1u);
}

TEST_F(MailboxTest, CommunicatorsAreIsolated) {
    // Same (src, tag) on two communicators: each receive sees only its own.
    box_.deliver(make_env(1, 0, 5, {1}));
    box_.deliver(make_env(2, 0, 5, {2}));
    EXPECT_EQ(static_cast<int>(box_.receive(2, 0, 5).payload.bytes()[0]), 2);
    EXPECT_EQ(static_cast<int>(box_.receive(1, 0, 5).payload.bytes()[0]), 1);
    EXPECT_EQ(box_.pending(), 0u);
}

TEST_F(MailboxTest, PendingCountsAcrossCommunicators) {
    box_.deliver(make_env(0, 0, 1));
    box_.deliver(make_env(1, 0, 1));
    box_.deliver(make_env(7, 3, 2));
    EXPECT_EQ(box_.pending(), 3u);
}

TEST_F(MailboxTest, BlockedReceiveWakesOnDeliver) {
    std::thread sender([this] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        box_.deliver(make_env(0, 1, 3, {42}));
    });
    auto env = box_.receive(0, 1, 3);
    sender.join();
    EXPECT_EQ(static_cast<int>(env.payload.bytes()[0]), 42);
}

TEST_F(MailboxTest, InterruptWakesBlockedReceiverOnAbort) {
    std::thread aborter([this] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        abort_.store(true, std::memory_order_release);
        box_.interrupt();
    });
    EXPECT_THROW((void)box_.receive(0, bc::any_source, 9), beatnik::CommError);
    aborter.join();
}

TEST_F(MailboxTest, ReceiveTimesOutWithDiagnostic) {
    std::atomic<bool> no_abort{false};
    bc::Mailbox quick(no_abort, 0.05);
    try {
        (void)quick.receive(3, 1, 9);
        FAIL() << "should have timed out";
    } catch (const beatnik::CommError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("comm=3"), std::string::npos);
        EXPECT_NE(what.find("src=1"), std::string::npos);
        EXPECT_NE(what.find("tag=9"), std::string::npos);
    }
}

TEST_F(MailboxTest, ManyKeysStayIndexed) {
    // A burst across many (src, tag) pairs must all be retrievable exactly.
    constexpr int kSrcs = 16;
    constexpr int kTags = 16;
    for (int s = 0; s < kSrcs; ++s)
        for (int t = 0; t < kTags; ++t) box_.deliver(make_env(0, s, t, {s + t}));
    EXPECT_EQ(box_.pending(), static_cast<std::size_t>(kSrcs * kTags));
    for (int s = kSrcs - 1; s >= 0; --s) {
        for (int t = kTags - 1; t >= 0; --t) {
            auto env = box_.receive(0, s, t);
            EXPECT_EQ(static_cast<int>(env.payload.bytes()[0]), s + t);
        }
    }
    EXPECT_EQ(box_.pending(), 0u);
}

} // namespace
