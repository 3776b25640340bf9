// Communicator split/dup tests: sub-communicators are the mechanism behind
// the FFT row/column exchanges, so they must compose with collectives.
#include <gtest/gtest.h>

#include <vector>

#include "comm/communicator.hpp"

namespace bc = beatnik::comm;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 30.0;
    bc::Context::run(nranks, fn, cfg);
}

TEST(Split, EvenOddGroups) {
    run(7, [](bc::Communicator& comm) {
        auto sub = comm.split(comm.rank() % 2, comm.rank());
        int expected_size = comm.rank() % 2 == 0 ? 4 : 3;
        EXPECT_EQ(sub.size(), expected_size);
        EXPECT_EQ(sub.rank(), comm.rank() / 2);
        // Collectives work inside the split group.
        int sum = sub.allreduce_value(comm.rank(), bc::op::Sum{});
        int expected = comm.rank() % 2 == 0 ? (0 + 2 + 4 + 6) : (1 + 3 + 5);
        EXPECT_EQ(sum, expected);
    });
}

TEST(Split, KeyReversesRankOrder) {
    run(5, [](bc::Communicator& comm) {
        auto sub = comm.split(0, -comm.rank());
        EXPECT_EQ(sub.size(), comm.size());
        EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
    });
}

TEST(Split, RowColumnGridDecomposition) {
    // 2x3 process grid: split by row then by column, as the FFT pencil
    // reshapes do.
    run(6, [](bc::Communicator& comm) {
        const int row = comm.rank() / 3;
        const int col = comm.rank() % 3;
        auto row_comm = comm.split(row, col);
        auto col_comm = comm.split(col, row);
        EXPECT_EQ(row_comm.size(), 3);
        EXPECT_EQ(col_comm.size(), 2);
        EXPECT_EQ(row_comm.rank(), col);
        EXPECT_EQ(col_comm.rank(), row);
        // Sum of columns within my row.
        int row_sum = row_comm.allreduce_value(col, bc::op::Sum{});
        EXPECT_EQ(row_sum, 0 + 1 + 2);
        // Sum of rows within my column.
        int col_sum = col_comm.allreduce_value(row, bc::op::Sum{});
        EXPECT_EQ(col_sum, 0 + 1);
    });
}

TEST(Split, ParentStillUsableAfterSplit) {
    run(4, [](bc::Communicator& comm) {
        auto sub = comm.split(comm.rank() / 2, comm.rank());
        int parent_sum = comm.allreduce_value(1, bc::op::Sum{});
        EXPECT_EQ(parent_sum, 4);
        int child_sum = sub.allreduce_value(1, bc::op::Sum{});
        EXPECT_EQ(child_sum, 2);
        // Parent traffic is unaffected by subcomm traffic: each group's
        // root broadcasts on the subcomm while the parent's root
        // broadcasts across both groups.
        int group_value = comm.rank() % 2 == 0 ? 10 + comm.rank() : 0;
        sub.bcast_value(group_value, 0);
        int parent_value = comm.rank() == 0 ? 123 : 0;
        comm.bcast_value(parent_value, 0);
        EXPECT_EQ(group_value, 10 + 2 * (comm.rank() / 2));
        EXPECT_EQ(parent_value, 123);
    });
}

TEST(Split, NestedSplits) {
    run(8, [](bc::Communicator& comm) {
        auto half = comm.split(comm.rank() / 4, comm.rank());   // two groups of 4
        auto quarter = half.split(half.rank() / 2, half.rank()); // four groups of 2
        EXPECT_EQ(quarter.size(), 2);
        int sum = quarter.allreduce_value(comm.rank(), bc::op::Sum{});
        int base = (comm.rank() / 2) * 2;
        EXPECT_EQ(sum, base + base + 1);
    });
}

TEST(Split, DupCreatesIndependentTagSpace) {
    run(3, [](bc::Communicator& comm) {
        auto copy = comm.dup();
        EXPECT_EQ(copy.size(), comm.size());
        EXPECT_EQ(copy.rank(), comm.rank());
        EXPECT_NE(copy.comm_id(), comm.comm_id());
        // Two fresh dups issue the same collective tag sequence; only the
        // communicator id keeps their messages apart. Rank 0 broadcasts on
        // `copy` first, every other rank receives on `other` first — with
        // a shared tag space the first receive would take copy's value.
        auto other = comm.dup();
        int a = comm.rank() == 0 ? 5 : 0;
        int b = comm.rank() == 0 ? 6 : 0;
        if (comm.rank() == 0) {
            copy.bcast_value(a, 0);
            other.bcast_value(b, 0);
        } else {
            other.bcast_value(b, 0);
            copy.bcast_value(a, 0);
        }
        EXPECT_EQ(a, 5);
        EXPECT_EQ(b, 6);
    });
}

TEST(Split, SingletonGroups) {
    run(4, [](bc::Communicator& comm) {
        auto solo = comm.split(comm.rank(), 0); // every rank its own color
        EXPECT_EQ(solo.size(), 1);
        EXPECT_EQ(solo.rank(), 0);
        EXPECT_EQ(solo.allreduce_value(comm.rank(), bc::op::Sum{}), comm.rank());
        solo.barrier();
    });
}

} // namespace
