// NodeField storage/pack/unpack tests.
#include <gtest/gtest.h>

#include "grid/field.hpp"

namespace bg = beatnik::grid;

namespace {

bg::LocalGrid2D make_grid(int halo = 2) {
    static bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {16, 12}, {true, true});
    static bg::CartTopology2D topo(1, {1, 1}, {true, true});
    return bg::LocalGrid2D(mesh, topo, 0, halo);
}

TEST(NodeField, OwnedAndGhostIndexingRoundTrips) {
    auto lg = make_grid();
    bg::NodeField<double, 2> f(lg);
    f(0, 0, 0) = 1.5;
    f(-2, -2, 1) = 2.5;
    f(15, 11, 0) = 3.5;
    f(17, 13, 1) = 4.5; // far ghost corner
    EXPECT_DOUBLE_EQ(f(0, 0, 0), 1.5);
    EXPECT_DOUBLE_EQ(f(-2, -2, 1), 2.5);
    EXPECT_DOUBLE_EQ(f(15, 11, 0), 3.5);
    EXPECT_DOUBLE_EQ(f(17, 13, 1), 4.5);
}

TEST(NodeField, ComponentsAreIndependent) {
    auto lg = make_grid();
    bg::NodeField<double, 3> f(lg);
    f(3, 4, 0) = 1.0;
    f(3, 4, 1) = 2.0;
    f(3, 4, 2) = 3.0;
    EXPECT_DOUBLE_EQ(f(3, 4, 0), 1.0);
    EXPECT_DOUBLE_EQ(f(3, 4, 1), 2.0);
    EXPECT_DOUBLE_EQ(f(3, 4, 2), 3.0);
    EXPECT_DOUBLE_EQ(f(4, 3, 0), 0.0); // neighbor untouched
}

TEST(NodeField, FillCoversGhosts) {
    auto lg = make_grid(1);
    bg::NodeField<double, 1> f(lg);
    f.fill(7.0);
    EXPECT_DOUBLE_EQ(f(-1, -1, 0), 7.0);
    EXPECT_DOUBLE_EQ(f(16, 12, 0), 7.0);
}

TEST(NodeField, PackUnpackRoundTrip) {
    auto lg = make_grid();
    bg::NodeField<double, 2> a(lg), b(lg);
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 12; ++j) {
            a(i, j, 0) = i * 100.0 + j;
            a(i, j, 1) = -(i * 100.0 + j);
        }
    }
    bg::IndexSpace2D space{{2, 7}, {3, 9}};
    std::vector<double> buf(space.size() * 2);
    a.pack_into(space, buf);
    b.fill(0.0);
    b.unpack_from(space, buf);
    bg::for_each(space, [&](int i, int j) {
        EXPECT_DOUBLE_EQ(b(i, j, 0), a(i, j, 0));
        EXPECT_DOUBLE_EQ(b(i, j, 1), a(i, j, 1));
    });
    EXPECT_DOUBLE_EQ(b(0, 0, 0), 0.0);
}

TEST(NodeField, UnpackRejectsWrongSize) {
    auto lg = make_grid();
    bg::NodeField<double, 1> f(lg);
    std::vector<double> tiny(3);
    EXPECT_THROW(f.unpack_from({{0, 4}, {0, 4}}, tiny), beatnik::Error);
}

} // namespace
