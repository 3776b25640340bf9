/// \file field.hpp
/// \brief Node-centered field storage with ghost layers, with an optional
/// device mirror (par/device) for GPU-shaped runs.
#pragma once

#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "grid/local_grid.hpp"
#include "par/device/device.hpp"

namespace beatnik::grid {

/// Non-owning (i, j, c) view of a NodeField's ghosted rectangle over
/// either copy: the host storage (HostFieldView, a std::span) or the
/// device mirror (DeviceFieldView, a DeviceView — dereferenceable only in
/// device context, debug-checked like any DeviceView). Both index alike,
/// so one loop body captures either by value.
template <class T, int C, bool Device>
class FieldView {
public:
    using Data = std::conditional_t<Device, par::device::DeviceView<T>, std::span<T>>;

    FieldView() = default;
    FieldView(Data data, int halo, int ni, int nj)
        : data_(data), halo_(halo), ni_(ni), nj_(nj), stride_i_((nj + 2 * halo) * C) {}

    [[nodiscard]] T& operator()(int i, int j, int c = 0) const {
        BEATNIK_ASSERT(i >= -halo_ && i < ni_ + halo_ && j >= -halo_ && j < nj_ + halo_ &&
                       c >= 0 && c < C);
        return data_[index(i, j, c)];
    }

    [[nodiscard]] int halo_width() const { return halo_; }
    [[nodiscard]] int extent(int d) const { return d == 0 ? ni_ : nj_; }
    static constexpr int components() { return C; }

    /// Underlying flat view of the whole ghosted rectangle — the footprint
    /// handle kernel call sites hand to devcheck::read()/write().
    [[nodiscard]] Data raw() const { return data_; }

private:
    [[nodiscard]] std::size_t index(int i, int j, int c) const {
        return static_cast<std::size_t>((i + halo_) * stride_i_ + (j + halo_) * C + c);
    }

    Data data_;
    int halo_ = 0;
    int ni_ = 0;
    int nj_ = 0;
    int stride_i_ = 0;
};

template <class T, int C>
using HostFieldView = FieldView<T, C, false>;
template <class T, int C>
using DeviceFieldView = FieldView<T, C, true>;

/// A C-component field over the owned+ghost nodes of a LocalGrid2D.
///
/// Storage is a dense row-major array over the ghosted rectangle with the
/// component index fastest (an "array of small structs" layout — fields
/// with C=2..3 doubles stay compact and cache-friendly, per the
/// hpc-parallel guide's "use compact data structures" rule).
///
/// Indexing is in the local frame: owned nodes at [0, ni) x [0, nj),
/// ghosts at negative / >= extent indices (see LocalGrid2D).
template <class T, int C>
class NodeField {
public:
    static_assert(C >= 1);

    explicit NodeField(const LocalGrid2D& grid)
        : halo_(grid.halo_width()), ni_(grid.owned_extent(0)), nj_(grid.owned_extent(1)),
          stride_j_(C), stride_i_((nj_ + 2 * halo_) * C),
          data_(static_cast<std::size_t>(ni_ + 2 * halo_) *
                    static_cast<std::size_t>(nj_ + 2 * halo_) * C,
                T{}) {}

    [[nodiscard]] int halo_width() const { return halo_; }
    [[nodiscard]] int extent(int d) const { return d == 0 ? ni_ : nj_; }
    static constexpr int components() { return C; }

    [[nodiscard]] T& operator()(int i, int j, int c = 0) {
        BEATNIK_ASSERT(in_bounds(i, j, c));
        return data_[index(i, j, c)];
    }
    [[nodiscard]] const T& operator()(int i, int j, int c = 0) const {
        BEATNIK_ASSERT(in_bounds(i, j, c));
        return data_[index(i, j, c)];
    }

    /// Raw storage (ghosted rectangle, row-major, component-fastest).
    /// The const overload counts as a host *read* for the hazard detector
    /// (stale-mirror checks); the mutable overload is the initial-fill /
    /// overwrite path and is not flagged.
    [[nodiscard]] std::vector<T>& storage() { return data_; }
    [[nodiscard]] const std::vector<T>& storage() const {
        par::device::devcheck::host_reads(data_.data(), data_.size() * sizeof(T),
                                          "NodeField::storage");
        return data_;
    }

    /// Set every entry (ghosts included).
    void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

    /// Copy all components at a node from another field of the same shape.
    void copy_node(int i, int j, const NodeField& from) {
        for (int c = 0; c < C; ++c) (*this)(i, j, c) = from(i, j, c);
    }

    /// Pack an index rectangle directly into caller-provided storage of
    /// exactly space.size() * C elements (the persistent-plan transport
    /// buffer) — no staging vector, no allocation. Storage is (j, c)-
    /// contiguous per row, so each row moves as one block copy.
    void pack_into(const IndexSpace2D& space, std::span<T> out) const {
        BEATNIK_REQUIRE(out.size() == space.size() * C, "pack_into: buffer size mismatch");
        if (space.size() == 0) return;
        par::device::devcheck::host_reads(data_.data(), data_.size() * sizeof(T),
                                          "NodeField::pack_into");
        const std::size_t row = row_elems(space);
        std::size_t k = 0;
        for (int i = space.i.begin; i < space.i.end; ++i, k += row) {
            std::copy_n(&(*this)(i, space.j.begin, 0), row, out.data() + k);
        }
    }

    /// Unpack a span previously produced by pack_into() for \p space.
    void unpack_from(const IndexSpace2D& space, std::span<const T> in) {
        BEATNIK_REQUIRE(in.size() == space.size() * C, "unpack: buffer size mismatch");
        if (space.size() == 0) return;
        const std::size_t row = row_elems(space);
        std::size_t k = 0;
        for (int i = space.i.begin; i < space.i.end; ++i, k += row) {
            std::copy_n(in.data() + k, row, &(*this)(i, space.j.begin, 0));
        }
    }

    /// Accumulate (+=) a packed span into an index rectangle — the
    /// scatter-add unpack.
    void accumulate_from(const IndexSpace2D& space, std::span<const T> in) {
        BEATNIK_REQUIRE(in.size() == space.size() * C, "accumulate: buffer size mismatch");
        if (space.size() == 0) return;
        const std::size_t row = row_elems(space);
        std::size_t k = 0;
        for (int i = space.i.begin; i < space.i.end; ++i, k += row) {
            T* dst = &(*this)(i, space.j.begin, 0);
            for (std::size_t m = 0; m < row; ++m) dst[m] += in[k + m];
        }
    }

    /// Host-side (i, j, c) view of the storage, the host twin of
    /// device_view() for loop bodies written once for both.
    [[nodiscard]] HostFieldView<T, C> host_view() { return {data_, halo_, ni_, nj_}; }
    [[nodiscard]] HostFieldView<const T, C> host_view() const {
        return {std::span<const T>(data_), halo_, ni_, nj_};
    }

    // ------------------------------------------------------ device mirror

    /// Allocate the device-resident mirror of the ghosted rectangle
    /// (uninitialized — sync_to_device() fills it). Idempotent.
    void enable_device_mirror() {
        if (!dev_) {
            dev_ = par::device::DeviceBuffer<T>(data_.size());
            par::device::devcheck::note_mirror(data_.data(), data_.size() * sizeof(T),
                                               dev_.view().data());
        }
    }

    [[nodiscard]] bool device_mirrored() const { return static_cast<bool>(dev_); }

    /// Enqueue host -> device / device -> host mirror copies on \p q.
    void sync_to_device(par::device::Queue& q) {
        require_mirror();
        par::device::deep_copy(q, dev_.view(), std::span<const T>(data_.data(), data_.size()));
        // Either direction leaves host and device copies in agreement at
        // the copy's position in the stream order.
        par::device::devcheck::note_mirror_sync(q, data_.data(), /*to_host=*/false);
    }
    void sync_to_host(par::device::Queue& q) {
        require_mirror();
        par::device::deep_copy(q, std::span<T>(data_.data(), data_.size()),
                               std::as_const(dev_).view());
        par::device::devcheck::note_mirror_sync(q, data_.data(), /*to_host=*/true);
    }

    /// Device-side (i, j, c) view of the mirror for kernels.
    [[nodiscard]] DeviceFieldView<T, C> device_view() {
        require_mirror();
        return {dev_.view(), halo_, ni_, nj_};
    }
    [[nodiscard]] DeviceFieldView<const T, C> device_view() const {
        require_mirror();
        return {dev_.view(), halo_, ni_, nj_};
    }

    /// Device-kernel pack: rows of the rectangle are copied from the
    /// device mirror straight into \p out — which must be device-
    /// accessible (device memory or a *registered* host staging range,
    /// e.g. a pinned communication-plan buffer; see Plan::pin_buffers).
    /// Asynchronous: complete at q.fence().
    void device_pack_into(par::device::Queue& q, const IndexSpace2D& space,
                          std::span<T> out) const {
        require_mirror();
        BEATNIK_REQUIRE(out.size() == space.size() * C, "device pack: buffer size mismatch");
        BEATNIK_REQUIRE(
            par::device::Runtime::instance().device_accessible(out.data(), out.size_bytes()),
            "device pack target is not device-accessible — pin the staging buffer first");
        if (space.size() == 0) return;
        const std::size_t row = row_elems(space);
        const T* src = dev_.view().data();
        T* dst = out.data();
        const std::size_t base = index(space.i.begin, space.j.begin, 0);
        const auto stride = static_cast<std::size_t>(stride_i_);
        const auto rows = static_cast<std::size_t>(space.i.end - space.i.begin);
        namespace dc = par::device::devcheck;
        // Footprint: the bounding range of the packed rows in the mirror
        // (tight enough that disjoint halo bands stay disjoint), plus the
        // staging target.
        dc::declare(q, "NodeField::device_pack_into",
                    {dc::read(src + base, ((rows - 1) * stride + row) * sizeof(T)),
                     dc::write(out)});
        q.parallel_for(rows, [src, dst, base, stride, row](std::size_t r) {
            std::copy_n(src + base + r * stride, row, dst + r * row);
        });
    }

    /// Device-kernel unpack: the inverse of device_pack_into. \p in must
    /// be device-accessible (a received plan buffer, pinned).
    void device_unpack_from(par::device::Queue& q, const IndexSpace2D& space,
                            std::span<const T> in) {
        run_device_unpack(q, space, in, /*accumulate=*/false);
    }

    /// Device-kernel scatter-add unpack (+=).
    void device_accumulate_from(par::device::Queue& q, const IndexSpace2D& space,
                                std::span<const T> in) {
        run_device_unpack(q, space, in, /*accumulate=*/true);
    }

private:
    void require_mirror() const {
        BEATNIK_REQUIRE(static_cast<bool>(dev_),
                        "field has no device mirror — call enable_device_mirror() first");
    }

    void run_device_unpack(par::device::Queue& q, const IndexSpace2D& space,
                           std::span<const T> in, bool accumulate) {
        require_mirror();
        BEATNIK_REQUIRE(in.size() == space.size() * C, "device unpack: buffer size mismatch");
        BEATNIK_REQUIRE(
            par::device::Runtime::instance().device_accessible(in.data(), in.size_bytes()),
            "device unpack source is not device-accessible — pin the staging buffer first");
        if (space.size() == 0) return;
        const std::size_t row = row_elems(space);
        T* dst = dev_.view().data();
        const T* src = in.data();
        const std::size_t base = index(space.i.begin, space.j.begin, 0);
        const auto stride = static_cast<std::size_t>(stride_i_);
        const auto rows = static_cast<std::size_t>(space.i.end - space.i.begin);
        namespace dc = par::device::devcheck;
        dc::declare(q, accumulate ? "NodeField::device_accumulate_from"
                                  : "NodeField::device_unpack_from",
                    {dc::read(in),
                     dc::write(dst + base, ((rows - 1) * stride + row) * sizeof(T))});
        q.parallel_for(rows, [src, dst, base, stride, row, accumulate](std::size_t r) {
                           T* d = dst + base + r * stride;
                           const T* s = src + r * row;
                           if (accumulate) {
                               for (std::size_t m = 0; m < row; ++m) d[m] += s[m];
                           } else {
                               std::copy_n(s, row, d);
                           }
                       });
    }

    /// Contiguous elements per row of an index rectangle ((j, c) are the
    /// two fastest storage axes).
    [[nodiscard]] static std::size_t row_elems(const IndexSpace2D& space) {
        return static_cast<std::size_t>(space.j.end - space.j.begin) * C;
    }

    [[nodiscard]] bool in_bounds(int i, int j, int c) const {
        return i >= -halo_ && i < ni_ + halo_ && j >= -halo_ && j < nj_ + halo_ && c >= 0 && c < C;
    }
    [[nodiscard]] std::size_t index(int i, int j, int c) const {
        return static_cast<std::size_t>((i + halo_) * stride_i_ + (j + halo_) * stride_j_ + c);
    }

    int halo_;
    int ni_, nj_;
    int stride_j_, stride_i_;
    std::vector<T> data_;
    par::device::DeviceBuffer<T> dev_;   ///< empty unless device-mirrored
};

} // namespace beatnik::grid
