/// \file exec.hpp
/// \brief The execution seam of the solver operators: each point-wise loop
/// body is written once and runs on the host fields or on their device
/// mirrors.
///
/// ZModel, the RK3 stage updates, the boundary fixups and the exact-BR
/// staging write every loop as a body over field views inside a function
/// template on the execution space:
///   * HostExec — views over the host storage; bodies run through
///     par::parallel_for_2d, so the serial and OpenMP backends behave as
///     for any other host loop. Footprints are ignored.
///   * DeviceExec — views over the device mirrors; each loop declares its
///     footprint to devcheck and is enqueued on the state's queue, so
///     stages order by stream semantics and complete at the next fence or
///     same-queue operation.
/// The seam owns the index decode: a 2D loop hands its body (i, j), an
/// extrapolation band (k, cross, c). Both spaces evaluate the same body,
/// so host and device results are bitwise equal. Entry points choose the
/// space once (with_exec), from whether the state is device-resident and
/// the fields are mirrored.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "grid/field.hpp"
#include "par/par.hpp"

namespace beatnik {

/// A loop's declared read/write regions (devcheck::read / write).
using Footprint = std::initializer_list<par::device::devcheck::Region>;

struct HostExec {
    template <class T, int C>
    static grid::HostFieldView<T, C> view(grid::NodeField<T, C>& f) {
        return f.host_view();
    }
    template <class T, int C>
    static grid::HostFieldView<const T, C> view(const grid::NodeField<T, C>& f) {
        return f.host_view();
    }
    [[nodiscard]] static par::device::Queue* queue() { return nullptr; }

    /// body(i, j) over [i0, i1) x [j0, j1).
    template <class Body>
    void for_2d(const char* /*label*/, Footprint /*footprint*/, int i0, int i1, int j0, int j1,
                const Body& body) const {
        par::parallel_for_2d(i0, i1, j0, j1, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
            body(static_cast<int>(i), static_cast<int>(j));
        });
    }

    /// body(k, cross, c) over k in [1, w], cross in [0, n), c in [0, nc).
    template <class Body>
    void for_band(const char* /*label*/, Footprint /*footprint*/, int w, int n, int nc,
                  const Body& body) const {
        par::parallel_for_2d(1, w + 1, 0, n, [&](std::ptrdiff_t k, std::ptrdiff_t cross) {
            for (int c = 0; c < nc; ++c) body(static_cast<int>(k), static_cast<int>(cross), c);
        });
    }

    /// Host code may read what the loops wrote as soon as they return.
    void fence() const {}
};

struct DeviceExec {
    par::device::Queue* q;

    template <class T, int C>
    static grid::DeviceFieldView<T, C> view(grid::NodeField<T, C>& f) {
        return f.device_view();
    }
    template <class T, int C>
    static grid::DeviceFieldView<const T, C> view(const grid::NodeField<T, C>& f) {
        return f.device_view();
    }
    [[nodiscard]] par::device::Queue* queue() const { return q; }

    /// One kernel over the row-major flattening of the rectangle; an
    /// empty rectangle enqueues (and declares) nothing.
    template <class Body>
    void for_2d(const char* label, Footprint footprint, int i0, int i1, int j0, int j1,
                const Body& body) const {
        if (i1 <= i0 || j1 <= j0) return;
        par::device::devcheck::declare(*q, label, footprint);
        par::device::parallel_for_2d(*q, i1 - i0, j1 - j0,
                                     [body, i0, j0](int i, int j, std::size_t) {
                                         body(i0 + i, j0 + j);
                                     });
    }

    /// One kernel per band, parallel over (k, cross, c).
    template <class Body>
    void for_band(const char* label, Footprint footprint, int w, int n, int nc,
                  const Body& body) const {
        par::device::devcheck::declare(*q, label, footprint);
        const auto sn = static_cast<std::size_t>(n);
        const auto snc = static_cast<std::size_t>(nc);
        q->parallel_for(static_cast<std::size_t>(w) * sn * snc,
                        [body, sn, snc](std::size_t idx) {
                            body(1 + static_cast<int>(idx / (snc * sn)),
                                 static_cast<int>((idx / snc) % sn), static_cast<int>(idx % snc));
                        });
    }

    void fence() const { q->fence(); } // devcheck: fenced — host code reads what the loops wrote
};

/// Run \p f with the device space on \p q, or with the host space when
/// \p q is null.
template <class F>
void with_exec(par::device::Queue* q, F&& f) {
    if (q != nullptr) {
        f(DeviceExec{q});
    } else {
        f(HostExec{});
    }
}

} // namespace beatnik
