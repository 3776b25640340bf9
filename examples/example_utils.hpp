/// \file example_utils.hpp
/// \brief Tiny flag parser + printing helpers shared by the example
/// drivers (kept header-only and dependency-free on purpose).
#pragma once

#include <charconv>
#include <cstdlib>
#include <string_view>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/beatnik.hpp"

namespace beatnik::examples {

/// "--key value" and "--flag" style argument access with defaults.
class Args {
public:
    Args(int argc, char** argv) {
        for (int i = 1; i < argc; ++i) {
            std::string_view arg = argv[i];
            if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') continue;
            std::string key(arg.data() + 2, arg.size() - 2);
            if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "1";
            }
        }
    }

    /// Numeric flags throw InvalidArgument naming the flag unless the
    /// whole value parses as the requested type.
    [[nodiscard]] int get_int(const std::string& key, int fallback) const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : parse<int>(key, it->second, "an integer");
    }
    [[nodiscard]] double get_double(const std::string& key, double fallback) const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : parse<double>(key, it->second, "a number");
    }
    [[nodiscard]] std::string get_string(const std::string& key, std::string fallback) const {
        auto it = values_.find(key);
        return it == values_.end() ? std::move(fallback) : it->second;
    }
    [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }

private:
    template <class T>
    static T parse(const std::string& key, const std::string& text, const char* expected) {
        T value{};
        const char* end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc{} || ptr != end) {
            throw InvalidArgument("--" + key + ": expected " + expected + ", got '" + text + "'");
        }
        return value;
    }

    std::map<std::string, std::string> values_;
};

inline Order parse_order(const std::string& s) {
    if (s == "low") return Order::low;
    if (s == "medium") return Order::medium;
    if (s == "high") return Order::high;
    throw InvalidArgument("unknown order '" + s + "' (expected low|medium|high)");
}

inline Boundary parse_boundary(const std::string& s) {
    if (s == "periodic") return Boundary::periodic;
    if (s == "free") return Boundary::free;
    throw InvalidArgument("unknown boundary '" + s + "' (expected periodic|free)");
}

inline BRSolverKind parse_br(const std::string& s) {
    if (s == "exact") return BRSolverKind::exact;
    if (s == "cutoff") return BRSolverKind::cutoff;
    throw InvalidArgument("unknown BR solver '" + s + "' (expected exact|cutoff)");
}

inline const char* order_name(Order o) {
    switch (o) {
    case Order::low: return "low";
    case Order::medium: return "medium";
    case Order::high: return "high";
    }
    return "?";
}

/// Rank-0-only stream (avoids interleaved output from rank threads).
inline void print0(const comm::Communicator& comm, const std::string& line) {
    if (comm.rank() == 0) std::cout << line << '\n';
}

/// Run a driver's body. A beatnik::Error (bad flag value, rejected
/// configuration, failed rank) ends the program with "<prog>: <what>" on
/// stderr and exit code 1 instead of std::terminate.
template <class Body>
int guarded_main(const char* prog, Body&& body) {
    try {
        body();
    } catch (const Error& e) {
        std::cerr << prog << ": " << e.what() << "\n";
        return 1;
    }
    return 0;
}

} // namespace beatnik::examples
