/// \file patterns.cpp
/// \brief CommBench-style pattern benchmark over the pluggable transport
/// layer: measure any plan schedule (halo, ring, pairwise/Bruck
/// all-to-all rounds, FFT reshape) on any transport (inproc, shm,
/// loopback) and emit per-iteration statistics as JSON.
///
/// Unlike the amortized-mean micro benches, every iteration is timed
/// individually (barrier-synchronized, pattern-wide max via allreduce),
/// the warmup block is discarded, iterations are sorted, and
/// min/median/avg/max plus aggregate GB/s are reported — the CommBench
/// methodology, which keeps the distribution visible instead of letting
/// one descheduled iteration poison a mean. A cache-defeating write
/// sweep runs between timed iterations so repeated patterns measure
/// memory traffic, not L2 residency of a hot payload.
///
/// `--calibrate` fits a per-transport machine profile instead: one-way
/// latency from a tiny-message ring, stream bandwidth from a large one,
/// local-copy bandwidth from a memcpy sweep. The JSON it writes is
/// loadable by netsim (netsim/profile.hpp: machine_from_profile), which
/// grounds simulator predictions in measured parameters of the machine
/// at hand.
///
/// Usage:
///   bench_patterns [--schedule halo|ring|pairwise|bruck|reshape|all]
///                  [--transport inproc|shm|loopback]
///                  [--ranks N] [--bytes N] [--iters N]
///                  [--quick] [--out <file.json>]
///   bench_patterns --calibrate [--transport <t>] [--out <profile.json>]
///
/// JSON results use the compare_benchmarks.py schema (`algo` holds the
/// transport name; extra min/avg/max/GB/s fields are ignored by the
/// matcher).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/plan.hpp"
#include "grid/halo.hpp"
#include "fft/partition.hpp"
#include "fft/reshape.hpp"
#include "measure.hpp"

namespace bb = beatnik::bench;
namespace bc = beatnik::comm;
namespace bf = beatnik::fft;
namespace bg = beatnik::grid;

namespace {

struct PatternResult {
    bb::Result base;          ///< ns_per_op = median iteration
    bb::IterStats stats;      ///< seconds
    double gbps = 0.0;        ///< aggregate pattern bytes / median seconds
    std::size_t total_bytes = 0;
};

/// Time \p iters barrier-synchronized iterations of the pattern returned
/// by \p setup(comm); each sample is the pattern-wide slowest rank
/// (allreduce-max), so the statistics describe the whole exchange, not
/// rank 0's corner of it. The warmup block is discarded.
template <class Setup>
std::vector<double> time_pattern_iters(int ranks, int iters, bc::ContextConfig cfg,
                                       Setup&& setup) {
    std::vector<double> out;
    std::mutex m;
    bc::Context::run(
        ranks,
        [&](bc::Communicator& comm) {
            auto op = setup(comm);
            bb::CacheDefeater defeat(4u << 20);
            const int warmup = iters >= 10 ? iters / 10 : 1;
            for (int i = 0; i < warmup; ++i) op();
            std::vector<double> samples(static_cast<std::size_t>(iters));
            for (int i = 0; i < iters; ++i) {
                defeat.touch();
                comm.barrier();
                auto t0 = std::chrono::steady_clock::now();
                op();
                auto t1 = std::chrono::steady_clock::now();
                samples[static_cast<std::size_t>(i)] =
                    std::chrono::duration<double>(t1 - t0).count();
            }
            comm.allreduce(std::span<double>(samples), bc::op::Max{});
            if (comm.rank() == 0) {
                std::lock_guard lock(m);
                out = std::move(samples);
            }
        },
        cfg);
    return out;
}

PatternResult summarize(const char* op, const std::string& transport, int ranks,
                        std::size_t msg_bytes, std::size_t total_bytes,
                        std::vector<double> samples) {
    PatternResult r;
    r.stats = bb::iter_stats(samples);
    r.base = {op, transport, ranks, msg_bytes, r.stats.iters, r.stats.med * 1e9};
    r.gbps = bb::gbps(total_bytes, r.stats.med);
    r.total_bytes = total_bytes;
    return r;
}

// ---------------------------------------------------------------- schedules

/// Ring: every rank sends one message of \p bytes to (rank+1) % p.
PatternResult bench_ring(int ranks, std::size_t bytes, int iters, bc::ContextConfig cfg,
                         const std::string& transport) {
    auto samples = time_pattern_iters(ranks, iters, cfg, [=](bc::Communicator& comm) {
        const int next = (comm.rank() + 1) % comm.size();
        const int prev = (comm.rank() + comm.size() - 1) % comm.size();
        const int tag = comm.new_plan_tag();
        auto builder = bc::Plan::builder(comm);
        int s = builder.add_send(next, tag, bytes);
        int r = builder.add_recv(prev, tag, bytes);
        auto plan = std::make_shared<bc::Plan>(builder.build());
        return std::function<void()>([plan, s, r, bytes, rank = comm.rank()] {
            plan->start();
            auto buf = plan->send_buffer(s, bytes);
            std::memset(buf.data(), rank + 1, buf.size());
            plan->publish(s);
            plan->wait();
            plan->release_recv(r);
        });
    });
    return summarize("ring", transport, ranks, bytes,
                     static_cast<std::size_t>(ranks) * bytes, std::move(samples));
}

/// Structured 8-direction halo on a periodic torus: one plan, one
/// channel per (neighbor, direction), uniform message size.
PatternResult bench_halo(int ranks, std::size_t bytes, int iters, bc::ContextConfig cfg,
                         const std::string& transport) {
    auto samples = time_pattern_iters(ranks, iters, cfg, [=](bc::Communicator& comm) {
        auto dims = bg::dims_create_2d(comm.size());
        auto topo = std::make_shared<bg::CartTopology2D>(comm.size(), dims,
                                                         std::array<bool, 2>{true, true});
        // One plan tag per direction, allocated collectively so every
        // rank derives the same tag for the same direction; the channel
        // pairing mirrors grid::HaloPlan (direction k pairs with its
        // mirror 7-k on the receiving side).
        std::array<int, 8> tag{};
        for (auto& t : tag) t = comm.new_plan_tag();
        auto builder = bc::Plan::builder(comm);
        auto sends = std::make_shared<std::vector<int>>();
        auto recvs = std::make_shared<std::vector<int>>();
        for (int k = 0; k < 8; ++k) {
            auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
            int nbr = topo->neighbor(comm.rank(), di, dj);
            if (nbr < 0) continue;
            sends->push_back(builder.add_send(nbr, tag[static_cast<std::size_t>(k)], bytes));
            recvs->push_back(builder.add_recv(nbr, tag[static_cast<std::size_t>(7 - k)], bytes));
        }
        auto plan = std::make_shared<bc::Plan>(builder.build());
        return std::function<void()>([plan, sends, recvs, bytes, rank = comm.rank()] {
            plan->start();
            for (int s : *sends) {
                auto buf = plan->send_buffer(s, bytes);
                std::memset(buf.data(), rank + 1, buf.size());
                plan->publish(s);
            }
            plan->wait();
            for (int r : *recvs) plan->release_recv(r);
        });
    });
    // Periodic torus: every rank has all 8 neighbors.
    return summarize("halo", transport, ranks, bytes,
                     static_cast<std::size_t>(ranks) * 8u * bytes, std::move(samples));
}

/// Pairwise all-to-all: one flat plan with p-1 sends and p-1 recvs per
/// rank (the phased pairwise schedule's channel set), published in
/// round order.
PatternResult bench_pairwise(int ranks, std::size_t bytes, int iters, bc::ContextConfig cfg,
                             const std::string& transport) {
    auto samples = time_pattern_iters(ranks, iters, cfg, [=](bc::Communicator& comm) {
        const int p = comm.size();
        const int tag = comm.new_plan_tag();
        auto builder = bc::Plan::builder(comm);
        auto sends = std::make_shared<std::vector<int>>();
        auto recvs = std::make_shared<std::vector<int>>();
        for (int round = 1; round < p; ++round) {
            int dst = (comm.rank() + round) % p;
            int src = (comm.rank() - round + p) % p;
            sends->push_back(builder.add_send(dst, tag, bytes));
            recvs->push_back(builder.add_recv(src, tag, bytes));
        }
        auto plan = std::make_shared<bc::Plan>(builder.build());
        return std::function<void()>([plan, sends, recvs, bytes, rank = comm.rank()] {
            plan->start();
            for (int s : *sends) {
                auto buf = plan->send_buffer(s, bytes);
                std::memset(buf.data(), rank + 1, buf.size());
                plan->publish(s);
            }
            plan->wait();
            for (int r : *recvs) plan->release_recv(r);
        });
    });
    return summarize("pairwise", transport, ranks, bytes,
                     static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks - 1) *
                         bytes,
                     std::move(samples));
}

/// Bruck all-to-all rounds: ceil(log2 p) store-and-forward rounds, each
/// its own plan; round k ships ceil(p/2) aggregated blocks to rank
/// (r + 2^k) % p.
PatternResult bench_bruck(int ranks, std::size_t bytes, int iters, bc::ContextConfig cfg,
                          const std::string& transport) {
    const std::size_t round_bytes =
        bytes * ((static_cast<std::size_t>(ranks) + 1) / 2);
    int rounds = 0;
    for (int step = 1; step < ranks; step <<= 1) ++rounds;
    auto samples = time_pattern_iters(ranks, iters, cfg, [=](bc::Communicator& comm) {
        const int p = comm.size();
        auto plans = std::make_shared<std::vector<bc::Plan>>();
        auto sends = std::make_shared<std::vector<int>>();
        auto recvs = std::make_shared<std::vector<int>>();
        for (int step = 1; step < p; step <<= 1) {
            const int tag = comm.new_plan_tag();
            auto builder = bc::Plan::builder(comm);
            sends->push_back(builder.add_send((comm.rank() + step) % p, tag, round_bytes));
            recvs->push_back(builder.add_recv((comm.rank() - step + p) % p, tag, round_bytes));
            plans->push_back(builder.build());
        }
        return std::function<void()>([plans, sends, recvs, round_bytes, rank = comm.rank()] {
            for (std::size_t k = 0; k < plans->size(); ++k) {
                auto& plan = (*plans)[k];
                plan.start();
                auto buf = plan.send_buffer((*sends)[k], round_bytes);
                std::memset(buf.data(), rank + 1, buf.size());
                plan.publish((*sends)[k]);
                plan.wait();
                plan.release_recv((*recvs)[k]);
            }
        });
    });
    return summarize("bruck", transport, ranks, bytes,
                     static_cast<std::size_t>(ranks) * static_cast<std::size_t>(rounds) *
                         round_bytes,
                     std::move(samples));
}

/// FFT brick->pencil reshape through the plan-backed p2p path. The grid
/// edge is derived from --bytes so one brick/pencil intersection is
/// about that size; total bytes counts the whole redistributed grid
/// (self-overlap included), so treat GB/s as indicative.
PatternResult bench_reshape(int ranks, std::size_t bytes, int iters, bc::ContextConfig cfg,
                            const std::string& transport) {
    auto dims = bg::dims_create_2d(ranks);
    int n = static_cast<int>(std::lround(std::sqrt(
        static_cast<double>(bytes) / sizeof(bf::cplx) * ranks * dims[1])));
    if (n < ranks) n = ranks;
    auto samples = time_pattern_iters(ranks, iters, cfg, [=](bc::Communicator& comm) {
        std::array<int, 2> global{n, n};
        auto bricks = std::make_shared<std::vector<bf::Box2D>>(bf::brick_boxes(global, dims));
        auto pencils = std::make_shared<std::vector<bf::Box2D>>(
            bf::pencil_boxes(global, comm.size(), /*long_axis=*/1));
        auto plan = std::make_shared<bf::ReshapePlan>(comm.rank(), *bricks, *pencils);
        auto src = std::make_shared<bf::Layout2D>(
            bf::Layout2D{(*bricks)[static_cast<std::size_t>(comm.rank())], 1});
        auto dst = std::make_shared<bf::Layout2D>(
            bf::Layout2D{(*pencils)[static_cast<std::size_t>(comm.rank())], 1});
        auto in = std::make_shared<std::vector<bf::cplx>>(src->size());
        for (std::size_t i = 0; i < in->size(); ++i) {
            (*in)[i] = {static_cast<double>(i % 97), static_cast<double>(comm.rank())};
        }
        auto out = std::make_shared<std::vector<bf::cplx>>();
        return std::function<void()>([&comm, plan, src, dst, in, out, bricks, pencils] {
            plan->execute(comm, *src, std::span<const bf::cplx>(*in), *dst, *out,
                          /*use_alltoall=*/false);
        });
    });
    const std::size_t total = static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
                              sizeof(bf::cplx);
    const std::size_t isect = (static_cast<std::size_t>(n) / static_cast<std::size_t>(ranks)) *
                              (static_cast<std::size_t>(n) / static_cast<std::size_t>(dims[1])) *
                              sizeof(bf::cplx);
    return summarize("reshape", transport, ranks, isect, total, std::move(samples));
}

// ---------------------------------------------------------------- calibrate

/// Fit (latency, bandwidth, local-copy) for one transport and write the
/// machine profile netsim/profile.hpp loads.
int calibrate(const std::string& transport, bc::ContextConfig cfg, bool quick,
              const std::string& out_path) {
    const int ranks = 2;
    const int iters = bb::scaled_iters(quick, 200);

    auto ring_median = [&](std::size_t bytes) {
        return bb::median_of(3, [&] {
            auto samples = time_pattern_iters(ranks, iters, cfg, [=](bc::Communicator& comm) {
                const int next = (comm.rank() + 1) % comm.size();
                const int prev = (comm.rank() + comm.size() - 1) % comm.size();
                const int tag = comm.new_plan_tag();
                auto builder = bc::Plan::builder(comm);
                int s = builder.add_send(next, tag, bytes);
                int r = builder.add_recv(prev, tag, bytes);
                auto plan = std::make_shared<bc::Plan>(builder.build());
                return std::function<void()>([plan, s, r, bytes] {
                    plan->start();
                    auto buf = plan->send_buffer(s, bytes);
                    std::memset(buf.data(), 1, buf.size());
                    plan->publish(s);
                    plan->wait();
                    plan->release_recv(r);
                });
            });
            return bb::iter_stats(samples).med;
        });
    };

    const std::size_t small_bytes = 8;
    const std::size_t large_bytes = 4u << 20;
    const double latency = ring_median(small_bytes);
    const double large = ring_median(large_bytes);
    const double serialization = large > latency ? large - latency : large;
    const double bandwidth = static_cast<double>(large_bytes) / serialization;

    // Local-copy bandwidth: a plain memcpy sweep between two buffers
    // larger than cache, medianed like everything else.
    const std::size_t copy_bytes = 16u << 20;
    std::vector<std::byte> a(copy_bytes, std::byte{1});
    std::vector<std::byte> b(copy_bytes);
    const int copy_reps = quick ? 3 : 20;
    double copy_seconds = bb::median_of(copy_reps, [&] {
        auto t0 = std::chrono::steady_clock::now();
        std::memcpy(b.data(), a.data(), copy_bytes);
        auto t1 = std::chrono::steady_clock::now();
        // Alternate direction so neither buffer stays exclusively cached.
        std::swap(a, b);
        return std::chrono::duration<double>(t1 - t0).count();
    });
    const double local_copy = static_cast<double>(copy_bytes) / copy_seconds;

    std::printf("calibrated %s: latency %.2f us, bandwidth %.2f GB/s, local copy %.2f GB/s\n",
                transport.c_str(), latency * 1e6, bandwidth / 1e9, local_copy / 1e9);

    const std::string path = out_path.empty() ? "machine_profile.json" : out_path;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"transport\": \"%s\",\n"
                 "  \"latency_seconds\": %.9e,\n"
                 "  \"bandwidth_bytes_per_second\": %.9e,\n"
                 "  \"local_copy_bandwidth_bytes_per_second\": %.9e\n"
                 "}\n",
                 transport.c_str(), latency, bandwidth, local_copy);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

void write_results_json(const std::vector<PatternResult>& results, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"patterns\",\n  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PatternResult& r = results[i];
        std::fprintf(f,
                     "    {\"op\": \"%s\", \"algo\": \"%s\", \"ranks\": %d, \"bytes\": %zu, "
                     "\"iters\": %d, \"ns_per_op\": %.1f, \"min_ns\": %.1f, \"avg_ns\": %.1f, "
                     "\"max_ns\": %.1f, \"total_bytes\": %zu, \"gbps\": %.4f}%s\n",
                     r.base.op.c_str(), r.base.algo.c_str(), r.base.ranks, r.base.bytes,
                     r.base.iters, r.base.ns_per_op, r.stats.min * 1e9, r.stats.avg * 1e9,
                     r.stats.max * 1e9, r.total_bytes, r.gbps,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

int run(int argc, char** argv) {
    std::string schedule = "all";
    std::string transport;
    std::string out_path;
    int ranks = 8;
    long long bytes_arg = -1;
    int iters_arg = -1;
    bool quick = false;
    bool do_calibrate = false;
    bool do_trace = false;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--schedule halo|ring|pairwise|bruck|reshape|all]\n"
                     "          [--transport inproc|shm|loopback] [--ranks N] [--bytes N]\n"
                     "          [--iters N] [--quick] [--out <file.json>] [--calibrate]\n"
                     "          [--trace]   (arm telemetry; writes beatnik-<pid>.trace.json\n"
                     "                       or $BEATNIK_TRACE_FILE at exit)\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--schedule") == 0) {
            schedule = next("--schedule");
        } else if (std::strcmp(argv[i], "--transport") == 0) {
            transport = next("--transport");
        } else if (std::strcmp(argv[i], "--ranks") == 0) {
            ranks = std::atoi(next("--ranks"));
        } else if (std::strcmp(argv[i], "--bytes") == 0) {
            bytes_arg = std::atoll(next("--bytes"));
        } else if (std::strcmp(argv[i], "--iters") == 0) {
            iters_arg = std::atoi(next("--iters"));
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0) {
            out_path = next("--out");
        } else if (std::strcmp(argv[i], "--calibrate") == 0) {
            do_calibrate = true;
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            do_trace = true;
        } else {
            return usage();
        }
    }
    if (ranks < 2) {
        std::fprintf(stderr, "error: --ranks must be >= 2\n");
        return 2;
    }

    bc::ContextConfig cfg;
    if (!transport.empty()) cfg.transport = transport;
    cfg.telemetry = do_trace;
    // Label records with the *effective* transport when none was given.
    std::string label = transport;
    if (label.empty()) {
        const char* env = std::getenv("BEATNIK_TRANSPORT");
        label = (env != nullptr && *env != '\0') ? env : "inproc";
    }

    if (do_calibrate) return calibrate(label, cfg, quick, out_path);

    struct Sched {
        const char* name;
        PatternResult (*fn)(int, std::size_t, int, bc::ContextConfig, const std::string&);
        int full_iters;
        std::size_t default_bytes;
    };
    const std::vector<Sched> all{
        {"ring", bench_ring, 200, 64 * 1024},
        {"halo", bench_halo, 100, 64 * 1024},
        {"pairwise", bench_pairwise, 50, 64 * 1024},
        {"bruck", bench_bruck, 50, 16 * 1024},
        {"reshape", bench_reshape, 50, 64 * 1024},
    };

    std::vector<PatternResult> results;
    bool matched = false;
    for (const Sched& s : all) {
        if (schedule != "all" && schedule != s.name) continue;
        matched = true;
        const std::size_t bytes =
            bytes_arg >= 0 ? static_cast<std::size_t>(bytes_arg) : s.default_bytes;
        const int iters =
            iters_arg > 0 ? iters_arg : bb::scaled_iters(quick, s.full_iters);
        results.push_back(s.fn(ranks, bytes, iters, cfg, label));
    }
    if (!matched) return usage();

    std::printf("%-10s %-9s %6s %10s %6s %12s %12s %12s %12s %8s\n", "schedule", "transport",
                "ranks", "bytes", "iters", "min us", "med us", "avg us", "max us", "GB/s");
    for (const PatternResult& r : results) {
        std::printf("%-10s %-9s %6d %10zu %6d %12.2f %12.2f %12.2f %12.2f %8.3f\n",
                    r.base.op.c_str(), r.base.algo.c_str(), r.base.ranks, r.base.bytes,
                    r.base.iters, r.stats.min * 1e6, r.stats.med * 1e6, r.stats.avg * 1e6,
                    r.stats.max * 1e6, r.gbps);
    }
    if (!out_path.empty()) {
        write_results_json(results, out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_patterns", [&] { return run(argc, argv); });
}
