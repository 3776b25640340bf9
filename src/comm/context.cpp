#include "comm/context.hpp"

#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/plancheck.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik::comm {

Context::Context(int size, ContextConfig config) : size_(size), config_(std::move(config)) {
    BEATNIK_REQUIRE(size >= 1, "context size must be >= 1");
    mailboxes_.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
        mailboxes_.push_back(
            std::make_unique<Mailbox>(abort_, config_.recv_timeout_seconds));
    }
    transports_ = std::make_shared<TransportRegistry>(TransportRegistry::Config{
        config_.transport, config_.loopback, config_.shm_session});
    // Captures the arming bit at construction: counters are only trusted
    // for contexts whose whole lifetime ran armed.
    plancheck_ = std::make_shared<plancheck::ContextState>(size);
}

Context::~Context() = default;

void Context::abort() {
    if (telemetry::enabled()) {
        telemetry::thread_track().instant("comm.abort");
    }
    abort_.store(true, std::memory_order_release);
    for (auto& box : mailboxes_) box->interrupt();
    // Transport-level fan-out: wake futex waiters, including — for the
    // shm transport — peer *processes* sharing our segments.
    transports_->abort_all();
}

void Context::run(int nranks, const std::function<void(Communicator&)>& fn,
                  ContextConfig config) {
    if (config.telemetry && !telemetry::enabled()) telemetry::arm();
    Context ctx(nranks, config);

    // World rank -> world rank identity mapping shared by every rank's
    // communicator instance.
    std::vector<int> identity(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) identity[static_cast<std::size_t>(r)] = r;

    // The first rank to fail is the one reported: every later failure
    // may be a victim of the abort it starts.
    std::vector<std::exception_ptr> failures(static_cast<std::size_t>(nranks));
    std::atomic<int> first_failed{-1};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        threads.emplace_back([&ctx, &fn, &identity, &failures, &first_failed, r] {
            try {
                if (telemetry::enabled()) {
                    telemetry::name_thread_track("rank " + std::to_string(r));
                }
                Communicator world(ctx, /*comm_id=*/0, r, identity);
                fn(world);
            } catch (...) {
                failures[static_cast<std::size_t>(r)] = std::current_exception();
                int none = -1;
                first_failed.compare_exchange_strong(none, r);
                ctx.abort();
            }
        });
    }
    for (auto& t : threads) t.join();

    const int r = first_failed.load();
    if (r < 0) return;
    try {
        std::rethrow_exception(failures[static_cast<std::size_t>(r)]);
    } catch (const std::exception& e) {
        throw Error(strcat_msg("rank ", r, " failed: ", e.what()));
    }
}

} // namespace beatnik::comm
