#include "common/parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace ccache {

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    std::mutex errorMu;
    std::size_t failedIndex = n;       ///< guarded by errorMu
    std::exception_ptr error;          ///< guarded by errorMu

    auto drain = [&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMu);
                if (i < failedIndex) {
                    failedIndex = i;
                    error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> helpers;
    const std::size_t threads = std::min<std::size_t>(jobs, n);
    try {
        helpers.reserve(threads > 1 ? threads - 1 : 0);
        while (helpers.size() + 1 < threads)
            helpers.emplace_back(drain);
    } catch (const std::exception &) {
        // Out of threads or memory: the helpers already started and
        // the caller still drain every index.
    }
    drain();
    for (std::thread &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("CCACHE_JOBS")) {
        const char *end = env + std::strlen(env);
        unsigned jobs = 0;
        auto [stop, ec] = std::from_chars(env, end, jobs);
        if (ec == std::errc() && stop == end && jobs >= 1)
            return jobs;
        CC_WARN("ignoring CCACHE_JOBS='", env,
                "': want a whole number of at least 1");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace ccache
