#include "util/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>

namespace lily {

namespace {
thread_local bool tl_in_worker = false;
}  // namespace

std::size_t lily_threads_from_env() {
    const char* env = std::getenv("LILY_THREADS");
    if (env == nullptr || *env == '\0') return 0;
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end == env || n <= 0) return 0;
    return static_cast<std::size_t>(n);
}

std::size_t default_thread_count() {
    const std::size_t env = lily_threads_from_env();
    if (env != 0) return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// One parallel region: lives on the stack of the run_chunks caller. The
/// caller may not return while any worker still references it, so `refs`
/// (mutex-guarded) counts workers inside `execute`.
struct ThreadPool::Region {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t total = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::size_t refs = 0;           // guarded by pool mutex
    std::exception_ptr error;       // first failure; guarded by pool mutex
};

ThreadPool::ThreadPool(std::size_t n_threads) {
    if (n_threads == 0) n_threads = default_thread_count();
    start_workers(n_threads - 1);
}

ThreadPool::~ThreadPool() { stop_workers(); }

ThreadPool& ThreadPool::global() {
    static ThreadPool pool;
    return pool;
}

bool ThreadPool::in_worker() { return tl_in_worker; }

void ThreadPool::start_workers(std::size_t n_workers) {
    workers_.reserve(n_workers);
    for (std::size_t i = 0; i < n_workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

void ThreadPool::stop_workers() {
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    stop_ = false;
}

void ThreadPool::resize(std::size_t n_threads) {
    if (n_threads == 0) n_threads = default_thread_count();
    if (n_threads == size()) return;
    stop_workers();
    start_workers(n_threads - 1);
}

void ThreadPool::execute(Region& region) {
    while (true) {
        const std::size_t i = region.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= region.total) break;
        try {
            (*region.fn)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mutex_);
            if (!region.error) region.error = std::current_exception();
        }
        region.completed.fetch_add(1, std::memory_order_acq_rel);
    }
}

void ThreadPool::worker_loop() {
    tl_in_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex_);
    while (true) {
        wake_cv_.wait(lk, [&] { return stop_ || (region_ != nullptr && generation_ != seen); });
        if (stop_) return;
        seen = generation_;
        Region* region = region_;
        ++region->refs;
        lk.unlock();
        execute(*region);
        lk.lock();
        --region->refs;
        if (region->refs == 0 && region->completed.load(std::memory_order_acquire) ==
                                     region->total) {
            done_cv_.notify_all();
        }
    }
}

void ThreadPool::run_chunks(std::size_t n_chunks,
                            const std::function<void(std::size_t)>& chunk) {
    if (n_chunks == 0) return;
    if (n_chunks == 1 || size() <= 1 || tl_in_worker) {
        for (std::size_t i = 0; i < n_chunks; ++i) chunk(i);
        return;
    }
    Region region;
    region.fn = &chunk;
    region.total = n_chunks;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        region_ = &region;
        ++generation_;
    }
    wake_cv_.notify_all();
    // The caller runs chunks too: mark it as inside a region while it does,
    // so a region nested in one of its chunks runs inline, as on a worker.
    tl_in_worker = true;
    execute(region);
    tl_in_worker = false;
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] {
        return region.refs == 0 &&
               region.completed.load(std::memory_order_acquire) == region.total;
    });
    region_ = nullptr;
    if (region.error) std::rethrow_exception(region.error);
}

}  // namespace lily
