#include "util/alloc_stats.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace lily {

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

inline void count_alloc(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* checked_alloc(std::size_t size) {
    count_alloc(size);
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc();
}

void* checked_aligned_alloc(std::size_t size, std::size_t align) {
    count_alloc(size);
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size != 0 ? size : 1) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

AllocStats alloc_stats_snapshot() {
    return {g_alloc_count.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed)};
}

std::size_t peak_rss_bytes() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
    }
    std::fclose(f);
    return static_cast<std::size_t>(kb) * 1024;
}

}  // namespace lily

// ---- Replaced global allocation functions ------------------------------
// The full replaceable set (plain/nothrow/array/aligned, sized deletes):
// partial replacement is undefined behaviour. Deletes defer straight to
// free — only allocations are counted.

void* operator new(std::size_t size) { return lily::checked_alloc(size); }
void* operator new[](std::size_t size) { return lily::checked_alloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    lily::count_alloc(size);
    return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    lily::count_alloc(size);
    return std::malloc(size != 0 ? size : 1);
}

void* operator new(std::size_t size, std::align_val_t align) {
    return lily::checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return lily::checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    lily::count_alloc(size);
    void* p = nullptr;
    const std::size_t a = static_cast<std::size_t>(align);
    if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size != 0 ? size : 1) != 0) {
        return nullptr;
    }
    return p;
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t& t) noexcept {
    return operator new(size, align, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
