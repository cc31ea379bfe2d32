/**
 * @file
 * SeqRing<T>: the one drop-oldest, lock-free seqlock ring behind the
 * flight recorder, the tracer and the profiler (DESIGN.md §11).
 *
 * Writers (any number, async-signal-safe) claim `seq` with a
 * fetch_add, take slot `seq % capacity` by CAS from an older even
 * version to `2·seq+1`, copy the record in as relaxed 8-byte atomic
 * words after a release fence, and publish `2·seq+2` with a release
 * store. A writer that finds its slot held by another, or already
 * refilled, drops its record; recorded() still counts it. Readers
 * walk `[cursor − capacity, cursor)` and keep a slot only when its
 * version is `2·seq+2` before and after the word-wise copy, with an
 * acquire fence before the second load. Every shared access is
 * atomic, so the ring is race-free in the C++ model.
 *
 * Slots live in an anonymous mmap, resident only once written.
 * push() is force-inlined and uses atomic builtins on the slot
 * words, so it takes its caller's sanitizer attributes: none inside
 * the profiler's SIGPROF handler.
 */

#ifndef LIVEPHASE_OBS_SEQ_RING_HH
#define LIVEPHASE_OBS_SEQ_RING_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include <sys/mman.h>

#include "common/logging.hh"

namespace livephase::obs
{

template <typename T>
class SeqRing
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      sizeof(T) % sizeof(uint64_t) == 0,
                  "SeqRing copies records as whole 8-byte words");
    static constexpr size_t WORDS = sizeof(T) / sizeof(uint64_t);
    /** Slot layout: the version word, then the record's words. */
    static constexpr size_t STRIDE = 1 + WORDS;

  public:
    /** @param capacity slots; fatal() when 0. */
    explicit SeqRing(size_t capacity)
        : cap(capacity), bytes(capacity * STRIDE * sizeof(uint64_t))
    {
        if (cap == 0)
            fatal("SeqRing: capacity must be > 0");
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        words = static_cast<uint64_t *>(p);
    }

    ~SeqRing() { munmap(words, bytes); }

    SeqRing(const SeqRing &) = delete;
    SeqRing &operator=(const SeqRing &) = delete;

    /** Append one record (or drop it, see above). */
    [[gnu::always_inline]] inline void push(const T &rec)
    {
        const uint64_t seq =
            cursor.fetch_add(1, std::memory_order_relaxed);
        uint64_t *slot = words + (seq % cap) * STRIDE;
        uint64_t v = __atomic_load_n(slot, __ATOMIC_RELAXED);
        do {
            if ((v & 1) != 0 || v > 2 * seq)
                return;
        } while (!__atomic_compare_exchange_n(slot, &v, 2 * seq + 1,
                                              /*weak=*/true,
                                              __ATOMIC_ACQUIRE,
                                              __ATOMIC_RELAXED));
        std::atomic_thread_fence(std::memory_order_release);
        const auto *src = reinterpret_cast<const unsigned char *>(&rec);
        for (size_t i = 0; i < WORDS; ++i) {
            uint64_t w;
            std::memcpy(&w, src + i * sizeof w, sizeof w);
            __atomic_store_n(slot + 1 + i, w, __ATOMIC_RELAXED);
        }
        __atomic_store_n(slot, 2 * seq + 2, __ATOMIC_RELEASE);
    }

    /** Call `visit(seq, rec)` for every intact record held, oldest
     *  first, skipping slots being written or overwritten. */
    template <typename Visit>
    void read(Visit &&visit) const
    {
        const uint64_t end = cursor.load(std::memory_order_acquire);
        uint64_t buf[WORDS];
        for (uint64_t seq = end > cap ? end - cap : 0; seq < end; ++seq) {
            const uint64_t *slot = words + (seq % cap) * STRIDE;
            if (__atomic_load_n(slot, __ATOMIC_ACQUIRE) != 2 * seq + 2)
                continue;
            for (size_t i = 0; i < WORDS; ++i)
                buf[i] = __atomic_load_n(slot + 1 + i, __ATOMIC_RELAXED);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (__atomic_load_n(slot, __ATOMIC_RELAXED) != 2 * seq + 2)
                continue;
            T rec;
            std::memcpy(&rec, buf, sizeof rec);
            visit(seq, rec);
        }
    }

    /** Drop every record and hand the slot pages back (they read
     *  back as zero). Only safe while no thread is writing. */
    void reset()
    {
        madvise(words, bytes, MADV_DONTNEED);
        cursor.store(0, std::memory_order_relaxed);
    }

    /** Records ever pushed, dropped ones included. */
    uint64_t recorded() const
    {
        return cursor.load(std::memory_order_relaxed);
    }

    size_t capacity() const { return cap; }

  private:
    const size_t cap;
    const size_t bytes;
    uint64_t *words = nullptr;
    std::atomic<uint64_t> cursor{0};
};

/** Per-thread rings, kept past their threads' exit. */
template <typename T>
using SeqRings = std::vector<std::shared_ptr<SeqRing<T>>>;

/** Every intact record of every ring in `rings` (guarded by `mu`),
 *  oldest first by the timestamp field `time`. */
template <typename T>
std::vector<T>
snapshotRings(std::mutex &mu, const SeqRings<T> &rings, uint64_t T::*time)
{
    std::unique_lock lock(mu);
    const SeqRings<T> held = rings;
    lock.unlock();
    std::vector<T> out;
    for (const auto &ring : held)
        ring->read([&out](uint64_t, const T &rec) { out.push_back(rec); });
    std::sort(out.begin(), out.end(), [time](const T &a, const T &b) {
        return a.*time < b.*time;
    });
    return out;
}

/** Reset every ring (caller holds the registry's lock) and drop the
 *  ones only `rings` still owns: their threads have exited. */
template <typename T>
void
resetRings(SeqRings<T> &rings)
{
    for (const auto &ring : rings)
        ring->reset();
    std::erase_if(rings, [](const auto &r) { return r.use_count() == 1; });
}

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_SEQ_RING_HH
