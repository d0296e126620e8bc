/**
 * @file
 * A thread-safe memoization store with hit/miss accounting — the DSE
 * explorer's visited-point map (never re-simulate a knob tuple),
 * generalized so the apird server can reuse it for its two production
 * caches: the content-addressed workload cache (road nets, meshes and
 * matrices are pure functions of seed + scale, so generate once and
 * share) and the memoized result store (a canonicalized knob tuple
 * maps to one stats payload, forever).
 *
 * getOrCompute() additionally collapses concurrent computations of
 * the same key: the first caller computes while later callers block
 * on a shared future, so a thundering herd of identical requests
 * costs one simulation, not N. A computation that throws is erased
 * so the key can be retried (in-flight waiters observe the failure).
 *
 * A store built with a capacity keeps at most that many finished
 * entries, evicting the least recently used; an entry still being
 * computed is never evicted.
 */

#ifndef APIR_DSE_MEMO_HH
#define APIR_DSE_MEMO_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

namespace apir {

/** Keyed, thread-safe, compute-once value store. */
template <typename Key, typename Value>
class MemoStore
{
  public:
    /** `capacity` 0 keeps every entry forever. */
    explicit MemoStore(size_t capacity = 0) : capacity_(capacity) {}

    /**
     * Look the key up, counting a hit or a miss. Blocks if another
     * thread is still computing the value (and rethrows its failure).
     */
    std::optional<Value>
    tryGet(const Key &key)
    {
        std::shared_future<Value> fut;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it == map_.end()) {
                misses_.fetch_add(1, std::memory_order_relaxed);
                return std::nullopt;
            }
            hits_.fetch_add(1, std::memory_order_relaxed);
            fut = touchLocked(it);
        }
        return fut.get();
    }

    /** Insert a ready value (first insertion wins). Not counted. */
    void
    put(const Key &key, Value value)
    {
        std::promise<Value> prom;
        prom.set_value(std::move(value));
        std::lock_guard<std::mutex> lock(mutex_);
        if (map_.count(key) == 0) {
            insertLocked(key, prom.get_future().share());
            evictLocked();
        }
    }

    /**
     * Return the memoized value, computing it with `fn` on first
     * request. Concurrent calls for the same key run `fn` exactly
     * once; the others wait and share the result. If `fn` throws, the
     * key is erased (a later request recomputes) and every waiter
     * sees the exception.
     */
    template <typename Fn>
    Value
    getOrCompute(const Key &key, Fn &&fn)
    {
        std::shared_future<Value> fut;
        std::promise<Value> prom;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it != map_.end()) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                fut = touchLocked(it);
            } else {
                misses_.fetch_add(1, std::memory_order_relaxed);
                fut = prom.get_future().share();
                insertLocked(key, fut);
                owner = true;
            }
        }
        if (!owner)
            return fut.get();
        try {
            prom.set_value(fn());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = map_.find(key);
                lru_.erase(it->second.use);
                map_.erase(it);
            }
            prom.set_exception(std::current_exception());
            throw;
        }
        {
            // Now finished, this entry (or an older one whose eviction
            // waited on a computation) may leave.
            std::lock_guard<std::mutex> lock(mutex_);
            evictLocked();
        }
        return fut.get();
    }

    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

  private:
    struct Entry
    {
        std::shared_future<Value> fut;
        typename std::list<Key>::iterator use; //!< position in lru_
    };
    using Map = std::map<Key, Entry>;

    std::shared_future<Value>
    touchLocked(typename Map::iterator it)
    {
        lru_.splice(lru_.begin(), lru_, it->second.use);
        return it->second.fut;
    }

    void
    insertLocked(const Key &key, std::shared_future<Value> fut)
    {
        lru_.push_front(key);
        map_.emplace(key, Entry{std::move(fut), lru_.begin()});
    }

    /** Drop least recently used finished entries down to capacity. */
    void
    evictLocked()
    {
        if (capacity_ == 0)
            return;
        for (auto it = lru_.end();
             map_.size() > capacity_ && it != lru_.begin();) {
            auto m = map_.find(*--it);
            if (m->second.fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue; // still being computed
            map_.erase(m);
            it = lru_.erase(it);
        }
    }

    const size_t capacity_;
    mutable std::mutex mutex_;
    Map map_;
    std::list<Key> lru_; //!< keys, most recently used first
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace apir

#endif // APIR_DSE_MEMO_HH
