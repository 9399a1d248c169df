/**
 * @file
 * A bounded, thread-safe memo for values that are pure functions of
 * their keys.
 */

#ifndef INC_UTIL_MEMO_H
#define INC_UTIL_MEMO_H

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>

namespace inc::util
{

/**
 * At most a constant total cost of entries (pixel bytes, entry count),
 * oldest insertion evicted first, one mutex around lookup and insert.
 * Callers compute a missing value outside the lock; when two threads
 * miss on one key, both compute the same value and the first insert
 * wins. A hit therefore returns exactly what a miss computes, as long
 * as the key holds every input of the value.
 */
template <class Key, class Value>
class BoundedMemo
{
  public:
    explicit BoundedMemo(std::size_t capacity) : capacity_(capacity) {}

    /** Copy the value stored under @p key into @p out; false on a miss. */
    bool find(const Key &key, Value *out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return false;
        *out = it->second.value;
        return true;
    }

    /**
     * Store @p value under @p key at @p cost, then evict the oldest
     * entries until the total cost fits the capacity. A key already
     * present keeps its value; a value costing more than the whole
     * capacity is not stored.
     */
    void insert(const Key &key, const Value &value, std::size_t cost = 1)
    {
        if (cost > capacity_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = entries_.emplace(key,
                                                     Entry{value, cost});
        if (!inserted)
            return;
        order_.push_back(it);
        used_ += cost;
        while (used_ > capacity_) {
            used_ -= order_.front()->second.cost;
            entries_.erase(order_.front());
            order_.pop_front();
        }
    }

  private:
    struct Entry
    {
        Value value;
        std::size_t cost;
    };
    using Entries = std::map<Key, Entry>;

    const std::size_t capacity_;
    std::mutex mutex_;
    Entries entries_;
    std::deque<typename Entries::iterator> order_; ///< oldest first
    std::size_t used_ = 0;
};

} // namespace inc::util

#endif // INC_UTIL_MEMO_H
