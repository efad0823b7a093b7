/**
 * @file
 * Internal to src/obs (callers use Tracer and Logger): the one
 * per-thread identity and the one per-thread record buffer behind
 * the tracer and the logger. threadIndex() is the `tid` of every
 * trace event, log record and flight event, so a thread carries one
 * number across all of them.
 */

#ifndef REQISC_OBS_THREAD_BUFFERS_HH
#define REQISC_OBS_THREAD_BUFFERS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace reqisc::obs::detail
{

/** Dense per-thread index, assigned once per thread in first-use order. */
inline std::uint32_t threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

/**
 * One buffer per writing thread (its own mutex, so writers never
 * contend), kept after the thread exits so records from short-lived
 * pool threads survive into collect().
 */
template <class Record>
class ThreadBuffers
{
  public:
    void append(Record &&rec)
    {
        Buffer &buf = local();
        std::lock_guard lock(buf.mu);
        buf.records.push_back(std::move(rec));
    }

    /** Every buffered record, stable-sorted by key(record). */
    template <class Key>
    std::vector<Record> collect(Key key)
    {
        std::vector<Record> out;
        std::lock_guard lock(mu_);
        for (const auto &buf : buffers_)
        {
            std::lock_guard bufLock(buf->mu);
            out.insert(out.end(), buf->records.begin(),
                       buf->records.end());
        }
        std::stable_sort(out.begin(), out.end(),
                         [&key](const Record &a, const Record &b) {
                             return key(a) < key(b);
                         });
        return out;
    }

    /** Drop every record, and the buffers of exited threads. */
    void clear()
    {
        std::lock_guard lock(mu_);
        // Only the registry still holds an exited thread's buffer.
        std::erase_if(buffers_, [](const auto &buf) {
            return buf.use_count() == 1;
        });
        for (const auto &buf : buffers_)
        {
            std::lock_guard bufLock(buf->mu);
            buf->records.clear();
        }
    }

  private:
    struct Buffer
    {
        std::mutex mu;
        std::vector<Record> records;
    };

    /** This thread's buffer. The thread_local is per Record type,
     *  which is sound because each type has one instance (the
     *  singleton Tracer's and Logger's). */
    Buffer &local()
    {
        thread_local std::shared_ptr<Buffer> mine;
        if (!mine)
        {
            mine = std::make_shared<Buffer>();
            std::lock_guard lock(mu_);
            buffers_.push_back(mine);
        }
        return *mine;
    }

    std::mutex mu_;  //!< guards buffers_
    std::vector<std::shared_ptr<Buffer>> buffers_;
};

} // namespace reqisc::obs::detail

#endif // REQISC_OBS_THREAD_BUFFERS_HH
