#include "util/pool.hh"

#include <algorithm>
#include <utility>

#include "obs/log.hh"
#include "obs/metrics.hh"

namespace reqisc::util
{

namespace
{

/**
 * Block-task metrics, registered by the first run() batch. Several
 * pools (rare outside tests) share these: gauges are
 * last-writer-wins, counters/histograms accumulate across pools —
 * both acceptable for a process that in practice runs one shared
 * block pool beside the service. The service sets
 * reqisc_blockpool_workers, since it sizes that pool.
 */
struct PoolMetrics
{
    obs::Gauge *queueDepth;
    obs::Gauge *utilization;
    obs::Counter *tasks;
    obs::Histogram *taskSeconds;
};

PoolMetrics &poolMetrics()
{
    static PoolMetrics m = [] {
        auto &r = obs::Registry::global();
        return PoolMetrics{
            r.gauge("reqisc_blockpool_queue_depth",
                    "Block-synthesis tasks waiting in the shared "
                    "pool queue"),
            r.gauge("reqisc_blockpool_utilization",
                    "Busy seconds / (wall seconds x workers) since "
                    "pool construction, in [0, 1]"),
            r.counter("reqisc_blockpool_tasks_total",
                      "Block-synthesis tasks executed"),
            r.histogram("reqisc_blockpool_task_seconds",
                        "Latency of one block-synthesis task"),
        };
    }();
    return m;
}

} // namespace

WorkerPool::WorkerPool(int threads)
    : started_(std::chrono::steady_clock::now())
{
    threads = std::max(threads, 0);
    threads_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        threads_.emplace_back([this] { threadLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
    while (runOne())  // with no threads, nothing has run the queue
    {
    }
}

bool WorkerPool::runOne()
{
    Item item;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty())
            return false;
        item = std::move(queue_.front());
        queue_.pop_front();
        if (item.batch)
            noteQueueDepth();
    }
    execute(item);
    return true;
}

void WorkerPool::noteQueueDepth() const
{
    poolMetrics().queueDepth->set(
        static_cast<double>(queue_.size()));
}

void WorkerPool::execute(Item &item)
{
    if (!item.batch)
    {
        item.fn();  // post(): no batch, no context, no telemetry
        return;
    }
    obs::JobScope jobScope(item.job);
    obs::Span span("block-task", item.parent);
    try
    {
        item.fn();
    }
    catch (...)
    {
        obs::log(obs::LogLevel::Error, "blockpool",
                 "block task failed");
        std::lock_guard<std::mutex> lock(item.batch->mu);
        if (!item.batch->error)
            item.batch->error = std::current_exception();
    }
    const double secs = span.stop();
    PoolMetrics &m = poolMetrics();
    m.tasks->inc();
    m.taskSeconds->observe(secs);
    const double busy =
        busySeconds_.fetch_add(secs, std::memory_order_relaxed) +
        secs;
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started_)
            .count();
    if (wall > 0.0)
        m.utilization->set(busy / (wall * workers()));

    std::size_t left;
    {
        std::lock_guard<std::mutex> lock(item.batch->mu);
        left = --item.batch->remaining;
    }
    if (left == 0)
        item.batch->cv.notify_all();
}

void WorkerPool::threadLoop()
{
    for (;;)
    {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
        }
        runOne();  // false if a run() caller took the task first
    }
}

void WorkerPool::post(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(Item{std::move(fn), nullptr, {}, {}});
    }
    cv_.notify_one();
}

void WorkerPool::run(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    auto batch = std::make_shared<Batch>();
    batch->remaining = tasks.size();
    // Tasks may execute on pool threads whose span stacks know
    // nothing about this job; carry the caller's innermost span and
    // job name so block-task events still parent and attribute onto
    // it.
    const obs::SpanContext parent = obs::currentSpan();
    const std::string job = obs::currentJobName();
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &t : tasks)
            queue_.push_back(Item{std::move(t), batch, parent, job});
        noteQueueDepth();
    }
    cv_.notify_all();

    // Caller participation: drain the queue (our batch's tasks and,
    // possibly, other batches' — executing those only helps them)
    // until it is empty, then wait for any of our tasks still being
    // executed by pool threads.
    while (runOne())
    {
    }
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] { return batch->remaining == 0; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace reqisc::util
