/**
 * @file
 * The process's one worker-pool class: a fixed set of threads
 * draining one FIFO task queue. It backs the service's job workers,
 * the shared block-resynthesis pool of hier-synth and the daemon's
 * HTTP handlers, each as its own instance.
 *
 * Two ways in:
 * - post(fn) queues a fire-and-forget task, run in FIFO order by the
 *   pool's threads. The task carries no trace or job context, so the
 *   spans it opens are roots, and the pool records nothing for it.
 * - run(tasks) is a fan-out/join primitive with caller participation:
 *   the submitting thread executes queued tasks itself until its
 *   batch completes, so a pool with zero threads degrades to plain
 *   serial execution and a shared pool can never deadlock a waiting
 *   job (the waiter drains the queue, including other jobs' tasks).
 *   Each task re-enters the caller's JobScope and is parented on the
 *   caller's innermost span, whichever thread executes it. Its only
 *   caller is block resynthesis, so each task is traced as a
 *   `block-task` span and counted in the reqisc_blockpool_* series.
 *
 * Destruction runs every task still queued, then joins the threads,
 * so an owner's pool member must be destroyed before the state its
 * tasks touch.
 *
 * Determinism: the pool imposes no ordering on batch execution, so
 * run() must only be used for tasks that are independent and write
 * to disjoint slots — exactly the contract hierarchicalSynthesis
 * upholds (results land in an index-addressed vector and are emitted
 * in block order afterwards), which is what keeps the parallel gate
 * stream bit-identical to the serial one at every worker count.
 */

#ifndef REQISC_UTIL_POOL_HH
#define REQISC_UTIL_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hh"

namespace reqisc::util
{

/** Fixed-size thread pool over one FIFO queue. */
class WorkerPool
{
  public:
    /**
     * @param threads threads the pool owns (< 0 counts as 0). run()
     *        callers execute tasks in addition to these; with 0, a
     *        posted task waits for a run() caller or the destructor.
     */
    explicit WorkerPool(int threads);
    ~WorkerPool();  //!< runs every queued task, then joins

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Threads owned by the pool. */
    int threads() const { return static_cast<int>(threads_.size()); }

    /** Executors a run() batch can use at once (threads + caller). */
    int workers() const { return threads() + 1; }

    /**
     * Queue one fire-and-forget task. Tasks start in post() order
     * (and, on one thread, finish in it). The task must not throw:
     * an exception escaping it ends the process (std::terminate).
     */
    void post(std::function<void()> fn);

    /**
     * Execute every task and return when all of them finished. The
     * caller participates; other queued tasks may be executed by
     * this thread while it drains the queue (that only speeds them
     * up). The first exception a task of this batch throws is
     * rethrown here after the whole batch completes.
     */
    void run(std::vector<std::function<void()>> tasks);

  private:
    /** Join state of one run() call. */
    struct Batch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = 0;
        std::exception_ptr error;
    };

    struct Item
    {
        std::function<void()> fn;
        /** The run() call this task belongs to; null for post(). */
        std::shared_ptr<Batch> batch;
        /** Span of the run() caller, so each executed task can be
         *  traced as its child even on a pool thread. */
        obs::SpanContext parent;
        /** JobScope name of the run() caller, re-entered on the
         *  executing thread so block-task spans / logs / flight
         *  events keep their job attribution across threads. */
        std::string job;
    };

    /** Pop and execute one task; false when the queue is empty. */
    bool runOne();
    void noteQueueDepth() const;  //!< callers hold mu_
    void execute(Item &item);
    void threadLoop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Item> queue_;
    bool stopping_ = false;

    /** Utilization accounting: busy seconds across all executors
     *  over (wall seconds since construction x workers()). */
    std::chrono::steady_clock::time_point started_;
    std::atomic<double> busySeconds_{0.0};

    std::vector<std::thread> threads_;  //!< use every member above
};

} // namespace reqisc::util

#endif // REQISC_UTIL_POOL_HH
