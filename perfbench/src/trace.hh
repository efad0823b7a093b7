/**
 * @file
 * The benchmark's own span recorder. Spans wrap the benchmark's
 * calls into each layer's public functions (the program itself is
 * not instrumented here): name, start, end, parent and request id.
 * They stay in memory and are written once, when the run ends, in
 * the Chrome trace-event format `reqisc-compile --trace-out` emits,
 * so Perfetto opens both.
 *
 * A span name is "<layer>.<call>"; the layer is one of the repo's
 * modules (qmath, weyl, synth, uarch, route, isa, backend, compiler,
 * service, daemon, circuit). A layer's self time is its spans'
 * duration minus the part of it that their child spans cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace perfbench::trace
{

void setEnabled(bool on);
bool enabled();

/** Record a finished span; returns its id (0 when disabled). */
std::uint64_t record(const std::string &name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent = 0,
                     std::uint64_t request = 0);

/** Id reserved for a span recorded later (0 when disabled). */
std::uint64_t reserveId();
/** record() under an id from reserveId(). */
void recordAs(std::uint64_t id, const std::string &name,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t parent, std::uint64_t request);

/**
 * RAII span, parented on the thread's innermost open Scope. Always
 * measures (stop() returns the elapsed seconds); records only when
 * tracing is enabled.
 */
class Scope
{
  public:
    explicit Scope(std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double stop();
    std::uint64_t id() const { return id_; }

  private:
    std::string name_;
    std::uint64_t request_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
    double seconds_ = 0.0;
    bool stopped_ = false;
};

/** Time one call; returns seconds. */
template <typename F>
double
timed(const std::string &name, F &&fn)
{
    Scope s(name);
    fn();
    return s.stop();
}

/** Per-layer self time over all recorded spans. */
struct LayerTime
{
    std::string layer;
    double selfMs = 0.0;
    double totalMs = 0.0;
    std::int64_t spans = 0;
};
std::vector<LayerTime> layerSelfTimes();

std::size_t spanCount();

/** Write every span as Chrome trace-event JSON. */
bool writeChrome(const std::string &path, std::string &error);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
