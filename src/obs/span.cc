#include "obs/span.hh"

#include <algorithm>
#include <cstring>

#include "obs/flight.hh"

namespace reqisc::obs
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Current JobScope name. A fixed trivially-destructible buffer (not
 * a std::string) so instrumentation running during thread/process
 * teardown can still read it safely; sized to the flight-event job
 * field so every consumer sees the same truncation.
 */
thread_local char tlsJob[flight::kJobBytes] = {};

void setTlsJob(const char *s, std::size_t len)
{
    const std::size_t n =
        len < sizeof(tlsJob) - 1 ? len : sizeof(tlsJob) - 1;
    std::memcpy(tlsJob, s, n);
    tlsJob[n] = '\0';
}

std::int64_t nsSince(SteadyTime epoch, SteadyTime t)
{
    // Clamp: a backdated start captured before the tracer epoch
    // (first touch races) must not produce negative timestamps.
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                             epoch)
            .count();
    return ns < 0 ? 0 : ns;
}

void recordFlightEnd(const std::string &name, SteadyTime start,
                     SteadyTime end)
{
    flight::recordAt(
        end, flight::Kind::SpanEnd, name.c_str(), "",
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - start)
                .count()));
}

/** Ids of this thread's open spans, innermost last (owner-only). */
thread_local std::vector<std::uint64_t> tlsStack;

std::uint64_t stackTop()
{
    return tlsStack.empty() ? 0 : tlsStack.back();
}

} // namespace

// ---- Tracer ------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer &Tracer::global()
{
    static Tracer *g = new Tracer();
    return *g;
}

std::vector<TraceEvent> Tracer::collect()
{
    return events_.collect(
        [](const TraceEvent &ev) { return ev.startNs; });
}

void Tracer::clear()
{
    events_.clear();
}

void Tracer::append(TraceEvent &&ev, SteadyTime start, SteadyTime end)
{
    ev.tid = detail::threadIndex();
    ev.startNs = nsSince(epoch_, start);
    ev.durNs = std::max<std::int64_t>(
        0, nsSince(epoch_, end) - ev.startNs);
    events_.append(std::move(ev));
}

// ---- Span --------------------------------------------------------------

Span::Span(std::string name) : name_(std::move(name))
{
    open({}, /*useStackParent=*/true);
    start_ = Clock::now();
    flight::recordAt(start_, flight::Kind::SpanBegin,
                     name_.c_str());
}

Span::Span(std::string name, SpanContext parent)
    : name_(std::move(name))
{
    open(parent, /*useStackParent=*/false);
    start_ = Clock::now();
    flight::recordAt(start_, flight::Kind::SpanBegin,
                     name_.c_str());
}

Span::Span(std::string name, SteadyTime start)
    : name_(std::move(name)), start_(start)
{
    open({}, /*useStackParent=*/true);
    flight::recordAt(start_, flight::Kind::SpanBegin,
                     name_.c_str());
}

void Span::open(SpanContext explicitParent, bool useStackParent)
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    id_ = tracer.nextId();
    parent_ = useStackParent ? stackTop() : explicitParent.id;
    tlsStack.push_back(id_);
    // Annotation inheritance: spans opened under a JobScope carry
    // the job name so traces correlate with logs/flight dumps.
    if (tlsJob[0] != '\0')
        args_.emplace_back("job", tlsJob);
}

Span::~Span()
{
    // Inert spans skip the clock read entirely unless the flight
    // recorder wants the end event; callers that need the duration
    // despite disabled tracing call stop() themselves.
    if (!stopped_ && (id_ != 0 || flight::enabled()))
        stop();
}

double Span::stop()
{
    if (stopped_)
        return seconds_;
    stopped_ = true;
    const SteadyTime end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    recordFlightEnd(name_, start_, end);
    if (id_ == 0)
        return seconds_;

    // Pop this span; an unbalanced stack (impossible with RAII use)
    // would self-heal by searching downward.
    if (stackTop() == id_)
        tlsStack.pop_back();
    else
        std::erase(tlsStack, id_);
    Tracer::global().append({.name = name_,
                             .id = id_,
                             .parent = parent_,
                             .args = std::move(args_)},
                            start_, end);
    return seconds_;
}

void Span::annotate(const std::string &key,
                    const std::string &value)
{
    if (id_ == 0 || stopped_)
        return;
    args_.emplace_back(key, value);
}

// ---- Free functions ----------------------------------------------------

void recordSpan(const std::string &name, SteadyTime start,
                SteadyTime end, SpanContext parent)
{
    recordFlightEnd(name, start, end);
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    tracer.append({.name = name,
                   .id = tracer.nextId(),
                   .parent = parent.id != 0 ? parent.id : stackTop(),
                   .args = {}},
                  start, end);
}

SpanContext currentSpan()
{
    if (!Tracer::global().enabled())
        return {};
    return {stackTop()};
}

// ---- Job attribution ---------------------------------------------------

const char *currentJobName()
{
    return tlsJob;
}

JobScope::JobScope(const std::string &job) : prev_(tlsJob)
{
    setTlsJob(job.data(), job.size());
}

JobScope::~JobScope()
{
    setTlsJob(prev_.data(), prev_.size());
}

} // namespace reqisc::obs
